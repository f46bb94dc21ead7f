//===- tests/heap_verify_test.cpp - Post-collection graph verification ----===//
///
/// Runs workloads with the read-only verification pass enabled: after
/// every collection the collector re-traverses the reachable graph and
/// counts references pointing outside the live heap. Any nonzero count is
/// a collector bug (an unforwarded pointer into dead from-space).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "workloads/Programs.h"

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

void runVerified(const std::string &Source, GcStrategy S, GcAlgorithm A,
                 size_t HeapBytes) {
  CliOptions O = sessionOptions(S, A, HeapBytes);
  O.Verify = true;
  O.Stress = true;
  SessionRun R = runSession(Source, O);
  ASSERT_TRUE(R) << gcStrategyName(S);
  EXPECT_GT(R.stats().get("gc.verify_passes"), 0u);
  EXPECT_EQ(R.stats().get("gc.verify_violations"), 0u) << gcStrategyName(S);
}

TEST(HeapVerify, ListChurnAllStrategies) {
  for (GcStrategy S : AllStrategies)
    runVerified(wl::listChurn(24, 4), S, GcAlgorithm::Copying, 1 << 12);
}

TEST(HeapVerify, PolyPaperAllStrategies) {
  for (GcStrategy S : AllStrategies)
    runVerified(wl::polyPaper(), S, GcAlgorithm::Copying, 1 << 12);
}

TEST(HeapVerify, HigherOrderMarkSweep) {
  for (GcStrategy S : AllStrategies)
    runVerified(wl::higherOrder(24), S, GcAlgorithm::MarkSweep, 1 << 12);
}

TEST(HeapVerify, RefCellsWithCycles) {
  runVerified(wl::refCells(120), GcStrategy::CompiledTagFree,
              GcAlgorithm::Copying, 1 << 12);
  runVerified(wl::refCells(120), GcStrategy::Tagged, GcAlgorithm::Copying,
              1 << 12);
}

TEST(HeapVerify, VariantRecordsAndFloats) {
  for (GcStrategy S : AllStrategies)
    runVerified(wl::variantRecords(64), S, GcAlgorithm::Copying, 1 << 12);
}

TEST(HeapVerify, GrowthPreservesGraph) {
  // Growth collections relocate into a bigger space mid-collection.
  runVerified(wl::listChurn(300, 2), GcStrategy::CompiledTagFree,
              GcAlgorithm::Copying, 512);
}

} // namespace
