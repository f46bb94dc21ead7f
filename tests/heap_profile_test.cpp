//===- tests/heap_profile_test.cpp - Heap profiler tests ------------------===//
///
/// Covers the tag-free heap profiler: the snapshot invariant (per-kind
/// bytes sum to the bytes the collection covered, per-site tallies sum to
/// the same totals) under post-GC verification for every strategy and
/// algorithm, visit totals against the collector's own counters, site
/// attribution surviving semispace flips and promotion, the generational
/// nursery/tenured split, retainers read off the typed heap-graph
/// capture, and the snapshot JSON.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "support/HeapGraph.h"
#include "support/HeapProfile.h"
#include "workloads/Programs.h"

#include <algorithm>
#include <functional>
#include <sstream>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

/// Runs \p Source with the profiler attached as --heap-profile attaches
/// it (its heap graph without a destination), optionally with post-GC
/// verification and retainers, under stress so collections are frequent.
/// \p BeforeRun sees the opened session just before the program starts.
SessionRun
runProfiled(const std::string &Source, GcStrategy S,
            GcAlgorithm A = GcAlgorithm::Copying, size_t HeapBytes = 1 << 14,
            bool Verify = false, unsigned Retainers = 0,
            size_t NurseryBytes = 0,
            const std::function<void(Session &)> &BeforeRun = nullptr) {
  CliOptions O = sessionOptions(S, A, HeapBytes, NurseryBytes);
  O.Stress = true;
  O.Verify = Verify;
  O.HeapProfile = true;
  O.Retainers = Retainers;
  return runSession(Source, O, BeforeRun);
}

uint64_t siteObjects(const HeapProfiler::Snapshot &Snap) {
  uint64_t N = 0;
  for (const HeapProfiler::Tally &T : Snap.BySite)
    N += T.Objects;
  return N;
}

uint64_t siteWords(const HeapProfiler::Snapshot &Snap) {
  uint64_t N = 0;
  for (const HeapProfiler::Tally &T : Snap.BySite)
    N += T.Words;
  return N;
}

void expectSnapshotInvariant(const HeapProfiler &Prof, const char *Label) {
  const HeapProfiler::Snapshot &Snap = Prof.snapshot();
  ASSERT_TRUE(Snap.Valid) << Label << ": no collection ran";
  EXPECT_EQ(Snap.kindBytes(), Snap.CoveredBytes) << Label;
  EXPECT_EQ(Snap.Words * sizeof(Word), Snap.CoveredBytes) << Label;
  ASSERT_EQ(Snap.BySite.size(), Prof.numSites() + 1) << Label;
  EXPECT_EQ(siteObjects(Snap), Snap.Objects) << Label;
  EXPECT_EQ(siteWords(Snap), Snap.Words) << Label;
  // Every allocation goes through a lowered site, so nothing should land
  // in the unknown bucket.
  EXPECT_EQ(Snap.BySite.back().Objects, 0u) << Label << ": unknown bucket";
}

TEST(HeapProfile, SnapshotInvariantEveryStrategyAndAlgorithmUnderVerify) {
  // The core guarantee: after any collection, attributing every visited
  // object to a reconstructed kind and an allocation site loses nothing —
  // the per-kind bytes are exactly the bytes the collection covered, the
  // per-site tallies are exactly the visit totals — and the verify pass
  // (which re-runs the tracers) does not double-count.
  for (GcStrategy S : AllStrategies)
    for (GcAlgorithm A : AllAlgorithms) {
      std::string Label = std::string(gcStrategyName(S)) + "/" +
                          gcAlgorithmName(A);
      auto R =
          runProfiled(wl::listChurn(30, 10), S, A, 1 << 14,
                      /*Verify=*/true, /*Retainers=*/0,
                      A == GcAlgorithm::Generational ? 1 << 12 : 0);
      ASSERT_TRUE(R) << Label;
      EXPECT_EQ(R.stats().get(StatId::GcVerifyViolations), 0u) << Label;
      EXPECT_GT(R.stats().get(StatId::GcCollections), 0u) << Label;
      expectSnapshotInvariant(R.S->profiler(), Label.c_str());
    }
}

TEST(HeapProfile, VisitTotalsMatchGcCounters) {
  // Without verification, the profiler's first-visit hook fires exactly
  // when the collector's gc.objects_visited counter increments.
  for (GcStrategy S : AllStrategies) {
    auto R = runProfiled(wl::listChurn(30, 10), S);
    ASSERT_TRUE(R);
    EXPECT_EQ(R.S->profiler().visitObjectsTotal(),
              R.stats().get(StatId::GcObjectsVisited))
        << gcStrategyName(S);
  }
}

TEST(HeapProfile, VerifyPassIsExcludedFromProfile) {
  // The verify pass re-traces the heap, inflating gc.objects_visited past
  // the profiler's totals — the profiler is paused for it, so snapshot
  // tallies stay single-counted.
  auto R = runProfiled(wl::listChurn(30, 10), GcStrategy::CompiledTagFree,
                       GcAlgorithm::Copying, 1 << 14, /*Verify=*/true);
  ASSERT_TRUE(R);
  EXPECT_LT(R.S->profiler().visitObjectsTotal(),
            R.stats().get(StatId::GcObjectsVisited));
  expectSnapshotInvariant(R.S->profiler(), "verify-paused");
}

TEST(HeapProfile, SiteAttributionSurvivesPromotion) {
  // Generational run with a long-lived retained list: objects move
  // nursery -> survivor -> tenured, and across a major the whole tenured
  // space compacts. The side table must follow every move — if it lost an
  // object, the unknown bucket would catch its next visit.
  auto R = runProfiled(wl::generationalChurn(60, 10, 120),
                       GcStrategy::CompiledTagFree,
                       GcAlgorithm::Generational, 1 << 16,
                       /*Verify=*/true, /*Retainers=*/0,
                       /*NurseryBytes=*/1 << 12);
  ASSERT_TRUE(R);
  expectSnapshotInvariant(R.S->profiler(), "generational");
  const HeapProfiler::Snapshot &Snap = R.S->profiler().snapshot();
  EXPECT_TRUE(Snap.HasGenSplit);
  EXPECT_EQ(Snap.Nursery.Objects + Snap.Tenured.Objects, Snap.Objects);
  EXPECT_EQ(Snap.Nursery.Words + Snap.Tenured.Words, Snap.Words);
  // The same invariant held for the tagged model's generational heap in
  // the all-combinations test; here additionally check attribution depth:
  // allocation counts were recorded for at least one real site.
  EXPECT_GT(R.S->profiler().allocTotal(), 0u);
  bool AnySite = false;
  for (uint32_t I = 0; I < R.S->profiler().numSites(); ++I)
    AnySite = AnySite || R.S->profiler().allocCount(I) > 0;
  EXPECT_TRUE(AnySite);
}

/// Checks the retainer rows of every collection's snapshot as the
/// collection closes (the next collection overwrites the snapshot).
struct RetainerChecker : GcEventSink {
  const HeapProfiler *Prof = nullptr;
  std::string Label;
  uint64_t FullChecked = 0; ///< Full/major snapshots with retainer rows.
  uint64_t MajorChecked = 0;

  void onGcEvent(const GcEvent &E) override {
    const HeapProfiler::Snapshot &Snap = Prof->snapshot();
    ASSERT_TRUE(Snap.Valid) << Label;
    ASSERT_EQ(Snap.Kind, E.Kind) << Label;
    if (E.Kind == GcEventKind::Minor) {
      EXPECT_FALSE(Snap.RetainersComputed) << Label;
      return;
    }
    ASSERT_TRUE(Snap.RetainersComputed) << Label;
    EXPECT_LE(Snap.Retainers.size(), 5u) << Label;
    if (Snap.Retainers.empty())
      return;
    ++FullChecked;
    MajorChecked += E.Kind == GcEventKind::Major;
    uint64_t Prev = ~0ull;
    for (const RetainerInfo &RI : Snap.Retainers) {
      EXPECT_GT(RI.SelfBytes, 0u) << Label;
      EXPECT_GE(RI.RetainedBytes, RI.SelfBytes) << Label;
      EXPECT_LE(RI.RetainedBytes, Prev) << Label; // Ranked by size.
      // No node retains more than the whole covered heap.
      EXPECT_LE(RI.RetainedBytes, Snap.CoveredBytes) << Label;
      EXPECT_FALSE(RI.Path.empty()) << Label;
      EXPECT_NE(RI.Kind, CensusKind::NumKinds) << Label;
      Prev = RI.RetainedBytes;
    }
  }
};

TEST(HeapProfile, RetentionReportsDominators) {
  // generationalChurn retains a list for the whole run. Every strategy
  // under --verify (whose re-trace must not leak edges into the
  // capture): under copying and mark-sweep every collection is a full
  // one and reports retainers; under generational the majors do and the
  // minors do not.
  for (GcStrategy S : AllStrategies)
    for (GcAlgorithm A : AllAlgorithms) {
      std::string Label = std::string(gcStrategyName(S)) + "/" +
                          gcAlgorithmName(A);
      const bool Gen = A == GcAlgorithm::Generational;
      RetainerChecker Check;
      Check.Label = Label;
      auto Run = runProfiled(
          wl::generationalChurn(Gen ? 600 : 100, 10, 30), S, A, 1 << 14,
          /*Verify=*/true, /*Retainers=*/5, Gen ? 1 << 12 : 0,
          [&Check](Session &Sn) {
            Check.Prof = &Sn.profiler();
            Sn.collector().telemetry().setEventSink(&Check);
          });
      ASSERT_TRUE(Run) << Label;
      EXPECT_EQ(Run.stats().get(StatId::GcVerifyViolations), 0u) << Label;
      EXPECT_GT(Check.FullChecked, 0u) << Label;
      if (Gen) {
        EXPECT_GT(Run.stats().get(StatId::GcMajorCollections), 0u) << Label;
        EXPECT_GT(Check.MajorChecked, 0u) << Label;
      }
    }
}

TEST(HeapProfile, MinorCollectionsSkipRetention) {
  // A minor collection's trace covers the young generation only;
  // dominator math over it would misattribute, so the graph capture
  // behind the retainers skips it.
  auto R = runProfiled(wl::generationalChurn(60, 10, 120),
                       GcStrategy::CompiledTagFree,
                       GcAlgorithm::Generational, 1 << 16,
                       /*Verify=*/false, /*Retainers=*/5,
                       /*NurseryBytes=*/1 << 12);
  ASSERT_TRUE(R);
  const HeapProfiler::Snapshot &Snap = R.S->profiler().snapshot();
  ASSERT_TRUE(Snap.Valid);
  if (Snap.Kind == GcEventKind::Minor)
    EXPECT_FALSE(Snap.RetainersComputed);
  else
    EXPECT_TRUE(Snap.RetainersComputed);
}

TEST(HeapProfile, RetainersFollowTypedEdgesNotPayloadWords) {
  // Three objects in a test buffer, driven through the profiler hooks the
  // way a non-moving trace drives them. A's traced field 0 holds C, C's
  // traced field 0 holds B, and A's untraced int field 1 happens to equal
  // B's address. Only traced references are edges: root -> A -> C -> B,
  // so C dominates B and retains C + B. A payload-word scan would add an
  // A -> B edge and credit B to A instead.
  alignas(sizeof(Word)) Word Buf[5] = {};
  const Word A = (Word)&Buf[0], C = (Word)&Buf[2], B = (Word)&Buf[3];
  Buf[0] = C; // A.0: traced.
  Buf[1] = B; // A.1: an int that equals B's address.
  Buf[2] = B; // C.0: traced.
  Buf[3] = 7; // B: two ints.
  Buf[4] = 9;

  Word Frame[4] = {};
  Frame[3] = A; // main's slot 3 roots A.

  HeapProfiler Prof;
  HeapGraph Graph;
  Prof.setEnabled(true);
  Prof.setFunctionNames({"main"});
  Prof.setHeapGraph(&Graph);
  Prof.setRetainers(5);
  Prof.beginCollection(GcEventKind::Full, nullptr);
  ASSERT_EQ(Prof.capture(), &Graph);
  Prof.recordVisit(A, A, CensusKind::Tuple, 2);
  Prof.recordVisit(C, C, CensusKind::Ref, 1);
  Prof.recordVisit(B, B, CensusKind::Tuple, 2);
  Graph.recordEdge(A, 0, C);
  Graph.recordEdge(C, 0, B);
  Graph.recordRoot(&Frame[3], /*Func=*/0, /*Slot=*/3);
  Prof.finishCollection(5 * sizeof(Word), nullptr);

  const HeapProfiler::Snapshot &Snap = Prof.snapshot();
  ASSERT_TRUE(Snap.RetainersComputed);
  ASSERT_EQ(Snap.Retainers.size(), 3u);
  auto Row = [&](Word Addr) -> const RetainerInfo & {
    for (const RetainerInfo &RI : Snap.Retainers)
      if (RI.Addr == Addr)
        return RI;
    ADD_FAILURE() << "no retainer row for " << Addr;
    return Snap.Retainers.front();
  };
  EXPECT_EQ(Row(A).RetainedBytes, 5 * sizeof(Word));
  EXPECT_EQ(Row(C).SelfBytes, 1 * sizeof(Word));
  EXPECT_EQ(Row(C).RetainedBytes, 3 * sizeof(Word));
  EXPECT_EQ(Row(B).RetainedBytes, 2 * sizeof(Word));
  // Ranked A, C, B; C's sample path runs from the root slot through A.
  EXPECT_EQ(Snap.Retainers[1].Addr, C);
  EXPECT_EQ(Row(C).Path,
            (std::vector<std::string>{"main:slot3", "tuple", "ref"}));
}

TEST(HeapProfile, SnapshotJsonContainsSchemaAndTallies) {
  auto R = runProfiled(wl::listChurn(30, 10), GcStrategy::CompiledTagFree,
                       GcAlgorithm::Copying, 1 << 14, /*Verify=*/false,
                       /*Retainers=*/3);
  ASSERT_TRUE(R);
  R.S->profiler().setLabel("test/copying");
  std::ostringstream OS;
  R.S->profiler().writeSnapshotJson(OS);
  std::string J = OS.str();
  EXPECT_NE(J.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"tool\": \"tfgc-heap-profile\""), std::string::npos);
  EXPECT_NE(J.find("\"label\": \"test/copying\""), std::string::npos);
  EXPECT_NE(J.find("\"valid\": true"), std::string::npos);
  EXPECT_NE(J.find("\"by_kind\""), std::string::npos);
  EXPECT_NE(J.find("\"by_site\""), std::string::npos);
  EXPECT_NE(J.find("\"alloc_sites\""), std::string::npos);
  EXPECT_NE(J.find("\"retainers\""), std::string::npos);
  // Braces and brackets balance (cheap structural sanity; the Python
  // reporter in tools/heap_report.py parses the real thing in CI).
  EXPECT_EQ(std::count(J.begin(), J.end(), '{'),
            std::count(J.begin(), J.end(), '}'));
  EXPECT_EQ(std::count(J.begin(), J.end(), '['),
            std::count(J.begin(), J.end(), ']'));
}

TEST(HeapProfile, DisabledProfilerIsInert) {
  // Without --heap-profile the collector's hook pointer is null and a
  // default-constructed profiler records nothing.
  HeapProfiler Prof;
  Prof.recordAlloc(0, 0x1000);
  Prof.recordVisit(0x1000, 0x2000, CensusKind::Tuple, 2);
  EXPECT_EQ(Prof.allocTotal(), 0u);
  EXPECT_EQ(Prof.visitObjectsTotal(), 0u);
  EXPECT_FALSE(Prof.snapshot().Valid);
}

} // namespace
