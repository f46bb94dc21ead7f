//===- bench/bench_heap_space.cpp - E2: heap space per object ------------===//
///
/// Paper claim (section 1, "More efficient use of heap space"): removing
/// tags saves heap space — every object drops its header word, and floats
/// live unboxed. This bench runs identical workloads under both models
/// and reports total bytes allocated, objects allocated, bytes/object,
/// and peak residency.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

void report(const char *Name, const std::string &Src, size_t HeapBytes) {
  jsonWorkload(Name);
  for (GcStrategy S : {GcStrategy::Tagged, GcStrategy::CompiledTagFree}) {
    Stats St = runOnce(Src, S, GcAlgorithm::Copying, HeapBytes);
    uint64_t Bytes = St.get(StatId::HeapBytesAllocatedTotal);
    uint64_t Objects = St.get(StatId::HeapObjectsAllocated);
    tableCell(Name);
    tableCell(S == GcStrategy::Tagged ? "tagged" : "tag-free");
    tableCell(human(Bytes));
    tableCell(Objects);
    tableCell(Objects ? (double)Bytes / (double)Objects : 0.0);
    tableCell(human(St.get(StatId::HeapUsedBytes)));
    tableEnd();
  }
}

/// Wall time of listChurn on a 32 KiB semispace, where the tagged
/// model's larger objects mean more collections.
void reportTimings() {
  auto P = compileOrDie(wl::listChurn(128, 32));
  std::vector<Timed> Rows;
  for (GcStrategy S : {GcStrategy::Tagged, GcStrategy::CompiledTagFree})
    Rows.push_back(bareTimed("listChurn(128,32)", gcStrategyName(S), *P,
                             {.Strategy = S, .HeapBytes = 1 << 15}));
  timingTable("E2t: wall time at a 32 KiB semispace", Rows);
}

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("heap_space", argc, argv);
  tableHeader("E2: heap space, tagged vs tag-free",
              "same programs, same allocations; tagged adds one header "
              "word per object and boxes floats",
              {"workload", "model", "bytes alloc'd", "objects", "bytes/obj",
               "final residency"});
  report("listChurn", wl::listChurn(128, 16), 1 << 16);
  report("binaryTrees", wl::binaryTrees(8, 4), 1 << 18);
  report("floatKernel", wl::floatKernel(64, 32), 1 << 16);
  report("variantRecords", wl::variantRecords(300), 1 << 16);
  std::printf("\nExpected shape: tag-free allocates strictly fewer bytes "
              "for the same object count;\nthe gap is one word per object "
              "plus a whole box per float (floatKernel).\n"
              "With identical semispace sizes, smaller objects also mean "
              "fewer collections (timings below).\n");
  reportTimings();
  Sink.write();
  return 0;
}
