//===- bench/bench_pause.cpp - E3: collection pause per strategy ---------===//
///
/// The experiment the paper explicitly leaves open (section 2.4): "What
/// the precise space/time trade-off is [between the compiled and the
/// interpreted method] remains to be seen from experiments". This bench
/// fixes the heap size so every strategy collects the same live data and
/// reports pause times and per-strategy work counters for the compiled
/// method, the interpreted method, Appel's scheme, and the tagged
/// baseline, under both copying and mark-sweep collection.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

const GcStrategy Strategies[] = {
    GcStrategy::Tagged,
    GcStrategy::CompiledTagFree,
    GcStrategy::InterpretedTagFree,
    GcStrategy::AppelTagFree,
};

void report(const char *Name, const std::string &Src, size_t HeapBytes,
            GcAlgorithm A) {
  jsonWorkload(Name);
  for (GcStrategy S : Strategies) {
    Stats St = runOnce(Src, S, A, HeapBytes);
    uint64_t N = St.get(StatId::GcCollections);
    tableCell(Name);
    tableCell(std::string(gcStrategyName(S)) +
              (A == GcAlgorithm::Copying ? "/copy" : "/ms"));
    tableCell(N);
    tableCell(N ? (double)St.get(StatId::GcPauseNsTotal) / (double)N / 1000.0
                : 0.0);
    tableCell((double)St.get(StatId::GcPauseNsP50) / 1000.0);
    tableCell((double)St.get(StatId::GcPauseNsP90) / 1000.0);
    tableCell((double)St.get(StatId::GcPauseNsP99) / 1000.0);
    tableCell((double)St.get(StatId::GcPauseNsMax) / 1000.0);
    tableCell(St.get(StatId::GcObjectsVisited));
    tableCell(St.get(StatId::GcCompiledActions) + St.get(StatId::GcDescSteps));
    tableEnd();
  }
}

/// Whole-run wall time: listChurn on a 16 KiB heap (copying under every
/// strategy, and compiled mark-sweep) and binaryTrees on the table's
/// 64 KiB heap.
void reportTimings() {
  const char *Short[] = {"tagged", "compiled", "interpreted", "appel"};
  auto Churn = compileOrDie(wl::listChurn(200, 64));
  auto Trees = compileOrDie(wl::binaryTrees(9, 8));
  std::vector<Timed> Rows;
  for (size_t I = 0; I < 4; ++I)
    Rows.push_back(bareTimed("listChurn 16KiB", std::string(Short[I]) + "/copy",
                             *Churn,
                             {.Strategy = Strategies[I], .HeapBytes = 1 << 14}));
  Rows.push_back(bareTimed("listChurn 16KiB", "compiled/ms", *Churn,
                           {.Algo = GcAlgorithm::MarkSweep,
                            .HeapBytes = 1 << 14}));
  for (size_t I = 0; I < 4; ++I)
    Rows.push_back(bareTimed("binaryTrees 64KiB",
                             std::string(Short[I]) + "/copy", *Trees,
                             {.Strategy = Strategies[I], .HeapBytes = 1 << 16}));
  timingTable("E3t: whole-run wall time by strategy", Rows);
}

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("pause", argc, argv);
  tableHeader("E3: collection pause by strategy",
              "fixed heap; avg/percentile/max pause in microseconds "
              "(p50/p90/p99 from the telemetry pause histogram); 'trace "
              "work' = compiled actions + descriptor steps",
              {"workload", "strategy", "collections", "avg pause us",
               "p50 us", "p90 us", "p99 us", "max pause us", "objs visited",
               "trace work"});
  report("listChurn", wl::listChurn(200, 64), 1 << 16, GcAlgorithm::Copying);
  report("listChurn", wl::listChurn(200, 64), 1 << 16,
         GcAlgorithm::MarkSweep);
  report("binaryTrees", wl::binaryTrees(9, 8), 1 << 16,
         GcAlgorithm::Copying);
  report("symbolicDiff", wl::symbolicDiff(4), 4096,
         GcAlgorithm::Copying);
  std::printf(
      "\nExpected shape: compiled < interpreted on pause (descriptor "
      "interpretation does\nstrictly more steps per object); Appel visits "
      "more (all slots assumed live);\ntagged visits every frame slot and "
      "every payload word by tag.\n");
  reportTimings();
  Sink.write();
  return 0;
}
