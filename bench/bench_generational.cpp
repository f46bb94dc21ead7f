//===- bench/bench_generational.cpp - E10: minor/major pause split -------===//
///
/// The generational payoff for a tag-free heap: with a retained live
/// structure that a full collection must recopy every time, minor
/// collections — which touch only nursery survivors plus the remembered
/// set — should pause far shorter than full copying collections at the
/// same total heap size. This bench fixes the heap, runs the
/// retained-live churn workload under full copying and under the
/// generational algorithm for every strategy, and reports the pause
/// percentile split, the write-barrier/remembered-set counters, and (with
/// --verify) the young-object census invariant
/// (allocated == promoted + young-dead + nursery-resident).
///
/// Acceptance line: generational minor p90 at least 3x below full
/// copying p90 for the compiled tag-free strategy.
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

constexpr size_t HeapBytes = 1 << 20;
constexpr size_t NurseryBytes = 1 << 13;

std::string churnSource() { return wl::generationalChurn(20000, 30, 4000); }

/// The pause table's generationalChurn runs, by strategy in enum order:
/// full copying, then generational. The acceptance line and the barrier
/// table read them, so each configuration is run and recorded once (a
/// repeated row key fails tools/bench_diff.py).
Stats CopyStats[4], GenStats[4];

void reportPauses() {
  jsonWorkload("generationalChurn");
  tableHeader("E10: minor/major pause split at equal total heap",
              "retained-live churn; pauses in microseconds from the "
              "telemetry histograms; copying rows are full collections, "
              "generational rows split minor/major",
              {"strategy/algo", "collections", "minors", "majors",
               "p50 us", "p90 us", "p99 us", "major p90 us"});
  for (size_t I = 0; I < 4; ++I) {
    GcStrategy S = Strategies[I];
    CopyStats[I] = runOnce(churnSource(), S, GcAlgorithm::Copying, HeapBytes);
    const Stats &St = CopyStats[I];
    tableCell(std::string(gcStrategyName(S)) + "/copy");
    tableCell(St.get(StatId::GcCollections));
    tableCell(uint64_t(0));
    tableCell(uint64_t(0));
    tableCell((double)St.get(StatId::GcPauseNsP50) / 1000.0);
    tableCell((double)St.get(StatId::GcPauseNsP90) / 1000.0);
    tableCell((double)St.get(StatId::GcPauseNsP99) / 1000.0);
    tableCell(0.0);
    tableEnd();
  }
  for (size_t I = 0; I < 4; ++I) {
    GcStrategy S = Strategies[I];
    GenStats[I] = runOnce(churnSource(), S, GcAlgorithm::Generational,
                          HeapBytes, false, {}, NurseryBytes);
    const Stats &St = GenStats[I];
    tableCell(std::string(gcStrategyName(S)) + "/gen");
    tableCell(St.get(StatId::GcCollections));
    tableCell(St.get(StatId::GcMinorCollections));
    tableCell(St.get(StatId::GcMajorCollections));
    tableCell((double)St.get("gc.minor_pause_ns_p50") / 1000.0);
    tableCell((double)St.get("gc.minor_pause_ns_p90") / 1000.0);
    tableCell((double)St.get("gc.minor_pause_ns_p99") / 1000.0);
    tableCell((double)St.get("gc.major_pause_ns_p90") / 1000.0);
    tableEnd();
  }

  // The acceptance criterion, stated against the compiled strategy.
  uint64_t MinorP90 = GenStats[1].get("gc.minor_pause_ns_p90");
  uint64_t CopyP90 = CopyStats[1].get(StatId::GcPauseNsP90);
  double Speedup = MinorP90 ? (double)CopyP90 / (double)MinorP90 : 0.0;
  std::printf("\ncompiled minor p90 = %.1f us, full-copying p90 = %.1f us, "
              "ratio = %.1fx (criterion >= 3x): %s\n",
              (double)MinorP90 / 1000.0, (double)CopyP90 / 1000.0, Speedup,
              Speedup >= 3.0 ? "PASS" : "FAIL");
  if (Speedup < 3.0)
    std::fprintf(stderr, "warning: minor-pause speedup below 3x\n");
}

void barrierRow(const char *Name, GcStrategy S, const Stats &St) {
  uint64_t Ops = St.get(StatId::GcBarrierOps);
  uint64_t Entries = St.get(StatId::GcRemsetEntries);
  tableCell(Name);
  tableCell(gcStrategyName(S));
  tableCell(Ops);
  tableCell(Entries);
  tableCell(Entries ? (double)Ops / (double)Entries : 0.0);
  tableCell(St.get(StatId::GcPromotedWords));
  tableCell(St.get(StatId::GcMinorCollections));
  tableCell(St.get(StatId::GcMajorCollections));
  tableEnd();
  if (!Ops)
    std::fprintf(stderr, "warning: no barrier ops under %s\n",
                 gcStrategyName(S));
}

void reportBarriers() {
  tableHeader("E10b: write barrier and remembered set",
              "mutation workloads under the generational algorithm; "
              "'dedup' = barrier executions per recorded remset entry",
              {"workload", "strategy", "barrier ops", "remset entries",
               "dedup", "promoted words", "minors", "majors"});
  for (size_t I = 0; I < 4; ++I)
    barrierRow("generationalChurn", Strategies[I], GenStats[I]);
  jsonWorkload("refCells");
  for (GcStrategy S : Strategies)
    barrierRow("refCells", S,
               runOnce(wl::refCells(2000), S, GcAlgorithm::Generational,
                       HeapBytes, false, {}, NurseryBytes));
}

/// --verify: rerun the workloads with after-GC graph verification on and
/// check the young-object census invariant. Aborts on any violation —
/// a bench that measures a broken heap is worse than no bench.
void verifyCensus() {
  std::printf("\n=== E10v: census invariant under --verify ===\n");
  const std::string Sources[] = {churnSource(), wl::refCells(2000)};
  for (const std::string &Src : Sources) {
    for (GcStrategy S : Strategies) {
      CliOptions O;
      O.Strategy = S;
      O.Algo = GcAlgorithm::Generational;
      O.HeapBytes = HeapBytes;
      O.NurseryBytes = NurseryBytes;
      O.Verify = true;
      auto P = compileOrDie(Src);
      auto Run = sessionRun(*P, O);
      const Stats &St = Run->stats();
      uint64_t Allocated = St.get(StatId::HeapObjectsAllocated);
      uint64_t Promoted = St.get("gc.promoted_objects");
      uint64_t Dead = St.get("gc.young_dead_objects");
      uint64_t Resident = St.get("gc.nursery_resident_objects");
      uint64_t Violations = St.get(StatId::GcVerifyViolations);
      std::printf("%-22s allocated=%llu promoted=%llu dead=%llu "
                  "resident=%llu violations=%llu\n",
                  gcStrategyName(S), (unsigned long long)Allocated,
                  (unsigned long long)Promoted, (unsigned long long)Dead,
                  (unsigned long long)Resident,
                  (unsigned long long)Violations);
      if (Allocated != Promoted + Dead + Resident || Violations) {
        std::fprintf(stderr, "census invariant violated under %s\n",
                     gcStrategyName(S));
        std::abort();
      }
    }
  }
  std::printf("census ok\n");
}

/// Wall time of the compiled strategy on the churn workload under each
/// algorithm at the same 1 MiB heap, and with a 4x larger nursery.
void reportTimings() {
  auto P = compileOrDie(churnSource());
  auto Gen = [](size_t Nursery) {
    return BareRun{.Algo = GcAlgorithm::Generational,
                   .HeapBytes = HeapBytes,
                   .NurseryBytes = Nursery};
  };
  timingTable(
      "E10t: generationalChurn wall time (compiled tag-free, 1 MiB heap)",
      {bareTimed("generationalChurn", "copying", *P, {.HeapBytes = HeapBytes}),
       bareTimed("generationalChurn", "marksweep", *P,
                 {.Algo = GcAlgorithm::MarkSweep, .HeapBytes = HeapBytes}),
       bareTimed("generationalChurn", "generational 8KiB", *P,
                 Gen(NurseryBytes)),
       bareTimed("generationalChurn", "generational 32KiB", *P,
                 Gen(size_t(1) << 15))});
}

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("generational", argc, argv, {"--verify"});
  reportPauses();
  reportBarriers();
  if (Sink.flag("--verify"))
    verifyCensus();
  std::printf(
      "\nExpected shape: minor pauses track nursery survivors, not the "
      "retained list,\nso the generational minor p90 sits well below the "
      "full-copying p90; majors are\nrare and cost about what a full "
      "copying collection costs.\n");
  reportTimings();
  Sink.write();
  return 0;
}
