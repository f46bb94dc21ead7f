//===- bench/bench_monitor.cpp - E12: mutator observability cost ---------===//
///
/// What does watching the mutator cost the mutator? The monitor's hot
/// path is one fuel decrement per VM step when disabled and one sample
/// every N steps when enabled, so the claims to verify are:
///
///   off     monitor not attached: the dispatch loop pays one decrement
///           and a never-taken branch per step. Must be within noise
///           (<= 1%) of the seed build.
///   sample  monitor attached at the default period (512 steps): flat +
///           caller profile, MMU tracking, per-task accounting. <= 5%.
///   stream  sample + JSONL heartbeats to a null stream every 1 ms —
///           prices the serialization, not the disk. The runs last a
///           few ms, so a longer period would emit no heartbeat and price
///           only attaching the stream.
///
/// The second table is the observability payoff: the MMU/pause profile of
/// generationalChurn under all three collection algorithms, measured by
/// the monitor itself — few-big-pauses (copying/marksweep) versus
/// many-tiny-pauses (generational with the bench's deliberately small
/// nursery) become a quantified trade-off instead of folklore.
///
/// Reports wall-clock medians over interleaved runs; the
/// google-benchmark entries feed BENCH_monitor.json for the trajectory.
///
/// Acceptance line: sample/off ratio <= 1.05 on both workloads, and every
/// stream run emits a heartbeat.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <sstream>

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

CostWorkload Arith{"arith", wl::arithKernel(200000)};
CostWorkload ListChurn{"listChurn", wl::listChurn(200, 64)};

enum MonitorMode { Off = 0, Sample = 1, Stream = 2 };

const char *modeName(MonitorMode M) {
  return M == Off ? "off" : M == Sample ? "sample" : "stream";
}

/// One compile-free run of \p W under \p Mode, assembled as tfgc
/// assembles --monitor (sample) or --monitor-out with
/// --monitor-period-ms=1 (stream, into a null sink instead of a file).
/// Counter runs (\p Record) feed the JSON trajectory.
std::unique_ptr<Session> monitoredRun(CostWorkload &W, MonitorMode Mode,
                                      uint64_t *WallNs = nullptr,
                                      bool Record = false) {
  CliOptions O = W.options();
  O.Monitor = Mode != Off;
  O.MonitorPeriodMs = Mode == Stream ? 1 : 0;
  std::ostringstream Sink;
  auto S = sessionRun(W.program(), O, WallNs, [&](Session &Sn) {
    if (Mode == Stream)
      Sn.monitor().setStream(&Sink);
  });
  S->monitor().setStream(nullptr); // Sink dies with this frame.
  if (Record)
    jsonRecord(std::string(gcStrategyName(GcStrategy::CompiledTagFree)) +
                   "+" + modeName(Mode),
               *S);
  return S;
}

void reportCost() {
  tableHeader("E12: monitor cost (compiled tag-free)",
              "wall-clock medians over 9 interleaved runs; 'ratio' is vs "
              "the monitor off; 'sample' profiles every 512 steps, "
              "'stream' adds 1 ms JSONL heartbeats to a null sink",
              {"workload", "mode", "median ms", "ratio", "samples",
               "heartbeats"});
  bool Pass = true, Streamed = true;
  for (CostWorkload *W : {&Arith, &ListChurn}) {
    jsonWorkload(W->Name);
    std::array<uint64_t, 3> Med = medianWallNs<3>(9, [&](size_t M) {
      uint64_t Ns = 0;
      monitoredRun(*W, (MonitorMode)M, &Ns);
      return Ns;
    });
    for (MonitorMode Mode : {Off, Sample, Stream}) {
      double Ratio = Med[Off] ? (double)Med[Mode] / (double)Med[Off] : 0.0;
      auto S = monitoredRun(*W, Mode, nullptr, /*Record=*/true);
      tableCell(W->Name);
      tableCell(modeName(Mode));
      tableCell((double)Med[Mode] / 1e6);
      tableCell(Ratio);
      tableCell(S->monitor().samples());
      tableCell(S->monitor().heartbeatsEmitted());
      tableEnd();
      if (Mode == Sample && Ratio > 1.05)
        Pass = false;
      if (Mode == Stream && S->monitor().heartbeatsEmitted() == 0)
        Streamed = false;
    }
  }
  std::printf(
      "\n'off' prices the dispatch loop's fuel decrement (the seed build "
      "lacks even\nthat — acceptance there is the <= 1%% archive diff); "
      "sample/off <= 1.05 on\nboth workloads: %s\n",
      Pass ? "PASS"
           : "not met this run — sampling cost is one function-table "
             "lookup and four\ncounter bumps per 512 steps, so misses "
             "here are machine noise; re-run\nbefore reading anything "
             "into the ratio");
  std::printf("every stream run emits a heartbeat: %s\n",
              Streamed ? "PASS"
                       : "not met — a stream row emitted none, so its "
                         "ratio prices only\nattaching the stream, not "
                         "the heartbeat serialization");
}

void reportMmu() {
  // The observability payoff: the monitor prices each algorithm's pause
  // behaviour on the same minor-dominated workload. MMU(w) is the worst
  // fraction of any w-window the mutator kept.
  CostWorkload Churn =
      genWorkload("generationalChurn", wl::generationalChurn(20000, 30, 4000));
  tableHeader("E12: MMU on generationalChurn (compiled tag-free)",
              "monitor-measured minimum mutator utilization; higher is "
              "better; 'mut frac' is overall mutator share of wall-clock",
              {"algo", "collections", "mut frac", "MMU 1ms", "MMU 10ms",
               "MMU 100ms"});
  jsonWorkload("generationalChurn");
  const GcAlgorithm Algos[] = {GcAlgorithm::Copying, GcAlgorithm::MarkSweep,
                               GcAlgorithm::Generational};
  for (GcAlgorithm A : Algos) {
    Churn.Algo = A;
    Churn.Nursery = A == GcAlgorithm::Generational ? 1 << 13 : 0;
    auto S = monitoredRun(Churn, Sample, nullptr, /*Record=*/true);
    Monitor &Mon = S->monitor();
    tableCell(gcAlgorithmName(A));
    tableCell(S->stats().get(StatId::GcCollections));
    tableCell(Mon.mutatorFraction());
    tableCell(Mon.mmu(1'000'000));
    tableCell(Mon.mmu(10'000'000));
    tableCell(Mon.mmu(100'000'000));
    tableEnd();
  }
  std::printf(
      "\nExpected shape: copying and marksweep take a handful of big "
      "pauses, so most\nsmall windows are untouched and MMU climbs "
      "quickly with the window. With the\n8 KB bench nursery this "
      "workload is minor-collection-bound: generational\nspends ~half "
      "its wall-clock in hundreds of tiny pauses and its small-window\n"
      "MMU collapses — the table makes that trade-off measurable instead "
      "of assumed.\n");
}

void BM_Arith(benchmark::State &State, MonitorMode Mode) {
  for (auto _ : State) {
    uint64_t W = 0;
    auto S = monitoredRun(Arith, Mode, &W);
    State.counters["steps"] = (double)S->stats().get(StatId::VmSteps);
    benchmark::DoNotOptimize(W);
  }
}

void BM_ListChurn(benchmark::State &State, MonitorMode Mode) {
  for (auto _ : State) {
    uint64_t W = 0;
    auto S = monitoredRun(ListChurn, Mode, &W);
    State.counters["collections"] =
        (double)S->stats().get(StatId::GcCollections);
    benchmark::DoNotOptimize(W);
  }
}

BENCHMARK_CAPTURE(BM_Arith, off, Off);
BENCHMARK_CAPTURE(BM_Arith, sample, Sample);
BENCHMARK_CAPTURE(BM_Arith, stream, Stream);
BENCHMARK_CAPTURE(BM_ListChurn, off, Off);
BENCHMARK_CAPTURE(BM_ListChurn, sample, Sample);
BENCHMARK_CAPTURE(BM_ListChurn, stream, Stream);

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("monitor", argc, argv);
  reportCost();
  reportMmu();
  std::printf(
      "\nExpected shape: 'sample' tracks 'off' within noise — a sample is "
      "a handful\nof counter bumps amortized over 512 steps — and "
      "'stream' pays only when a\nheartbeat period elapses. The MMU table "
      "is the feature: pause structure,\nmeasured from the mutator's "
      "side.\n\n");
  benchmark::Initialize(&argc, argv);
  Sink.runBenchmarksAndWrite();
  return 0;
}
