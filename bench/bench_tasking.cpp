//===- bench/bench_tasking.cpp - E8/E15: tasking policies + real threads -===//
///
/// E8 — paper section 4: tasks suspend for collection only at procedure
/// calls. Testing only inside allocation routines is cheap but lets
/// allocation-free tasks run long after the heap is exhausted; testing at
/// every call stops the world fast but costs a test per call — unless the
/// Rgc register folds the test into the computed jump, getting both. This
/// bench runs workers plus a compute-heavy spinner under all three
/// policies.
///
/// E15 — the same N-tasks-one-heap model on real OS threads: GC-bound
/// generational churn at 1/2/4/8 mutator threads (1 = the cooperative
/// scheduler, the semantics reference). Reports collection throughput
/// (bytes traced over total pause time — the parallel tracer's win) and
/// the worst per-task p99 request-to-park stop delay (the safepoint
/// handshake's cost). One work unit per thread, so allocation pressure
/// scales with the thread count.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "sched/ThreadedTasking.h"
#include "tasking/Tasking.h"

#include <thread>

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

struct TaskRun {
  Stats St;
  bool Ok = false;
};

TaskRun runTasks(SuspendChecks Policy, int Workers, int Iters,
                 int SpinRounds, int SpinN, size_t HeapBytes) {
  TaskRun Out;
  // The every-call policies suspend tasks at arbitrary call sites, so
  // compile tasking-safe: gc_words everywhere and call arguments traced
  // (see DESIGN.md).
  CompileOptions O;
  O.TaskingSafe = true;
  auto P = compileOrDie(wl::taskWorkerAndSpinner(), O);
  std::string Err;
  auto Col = P->makeCollector(GcStrategy::CompiledTagFree,
                              GcAlgorithm::Copying, HeapBytes, Out.St, &Err);
  if (!Col)
    std::abort();
  TaskingOptions TO;
  TO.Policy = Policy;
  TaskingRuntime Rt(P->Prog, P->Image, *P->Types, *Col, TO);
  FuncId Worker = findFunction(P->Prog, "worker");
  FuncId Spinner = findFunction(P->Prog, "spinner");
  for (int64_t SeedIdx = 1; SeedIdx <= Workers; ++SeedIdx)
    Rt.spawnInt(Worker, {SeedIdx, Iters});
  if (SpinRounds > 0)
    Rt.spawnInt(Spinner, {SpinRounds, SpinN});
  Out.Ok = Rt.runAll();
  return Out;
}

const char *policyName(SuspendChecks P) {
  switch (P) {
  case SuspendChecks::AtAllocation: return "alloc-only";
  case SuspendChecks::AtEveryCall:  return "every-call";
  case SuspendChecks::RgcRegister:  return "rgc-register";
  default:                          return "?";
  }
}

void report(SuspendChecks Policy) {
  TaskRun R = runTasks(Policy, 3, 60, 60, 2500, 1 << 13);
  if (!R.Ok)
    std::abort();
  uint64_t Stops = R.St.get(StatId::TaskWorldStops);
  tableCell(policyName(Policy));
  tableCell(R.St.get(StatId::TaskSuspendChecks));
  tableCell(Stops);
  tableCell(Stops ? (double)R.St.get(StatId::TaskStepsToWorldStopTotal) /
                        (double)Stops
                  : 0.0);
  tableCell(R.St.get(StatId::TaskStepsToWorldStopMax));
  tableCell(R.St.get(StatId::TaskContextSwitches));
  tableEnd();
}

//===----------------------------------------------------------------------===//
// E15: GC-bound generational churn on real threads
//===----------------------------------------------------------------------===//

struct ThreadedRun {
  Stats St;
  bool Ok = false;
};

/// One churn task per thread on a shared generational heap small enough
/// that collection dominates. Threads==1 runs the cooperative scheduler
/// (same logical program, no OS threads) as the baseline row.
ThreadedRun runThreadedChurn(unsigned Threads, int Iters, size_t HeapBytes) {
  ThreadedRun Out;
  CompileOptions O;
  O.TaskingSafe = true;
  auto P = compileOrDie(wl::taskWorker(), O);
  std::string Err;
  auto Col =
      P->makeCollector(GcStrategy::CompiledTagFree, GcAlgorithm::Generational,
                       HeapBytes, Out.St, &Err);
  if (!Col)
    std::abort();
  TaskingOptions TO;
  TO.Policy = SuspendChecks::AtEveryCall;
  FuncId Worker = findFunction(P->Prog, "worker");
  auto Spawn = [&](auto &Rt) {
    for (unsigned I = 0; I < Threads; ++I)
      Rt.spawnInt(Worker, {(int64_t)I + 1, Iters});
    Out.Ok = Rt.runAll();
  };
  if (Threads <= 1) {
    TaskingRuntime Rt(P->Prog, P->Image, *P->Types, *Col, TO);
    Spawn(Rt);
  } else {
    Col->setGcThreads(Threads);
    ThreadedRuntime Rt(P->Prog, P->Image, *P->Types, *Col, TO);
    Spawn(Rt);
  }
  return Out;
}

/// Worst per-task p99 request-to-park delay across the run.
uint64_t worstStopDelayP99(const Stats &St, unsigned Threads) {
  uint64_t Worst = 0;
  for (unsigned I = 0; I < Threads; ++I)
    Worst = std::max(Worst, St.get("task." + std::to_string(I) +
                                   ".world_stop_delay_ns_p99"));
  return Worst;
}

void reportThreaded(unsigned Threads, size_t HeapBytes) {
  ThreadedRun R = runThreadedChurn(Threads, 60, HeapBytes);
  if (!R.Ok)
    std::abort();
  if (JsonSink *Sink = JsonSink::active())
    Sink->record("compiled", GcAlgorithm::Generational, HeapBytes, R.St, 0,
                 Threads);
  // Copying-family collectors have no per-cycle reclaimed counter; the
  // tracer's work rate (bytes traced per pause second) is the number the
  // parallel mark/copy phase actually moves.
  uint64_t TracedBytes = R.St.get(StatId::GcWordsVisited) * sizeof(Word);
  uint64_t PauseNs = R.St.get(StatId::GcPauseNsTotal);
  tableCell((uint64_t)Threads);
  tableCell(R.St.get(StatId::TaskWorldStops));
  tableCell(R.St.get(StatId::GcCollections));
  tableCell(TracedBytes / 1024);
  tableCell((double)PauseNs / 1e6);
  tableCell(PauseNs ? (double)TracedBytes * 1e3 / (double)PauseNs : 0.0);
  tableCell((double)worstStopDelayP99(R.St, Threads) / 1e3);
  tableEnd();
}

void BM_ThreadedChurn(benchmark::State &State, unsigned Threads) {
  for (auto _ : State) {
    ThreadedRun R = runThreadedChurn(Threads, 30, 1 << 13);
    if (!R.Ok) {
      State.SkipWithError("task failure");
      return;
    }
    State.counters["threads"] = (double)Threads;
    State.counters["collections"] = (double)R.St.get(StatId::GcCollections);
    uint64_t PauseNs = R.St.get(StatId::GcPauseNsTotal);
    State.counters["trace_mb_per_s"] =
        PauseNs ? (double)R.St.get(StatId::GcWordsVisited) * sizeof(Word) *
                      1e3 / (double)PauseNs
                : 0.0;
    State.counters["stop_p99_ns"] =
        (double)worstStopDelayP99(R.St, Threads);
  }
}
BENCHMARK_CAPTURE(BM_ThreadedChurn, t1, 1u);
BENCHMARK_CAPTURE(BM_ThreadedChurn, t2, 2u);
BENCHMARK_CAPTURE(BM_ThreadedChurn, t4, 4u);
BENCHMARK_CAPTURE(BM_ThreadedChurn, t8, 8u);

void BM_Tasking(benchmark::State &State, SuspendChecks Policy) {
  for (auto _ : State) {
    TaskRun R = runTasks(Policy, 3, 30, 30, 1500, 1 << 13);
    if (!R.Ok) {
      State.SkipWithError("task failure");
      return;
    }
    State.counters["world_stops"] = (double)R.St.get(StatId::TaskWorldStops);
  }
}
BENCHMARK_CAPTURE(BM_Tasking, alloc_only, SuspendChecks::AtAllocation);
BENCHMARK_CAPTURE(BM_Tasking, every_call, SuspendChecks::AtEveryCall);
BENCHMARK_CAPTURE(BM_Tasking, rgc_register, SuspendChecks::RgcRegister);

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("tasking", argc, argv);
  jsonWorkload("taskWorkerAndSpinner");
  tableHeader("E8: suspension policy (3 workers + 1 spinner, shared heap)",
              "checks = explicit suspension tests executed; stop latency = "
              "instructions other tasks run between heap exhaustion and "
              "world-stop",
              {"policy", "checks", "world stops", "avg stop latency",
               "max stop latency", "ctx switches"});
  report(SuspendChecks::AtAllocation);
  report(SuspendChecks::AtEveryCall);
  report(SuspendChecks::RgcRegister);
  std::printf("\nExpected shape: alloc-only runs the fewest checks but the "
              "spinner stalls the\nworld-stop (large max latency); "
              "every-call stops fast but pays a check per call;\n"
              "rgc-register matches alloc-only's explicit check count with "
              "every-call's latency\n(the test rides the computed jump).\n\n");

  jsonWorkload("taskWorker-churn");
  // The throughput column only means something next to the core count.
  std::printf("host: %u hardware threads\n",
              std::thread::hardware_concurrency());
  tableHeader("E15: generational churn on real threads (one task per "
              "thread, shared heap)",
              "trace MB/s = bytes traced / total pause time; stop p99 us = "
              "worst per-task p99 request-to-park delay",
              {"threads", "world stops", "collections", "traced KiB",
               "pause ms", "trace MB/s", "stop p99 us"});
  for (unsigned Threads : {1u, 2u, 4u, 8u})
    reportThreaded(Threads, 1 << 13);
  std::printf("\nExpected shape: each collection traces under 1 KiB on "
              "this 8 KiB heap, so the\nper-collection worker spawn and the "
              "handshake, not trace bandwidth, set the\npause: trace MB/s "
              "falls as threads are added, on any core count. Stop p99\n"
              "grows with the thread count since the slowest mutator gates "
              "every handshake.\n\n");
  benchmark::Initialize(&argc, argv);
  Sink.runBenchmarksAndWrite();
  return 0;
}
