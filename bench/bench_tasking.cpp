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

#include <thread>

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

struct TaskRun {
  std::unique_ptr<CompiledProgram> P;
  std::unique_ptr<Session> S;
  bool Ok = false;
};

/// Workers plus a spinner on the cooperative scheduler (--threads=1, so
/// the session compiles tasking-safe) under suspension policy \p Policy.
TaskRun runTasks(SuspendChecks Policy, int Workers, int Iters,
                 int SpinRounds, int SpinN, size_t HeapBytes) {
  CliOptions O;
  O.HeapBytes = HeapBytes;
  O.Threads = 1;
  TaskRun Out;
  Out.P = compileOrDie(wl::taskWorkerAndSpinner(), sessionCompileOptions(O));
  Out.S = openSession(*Out.P, O);
  TaskingOptions TO = Out.S->taskingOptions();
  TO.Policy = Policy;
  TaskingRuntime Rt(Out.P->Prog, Out.P->Image, *Out.P->Types,
                    Out.S->collector(), TO);
  FuncId Worker = findFunction(Out.P->Prog, "worker");
  FuncId Spinner = findFunction(Out.P->Prog, "spinner");
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
  const Stats &St = R.S->stats();
  uint64_t Stops = St.get(StatId::TaskWorldStops);
  tableCell(policyName(Policy));
  tableCell(St.get(StatId::TaskSuspendChecks));
  tableCell(Stops);
  tableCell(Stops ? (double)St.get(StatId::TaskStepsToWorldStopTotal) /
                        (double)Stops
                  : 0.0);
  tableCell(St.get(StatId::TaskStepsToWorldStopMax));
  tableCell(St.get(StatId::TaskContextSwitches));
  tableEnd();
}

//===----------------------------------------------------------------------===//
// E15: GC-bound generational churn on real threads
//===----------------------------------------------------------------------===//

/// One churn task per thread on a shared generational heap small enough
/// that collection dominates, assembled as tfgc --threads=N assembles it:
/// N==1 runs the cooperative scheduler (same logical program, no OS
/// threads) as the baseline row, N>=2 one OS thread per task with an
/// N-way parallel tracer.
TaskRun runThreadedChurn(unsigned Threads, int Iters, size_t HeapBytes) {
  CliOptions O;
  O.Algo = GcAlgorithm::Generational;
  O.HeapBytes = HeapBytes;
  O.Threads = Threads;
  TaskRun Out;
  Out.P = compileOrDie(wl::taskWorker(), sessionCompileOptions(O));
  Out.S = openSession(*Out.P, O);
  FuncId Worker = findFunction(Out.P->Prog, "worker");
  std::vector<Session::TaskSpawn> Tasks;
  for (unsigned I = 0; I < Threads; ++I)
    Tasks.push_back({Worker, {(int64_t)I + 1, Iters}});
  Out.Ok = Out.S->runTasks(Tasks).Ok;
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
  TaskRun R = runThreadedChurn(Threads, 60, HeapBytes);
  if (!R.Ok)
    std::abort();
  jsonRecord("compiled", *R.S);
  const Stats &St = R.S->stats();
  // Copying-family collectors have no per-cycle reclaimed counter; the
  // tracer's work rate (bytes traced per pause second) is the number the
  // parallel mark/copy phase actually moves.
  uint64_t TracedBytes = St.get(StatId::GcWordsVisited) * sizeof(Word);
  uint64_t PauseNs = St.get(StatId::GcPauseNsTotal);
  tableCell((uint64_t)Threads);
  tableCell(St.get(StatId::TaskWorldStops));
  tableCell(St.get(StatId::GcCollections));
  tableCell(TracedBytes / 1024);
  tableCell((double)PauseNs / 1e6);
  tableCell(PauseNs ? (double)TracedBytes * 1e3 / (double)PauseNs : 0.0);
  tableCell((double)worstStopDelayP99(St, Threads) / 1e3);
  tableEnd();
}

void BM_ThreadedChurn(benchmark::State &State, unsigned Threads) {
  for (auto _ : State) {
    TaskRun R = runThreadedChurn(Threads, 30, 1 << 13);
    if (!R.Ok) {
      State.SkipWithError("task failure");
      return;
    }
    const Stats &St = R.S->stats();
    State.counters["threads"] = (double)Threads;
    State.counters["collections"] = (double)St.get(StatId::GcCollections);
    uint64_t PauseNs = St.get(StatId::GcPauseNsTotal);
    State.counters["trace_mb_per_s"] =
        PauseNs ? (double)St.get(StatId::GcWordsVisited) * sizeof(Word) *
                      1e3 / (double)PauseNs
                : 0.0;
    State.counters["stop_p99_ns"] = (double)worstStopDelayP99(St, Threads);
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
    State.counters["world_stops"] =
        (double)R.S->stats().get(StatId::TaskWorldStops);
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
