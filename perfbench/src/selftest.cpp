//===- perfbench/src/selftest.cpp - Checks of the benchmark itself --------===//
///
/// The percentile helper on known vectors, and the oracle against real
/// runs of the generated programs for two seeds (through execProgram and a
/// plain ThreadedRuntime, not through the benchmark's own job loop).
/// Prints one line per failed check; exits 1 if any failed.
///
//===----------------------------------------------------------------------===//

#include "Percentile.h"
#include "Workloads.h"

#include "driver/Compiler.h"
#include "sched/ThreadedTasking.h"

#include <cstdio>
#include <string>

using namespace tfgc;
using namespace perfbench;

static int Failures = 0;

static void expect(bool Cond, const std::string &What) {
  if (!Cond) {
    std::printf("FAIL %s\n", What.c_str());
    ++Failures;
  }
}

static std::vector<double> iota(int N) {
  std::vector<double> V;
  for (int I = 1; I <= N; ++I)
    V.push_back(I);
  return V;
}

static void testPercentiles() {
  auto Check = [](std::vector<double> V, unsigned P, double Value,
                  size_t Beyond) {
    Percentile R = nearestRank(V, P);
    expect(R.Value == Value && R.Beyond == Beyond && R.Samples == V.size(),
           "p" + std::to_string(P) + " of " + std::to_string(V.size()) +
               " samples = " + std::to_string(R.Value) + " with " +
               std::to_string(R.Beyond) + " above");
  };
  Check(iota(10), 50, 5, 5);
  Check(iota(10), 90, 9, 1);
  Check(iota(10), 100, 10, 0);
  Check(iota(10), 1, 1, 9);
  Check(iota(100), 90, 90, 10); // ceil(0.9 * 100) must not round up to 91
  Check(iota(100), 99, 99, 1);
  Check(iota(1000), 99, 990, 10);
  Check(iota(21), 50, 11, 10);
  Check({5}, 50, 5, 0);
  Check({3, 1, 2}, 50, 2, 1);
  Check({7, 7, 7, 1}, 50, 7, 2);
  Percentile Empty = nearestRank({}, 50);
  expect(Empty.Samples == 0 && Empty.Beyond == 0, "empty input");
}

static void testOracle(uint64_t Seed) {
  std::string Tag = " (seed " + std::to_string(Seed) + ")";
  Params Ps = paramsFor(Seed);
  for (Workload W : {Workload::Mutator, Workload::GcCopy}) {
    Expected Ex = oracle(W, Ps);
    ExecResult R = execProgram(source(W, Ps), GcStrategy::CompiledTagFree,
                               GcAlgorithm::Copying, 1 << 20);
    expect(R.CompileOk && R.Run.Ok, std::string(workloadName(W)) +
                                        " runs" + Tag + ": " +
                                        R.CompileError + R.Run.Error);
    expect(R.Run.Value == Ex.Value, std::string(workloadName(W)) + " gives " +
                                        R.Run.Value + ", oracle " + Ex.Value +
                                        Tag);
    uint64_t Collections = R.St.get(StatId::GcCollections);
    expect(W == Workload::Mutator ? Collections == 0 : Collections > 0,
           std::string(workloadName(W)) + " ran " +
               std::to_string(Collections) + " collections" + Tag);
  }

  Expected Ex = oracle(Workload::ThreadsGen, Ps);
  CompileOptions O;
  O.TaskingSafe = true;
  std::string Err;
  auto P = Compiler(O).compile(source(Workload::ThreadsGen, Ps), &Err);
  expect(P != nullptr, "threads_gen compiles" + Tag + ": " + Err);
  if (!P)
    return;
  Stats St;
  auto Col = P->makeCollector(GcStrategy::CompiledTagFree,
                              GcAlgorithm::Generational, ThreadHeapBytes, St,
                              &Err, ThreadNurseryBytes);
  expect(Col != nullptr, "threads_gen collector" + Tag + ": " + Err);
  if (!Col)
    return;
  Col->setGcThreads(ThreadGcWorkers);
  ThreadedRuntime Rt(P->Prog, P->Image, *P->Types, *Col, TaskingOptions());
  for (int Task = 0; Task < ThreadTasks; ++Task)
    Rt.spawnInt(findFunction(P->Prog, "worker"), workerArgs(Ps, Task));
  expect(Rt.runAll(), "threads_gen tasks succeed" + Tag);
  expect(Rt.results().size() == Ex.TaskValues.size(),
         "threads_gen task count" + Tag);
  for (size_t I = 0; I < Rt.results().size(); ++I)
    expect(Rt.results()[I].Value == Ex.TaskValues[I],
           "threads_gen task " + std::to_string(I) + " gives " +
               Rt.results()[I].Value + ", oracle " + Ex.TaskValues[I] + Tag);
}

/// Different seeds must give different expected results, or a job that
/// ignored its constants would still pass.
static void testSeedsMatter() {
  Params A = paramsFor(1), B = paramsFor(2);
  for (Workload W : {Workload::Mutator, Workload::GcCopy})
    expect(oracle(W, A).Value != oracle(W, B).Value,
           std::string(workloadName(W)) + " oracle ignores the seed");
  expect(oracle(Workload::ThreadsGen, A).TaskValues !=
             oracle(Workload::ThreadsGen, B).TaskValues,
         "threads_gen oracle ignores the seed");
  for (Workload W :
       {Workload::Mutator, Workload::GcCopy, Workload::ThreadsGen})
    expect(source(W, A) != source(W, B),
           std::string(workloadName(W)) + " source ignores the seed");
}

int main() {
  testPercentiles();
  testOracle(1);
  testOracle(2);
  testSeedsMatter();
  std::printf("%s: %d failed check(s)\n", Failures ? "FAIL" : "PASS",
              Failures);
  return Failures ? 1 : 0;
}
