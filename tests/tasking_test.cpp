//===- tests/tasking_test.cpp - Multi-task collection (paper sec. 4) -----===//

#include "TestUtil.h"
#include "tasking/Tasking.h"
#include "workloads/Programs.h"

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

struct World : SessionRun {
  std::unique_ptr<TaskingRuntime> Rt;
};

/// A cooperative-scheduler run (--threads=1, so compiled tasking-safe)
/// whose tasks the test spawns itself under suspension policy \p Policy.
World makeWorld(const std::string &Source, GcStrategy S, SuspendChecks Policy,
                size_t HeapBytes = 1 << 13,
                GcAlgorithm Algo = GcAlgorithm::Copying) {
  CliOptions O = sessionOptions(S, Algo, HeapBytes);
  O.Threads = 1;
  World W{openSession(Source, O), nullptr};
  TaskingOptions TO = W.S->taskingOptions();
  TO.Policy = Policy;
  W.Rt = std::make_unique<TaskingRuntime>(W.P->Prog, W.P->Image, *W.P->Types,
                                          W.S->collector(), TO);
  return W;
}

const SuspendChecks AllPolicies[] = {
    SuspendChecks::AtAllocation,
    SuspendChecks::AtEveryCall,
    SuspendChecks::RgcRegister,
};

TEST(Tasking, SingleTaskMatchesSequential) {
  ExecResult Seq = execProgram(wl::taskWorker(), GcStrategy::CompiledTagFree);
  ASSERT_TRUE(Seq.Run.Ok);

  World W = makeWorld(wl::taskWorker(), GcStrategy::CompiledTagFree,
                      SuspendChecks::AtEveryCall);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  ASSERT_NE(Worker, InvalidFunc);
  W.Rt->spawnInt(Worker, {1, 1});
  ASSERT_TRUE(W.Rt->runAll());
  EXPECT_EQ(W.Rt->results()[0].Value, Seq.Run.Value);
}

TEST(Tasking, ManyTasksAllPoliciesAllStrategies) {
  // 4 workers with distinct seeds; expected values from sequential runs
  // computed once.
  std::vector<std::string> Expected;
  {
    World W = makeWorld(wl::taskWorker(), GcStrategy::CompiledTagFree,
                        SuspendChecks::AtEveryCall, 1 << 20);
    FuncId Worker = findFunction(W.P->Prog, "worker");
    for (int64_t Seed = 1; Seed <= 4; ++Seed)
      W.Rt->spawnInt(Worker, {Seed, 40});
    ASSERT_TRUE(W.Rt->runAll());
    for (const TaskResult &R : W.Rt->results())
      Expected.push_back(R.Value);
  }

  for (GcStrategy S : AllStrategies) {
    for (SuspendChecks Policy : AllPolicies) {
      World W = makeWorld(wl::taskWorker(), S, Policy);
      FuncId Worker = findFunction(W.P->Prog, "worker");
      for (int64_t Seed = 1; Seed <= 4; ++Seed)
        W.Rt->spawnInt(Worker, {Seed, 40});
      ASSERT_TRUE(W.Rt->runAll()) << gcStrategyName(S);
      for (size_t I = 0; I < 4; ++I)
        EXPECT_EQ(W.Rt->results()[I].Value, Expected[I])
            << gcStrategyName(S) << " policy " << (int)Policy;
      EXPECT_GT(W.stats().get("task.world_stops"), 0u) << gcStrategyName(S);
    }
  }
}

TEST(Tasking, WorldStopsRequireAllTasksSuspended) {
  World W = makeWorld(wl::taskWorker(), GcStrategy::CompiledTagFree,
                      SuspendChecks::AtEveryCall, 1 << 12);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  for (int64_t Seed = 1; Seed <= 3; ++Seed)
    W.Rt->spawnInt(Worker, {Seed, 30});
  ASSERT_TRUE(W.Rt->runAll());
  EXPECT_GT(W.stats().get("task.gc_requests"), 0u);
  EXPECT_GE(W.stats().get("task.world_stops"),
            W.stats().get("task.gc_requests"));
}

TEST(Tasking, EveryCallPolicyExecutesMoreChecksThanAllocationOnly) {
  uint64_t Checks[2];
  SuspendChecks Policies[2] = {SuspendChecks::AtAllocation,
                               SuspendChecks::AtEveryCall};
  for (int I = 0; I < 2; ++I) {
    World W = makeWorld(wl::taskWorker(), GcStrategy::CompiledTagFree,
                        Policies[I]);
    FuncId Worker = findFunction(W.P->Prog, "worker");
    W.Rt->spawnInt(Worker, {1, 30});
    W.Rt->spawnInt(Worker, {2, 30});
    ASSERT_TRUE(W.Rt->runAll());
    Checks[I] = W.stats().get("task.suspend_checks");
  }
  EXPECT_GT(Checks[1], Checks[0]);
}

TEST(Tasking, RgcPolicyHasAllocationOnlyCheckCost) {
  // The Rgc register folds the per-call test into the jump, so explicit
  // checks match the allocation-only policy while stop latency matches
  // the every-call policy.
  uint64_t RgcChecks, AllocChecks;
  {
    World W = makeWorld(wl::taskWorker(), GcStrategy::CompiledTagFree,
                        SuspendChecks::RgcRegister);
    FuncId Worker = findFunction(W.P->Prog, "worker");
    W.Rt->spawnInt(Worker, {1, 30});
    W.Rt->spawnInt(Worker, {2, 30});
    ASSERT_TRUE(W.Rt->runAll());
    RgcChecks = W.stats().get("task.suspend_checks");
  }
  {
    World W = makeWorld(wl::taskWorker(), GcStrategy::CompiledTagFree,
                        SuspendChecks::AtAllocation);
    FuncId Worker = findFunction(W.P->Prog, "worker");
    W.Rt->spawnInt(Worker, {1, 30});
    W.Rt->spawnInt(Worker, {2, 30});
    ASSERT_TRUE(W.Rt->runAll());
    AllocChecks = W.stats().get("task.suspend_checks");
  }
  // Same workload, same suspension checks charged.
  EXPECT_NEAR((double)RgcChecks, (double)AllocChecks,
              0.2 * (double)AllocChecks);
}

TEST(Tasking, SpinnerDelaysWorldStopUnderAllocationOnly) {
  // A task that computes without allocating keeps running after another
  // task exhausts the heap; with every-call checks it stops at its next
  // call instead.
  auto Run = [&](SuspendChecks Policy) -> uint64_t {
    World W = makeWorld(wl::taskWorkerAndSpinner(),
                        GcStrategy::CompiledTagFree, Policy, 1 << 12);
    FuncId Worker = findFunction(W.P->Prog, "worker");
    FuncId Spinner = findFunction(W.P->Prog, "spinner");
    W.Rt->spawnInt(Worker, {1, 40});
    W.Rt->spawnInt(Spinner, {40, 3000});
    EXPECT_TRUE(W.Rt->runAll());
    return W.stats().get("task.steps_to_world_stop_max");
  };
  uint64_t AllocOnly = Run(SuspendChecks::AtAllocation);
  uint64_t EveryCall = Run(SuspendChecks::AtEveryCall);
  EXPECT_GT(AllocOnly, EveryCall);
}

TEST(Tasking, MarkSweepSharedHeap) {
  World W = makeWorld(wl::taskWorker(), GcStrategy::CompiledTagFree,
                      SuspendChecks::AtEveryCall, 1 << 13,
                      GcAlgorithm::MarkSweep);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  for (int64_t Seed = 1; Seed <= 3; ++Seed)
    W.Rt->spawnInt(Worker, {Seed, 30});
  ASSERT_TRUE(W.Rt->runAll());
  EXPECT_GT(W.stats().get("task.world_stops"), 0u);

  World Ref = makeWorld(wl::taskWorker(), GcStrategy::CompiledTagFree,
                        SuspendChecks::AtEveryCall, 1 << 20);
  FuncId W2 = findFunction(Ref.P->Prog, "worker");
  for (int64_t Seed = 1; Seed <= 3; ++Seed)
    Ref.Rt->spawnInt(W2, {Seed, 30});
  ASSERT_TRUE(Ref.Rt->runAll());
  for (size_t I = 0; I < 3; ++I)
    EXPECT_EQ(W.Rt->results()[I].Value, Ref.Rt->results()[I].Value);
}

TEST(Tasking, AppelStrategyZeroFramesUnderTasking) {
  World W = makeWorld(wl::taskWorker(), GcStrategy::AppelTagFree,
                      SuspendChecks::AtAllocation, 1 << 13);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  W.Rt->spawnInt(Worker, {1, 25});
  W.Rt->spawnInt(Worker, {2, 25});
  ASSERT_TRUE(W.Rt->runAll());
  EXPECT_GT(W.stats().get("vm.frame_words_zeroed"), 0u);
}

TEST(Tasking, TaskFailurePropagates) {
  World W = makeWorld("fun boom (x : int) (y : int) : int = x / y;\nboom 1 0",
                      GcStrategy::CompiledTagFree,
                      SuspendChecks::AtEveryCall);
  FuncId Boom = findFunction(W.P->Prog, "boom");
  W.Rt->spawnInt(Boom, {1, 0});
  EXPECT_FALSE(W.Rt->runAll());
  EXPECT_EQ(W.Rt->results()[0].Error, "division by zero");
}

TEST(Tasking, SharedHeapObjectsStayCoherent) {
  // Tasks do not share values directly here, but they interleave
  // allocations in one heap; collections triggered by one task must keep
  // every other task's structures intact.
  World W = makeWorld(wl::taskWorker(), GcStrategy::CompiledTagFree,
                      SuspendChecks::AtEveryCall, 1 << 12);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  for (int64_t Seed = 1; Seed <= 6; ++Seed)
    W.Rt->spawnInt(Worker, {Seed, 25});
  ASSERT_TRUE(W.Rt->runAll());
  World Ref = makeWorld(wl::taskWorker(), GcStrategy::CompiledTagFree,
                        SuspendChecks::AtEveryCall, 1 << 20);
  FuncId W2 = findFunction(Ref.P->Prog, "worker");
  for (int64_t Seed = 1; Seed <= 6; ++Seed)
    Ref.Rt->spawnInt(W2, {Seed, 25});
  ASSERT_TRUE(Ref.Rt->runAll());
  for (size_t I = 0; I < 6; ++I)
    EXPECT_EQ(W.Rt->results()[I].Value, Ref.Rt->results()[I].Value);
}

TEST(Tasking, PerTaskStepAndStopDelayStats) {
  // Every task publishes task.<i>.mutator_steps, and tasks that were
  // parked at a GC safe point publish a world-stop-delay histogram.
  World W = makeWorld(wl::taskWorker(), GcStrategy::CompiledTagFree,
                      SuspendChecks::AtEveryCall, 1 << 12);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  for (int64_t Seed = 1; Seed <= 3; ++Seed)
    W.Rt->spawnInt(Worker, {Seed, 30});
  ASSERT_TRUE(W.Rt->runAll());
  ASSERT_GT(W.stats().get("task.world_stops"), 0u);

  uint64_t TotalSteps = 0, TotalDelays = 0;
  for (int I = 0; I < 3; ++I) {
    std::string Base = "task." + std::to_string(I);
    uint64_t Steps = W.stats().get(Base + ".mutator_steps");
    EXPECT_GT(Steps, 0u) << Base;
    TotalSteps += Steps;
    uint64_t Delays = W.stats().get(Base + ".world_stop_delays");
    TotalDelays += Delays;
    if (Delays > 0) {
      // Percentiles come from a log histogram: monotone, and present
      // exactly when the count is.
      uint64_t P50 = W.stats().get(Base + ".world_stop_delay_ns_p50");
      uint64_t P90 = W.stats().get(Base + ".world_stop_delay_ns_p90");
      uint64_t P99 = W.stats().get(Base + ".world_stop_delay_ns_p99");
      EXPECT_LE(P50, P90) << Base;
      EXPECT_LE(P90, P99) << Base;
    }
  }
  // Each VM's counter flush sets the shared vm.steps stat (last writer
  // wins), so the per-task split is the only complete accounting; it
  // dominates any single task's count.
  EXPECT_GE(TotalSteps, W.stats().get(StatId::VmSteps));
  // Each world stop parks every task that did not trigger it; with 3
  // tasks at least the non-triggering ones record a delay. (A task that
  // already finished records none, hence >= rather than ==.)
  EXPECT_GE(TotalDelays, W.stats().get("task.world_stops"));
}

TEST(Tasking, MonitorSeesPerTaskActivity) {
  // With a monitor attached before the tasks spawn, samples and stop
  // delays are attributed per task and surface in mon.* stats.
  CliOptions O = sessionOptions(GcStrategy::CompiledTagFree,
                                GcAlgorithm::Copying, 1 << 12);
  O.Threads = 1;
  O.Monitor = true;
  O.MonitorSampleSteps = 64;
  World W{openSession(wl::taskWorker(), O), nullptr};
  ASSERT_TRUE(W);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  std::vector<Session::TaskSpawn> Tasks;
  for (int64_t Seed = 1; Seed <= 3; ++Seed)
    Tasks.push_back({Worker, {Seed, 30}});
  ASSERT_TRUE(W.S->runTasks(Tasks).Ok);
  const Monitor &Mon = W.S->monitor();

  // Monitor step accounting covers all tasks and agrees with the
  // per-task stats published by the runtime.
  uint64_t TotalSteps = 0;
  for (int I = 0; I < 3; ++I)
    TotalSteps += W.stats().get("task." + std::to_string(I) + ".mutator_steps");
  EXPECT_EQ(Mon.stepsObserved(), TotalSteps);
  // Sampling stayed armed across task switches (each VM counts down its
  // own fuel), so the invariant holds with one period of slack per task.
  uint64_t Drift = Mon.samples() * 64 > TotalSteps
                       ? Mon.samples() * 64 - TotalSteps
                       : TotalSteps - Mon.samples() * 64;
  EXPECT_LE(Drift, 64u * 4) << "samples " << Mon.samples() << " steps "
                            << TotalSteps;
  EXPECT_GT(W.stats().get("mon.samples"), 0u);
}

} // namespace
