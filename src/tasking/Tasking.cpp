//===- tasking/Tasking.cpp ------------------------------------------------===//

#include "tasking/Tasking.h"

#include <cassert>

using namespace tfgc;

TaskingRuntime::TaskingRuntime(const IrProgram &Prog, const CodeImage &Img,
                               TypeContext &Types, Collector &Col,
                               TaskingOptions Opts)
    : Prog(Prog), Img(Img), Types(Types), Col(Col), Opts(Opts) {
  DecodeConfig DC;
  DC.Model = Col.model();
  DC.Fuse = Opts.FuseSuperinstructions;
  DC.FloatSelfTag = Opts.FloatSelfTag;
  DC.TailCalls = Opts.TailCalls;
  Decoded = decodeProgram(Prog, DC);
}

void TaskingRuntime::spawnInt(FuncId Entry, const std::vector<int64_t> &Args) {
  VmOptions VO;
  VO.Checks = Opts.Policy;
  VO.Coord = this;
  VO.TaskIndex = (uint32_t)Tasks.size();
  VO.Dispatch = Opts.Dispatch;
  VO.FuseSuperinstructions = Opts.FuseSuperinstructions;
  VO.FloatSelfTag = Opts.FloatSelfTag;
  VO.TailCalls = Opts.TailCalls;
  VO.Decoded = &Decoded;
  Task T;
  T.Machine = std::make_unique<Vm>(Prog, Img, Types, Col, VO);
  std::vector<Word> Words;
  for (int64_t A : Args)
    Words.push_back(Col.model() == ValueModel::Tagged ? tagInt(A) : (Word)A);
  T.Machine->start(Entry, Words);
  Tasks.push_back(std::move(T));
  Col.stats().add(StatId::TaskSpawned);
}

void TaskingRuntime::requestGc(size_t Need) {
  if (!gcRequested()) {
    StopFlag.store(true, std::memory_order_relaxed);
    StepsSinceRequest = 0;
    RequestTime = std::chrono::steady_clock::now();
    Col.stats().add(StatId::TaskGcRequests);
  }
  if (Need > NeedWords)
    NeedWords = Need;
}

void TaskingRuntime::collectWorld() {
  RootSet Roots;
  for (Task &T : Tasks)
    if (!T.Done)
      Roots.Stacks.push_back(&T.Machine->mutableStack());
  Col.telemetry().recordWorldStopDelay(
      (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - RequestTime)
          .count());
  Col.collect(Roots, NeedWords ? NeedWords : 1);
  Col.stats().add(StatId::TaskWorldStops);
  Col.stats().add(StatId::TaskStepsToWorldStopTotal, StepsSinceRequest);
  Col.stats().max(StatId::TaskStepsToWorldStopMax, StepsSinceRequest);
  StopFlag.store(false, std::memory_order_relaxed);
  NeedWords = 0;
  for (Task &T : Tasks)
    T.BlockedForGc = false;
}

bool TaskingRuntime::runAll() {
  Results.assign(Tasks.size(), TaskResult{});
  uint64_t TotalSteps = 0;
  size_t Live = Tasks.size();

  while (Live > 0) {
    bool AnyProgress = false;
    for (size_t Idx = 0; Idx < Tasks.size(); ++Idx) {
      Task &T = Tasks[Idx];
      if (T.Done || (T.BlockedForGc && gcRequested()))
        continue;
      T.BlockedForGc = false;
      Col.stats().add(StatId::TaskContextSwitches);
      // One scheduler slice. The VM's fuel counter enforces the budget
      // and — when a collection is pending — polls the coordinator every
      // SafepointPollSteps, yielding the slice early so the scheduler
      // reaches the remaining unsuspended tasks sooner.
      bool GcAtSliceStart = gcRequested();
      uint64_t Before = T.Machine->steps();
      StepResult R = T.Machine->exec(Opts.TimeSliceSteps);
      uint64_t Delta = T.Machine->steps() - Before;
      TotalSteps += Delta;
      // A request can only appear mid-slice through this task's own
      // allocator (which blocks it immediately), so steps taken this
      // slice count as post-request work only if the request predates
      // the slice.
      if (GcAtSliceStart)
        StepsSinceRequest += Delta;
      if (TotalSteps > Opts.MaxTotalSteps) {
        Results[Idx].Error = "step limit exceeded";
        publishTaskStats();
        return false;
      }
      if (R == StepResult::Ran) {
        AnyProgress = true;
      } else if (R == StepResult::BlockedOnGc) {
        T.BlockedForGc = true;
        T.Machine->flushHotCounters(); // The collection folds vm.*.
        // This task just reached its safe point: its share of the
        // world-stop latency is the time since the request (zero for
        // the requesting task itself).
        uint64_t DelayNs =
            (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - RequestTime)
                .count();
        T.StopDelayHist.record(DelayNs);
        if (Monitor *M = Col.monitor())
          M->recordTaskStopDelay((uint32_t)Idx, DelayNs);
        AnyProgress = true;
      } else {
        // Done or Failed.
        T.Done = true;
        --Live;
        T.Machine->flushCounters();
        TaskResult &TR = Results[Idx];
        TR.Output = T.Machine->output();
        if (R == StepResult::Done) {
          TR.Ok = true;
          TR.Value = T.Machine->renderResult();
        } else {
          TR.Error = T.Machine->error();
        }
      }
    }

    if (gcRequested()) {
      // The world is stopped once every live task is suspended at a safe
      // point.
      bool AllSuspended = true;
      for (Task &T : Tasks)
        if (!T.Done && !T.BlockedForGc)
          AllSuspended = false;
      if (AllSuspended && Live > 0)
        collectWorld();
      else if (!AnyProgress) {
        // Every runnable task is blocked and some task never reached a
        // safe point: with cooperative scheduling this cannot happen, but
        // guard against livelock.
        collectWorld();
      }
    } else if (!AnyProgress && Live > 0) {
      assert(false && "scheduler livelock");
      break;
    }
  }

  publishTaskStats();
  bool AllOk = true;
  for (const TaskResult &R : Results)
    if (!R.Ok)
      AllOk = false;
  return AllOk;
}

void TaskingRuntime::publishTaskStats() {
  Stats &St = Col.stats();
  // Runs with the world quiescent (run end or scheduler abort); the
  // per-task names are dynamic, so mark the safepoint for the shard guard.
  Stats::SafepointScope Scope(St);
  for (size_t I = 0; I < Tasks.size(); ++I) {
    std::string Base = "task." + std::to_string(I);
    St.set(Base + ".mutator_steps", Tasks[I].Machine->steps());
    const LogHistogram &H = Tasks[I].StopDelayHist;
    if (!H.count())
      continue;
    St.set(Base + ".world_stop_delays", H.count());
    St.set(Base + ".world_stop_delay_ns_p50", H.percentile(50));
    St.set(Base + ".world_stop_delay_ns_p90", H.percentile(90));
    St.set(Base + ".world_stop_delay_ns_p99", H.percentile(99));
  }
}
