//===- sched/ThreadedTasking.cpp ------------------------------------------===//

#include "sched/ThreadedTasking.h"

#include <cassert>
#include <thread>

using namespace tfgc;

ThreadedRuntime::ThreadedRuntime(const IrProgram &Prog, const CodeImage &Img,
                                 TypeContext &Types, Collector &Col,
                                 TaskingOptions Opts)
    : Prog(Prog), Img(Img), Types(Types), Col(Col), Opts(Opts) {
  Col.setParallelMutators(true);
  DecodeConfig DC;
  DC.Model = Col.model();
  DC.Fuse = Opts.FuseSuperinstructions;
  DC.FloatSelfTag = Opts.FloatSelfTag;
  DC.TailCalls = Opts.TailCalls;
  Decoded = decodeProgram(Prog, DC);
}

void ThreadedRuntime::spawnInt(FuncId Entry,
                               const std::vector<int64_t> &Args) {
  assert(!Coord && "spawn after runAll");
  Task T;
  T.TaskTlab = std::make_unique<Tlab>();
  T.Label = "mutator-" + std::to_string(Tasks.size());
  VmOptions VO;
  VO.MaxSteps = Opts.MaxTotalSteps;
  VO.Checks = Opts.Policy;
  VO.Coord = this;
  VO.TaskIndex = (uint32_t)Tasks.size();
  VO.Dispatch = Opts.Dispatch;
  VO.FuseSuperinstructions = Opts.FuseSuperinstructions;
  VO.FloatSelfTag = Opts.FloatSelfTag;
  VO.TailCalls = Opts.TailCalls;
  VO.Decoded = &Decoded;
  VO.ThreadTlab = T.TaskTlab.get();
  if (Opts.Flight) {
    // Ring i belongs to task i: the owning thread is the only producer
    // (VM, TLAB and park events all happen on it), which is what keeps
    // the rings single-producer with zero synchronization.
    T.Flight = &Opts.Flight->taskRing((unsigned)Tasks.size());
    T.TaskTlab->Flight = T.Flight;
    VO.Flight = T.Flight;
  }
  // Constructing the VM here claims shard TaskIndex+1 on the launching
  // thread — the shard vector is frozen before any mutator thread starts.
  T.Machine = std::make_unique<Vm>(Prog, Img, Types, Col, VO);
  std::vector<Word> Words;
  for (int64_t A : Args)
    Words.push_back(Col.model() == ValueModel::Tagged ? tagInt(A) : (Word)A);
  T.Machine->start(Entry, Words);
  Tasks.push_back(std::move(T));
  Col.stats().add(StatId::TaskSpawned);
}

void ThreadedRuntime::requestGc(size_t NeedWords) {
  assert(Coord && "allocation before runAll");
  // Exactly one arm per handshake cycle owns the request counter, so
  // task.gc_requests == task.world_stops at the end of a clean run (the
  // no-lost-handshakes invariant the stress test checks). The shard-0
  // write is ordered against the collector's by the coordinator mutex:
  // this thread arms, then parks; the pause only starts after the park.
  if (Coord->requestStop(NeedWords))
    Col.stats().add(StatId::TaskGcRequests);
}

void ThreadedRuntime::collectWorld(size_t NeedWords, uint64_t StopDelayNs) {
  RootSet Roots;
  for (Task &T : Tasks)
    if (!T.Done)
      Roots.Stacks.push_back(&T.Machine->mutableStack());
  // Retire every TLAB before the spaces move: the collection reuses the
  // nursery under the parked windows, and the owners refill from the
  // fresh cursor when they resume. Finished tasks' TLABs are inert.
  for (Task &T : Tasks)
    T.TaskTlab->reset();
  Col.telemetry().recordWorldStopDelay(StopDelayNs);
  // With a live scraper attached, refresh the per-task view and the heap
  // gauges before the collector's epoch fold (inside this same pause)
  // snapshots them; every mutator is parked or finished, so their
  // counters are mutex-ordered ahead of these reads.
  if (Col.epochAggregator()) {
    publishTaskStats();
    Stats &St = Col.stats();
    St.set(StatId::HeapUsedBytes, Col.heapUsedBytes());
    St.set(StatId::HeapCapacityBytes, Col.heapCapacityBytes());
    St.set(StatId::HeapBytesAllocatedTotal, Col.bytesAllocatedTotal());
  }
  Col.collect(Roots, NeedWords ? NeedWords : 1);
  Col.stats().add(StatId::TaskWorldStops);
}

void ThreadedRuntime::threadMain(size_t Idx) {
  Task &T = Tasks[Idx];
  Stats::setThreadLabel(T.Label.c_str());
  if (T.Flight)
    T.Flight->record(FlightEventType::ThreadStart);
  auto Collect = [this, Idx](size_t Need, uint64_t DelayNs) {
    // The pause runs on this thread: put its trace events on this task's
    // Chrome-trace track.
    Col.telemetry().setTraceTid(1 + Idx);
    collectWorld(Need, DelayNs);
  };
  for (;;) {
    StepResult R = T.Machine->exec(Opts.TimeSliceSteps);
    if (R == StepResult::Ran)
      continue;
    if (R == StepResult::BlockedOnGc) {
      // Every park flushes first: the collection reads this VM's counters,
      // the objects it bumped inline among them (the young census).
      T.Machine->flushHotCounters();
      Coord->park(
          [&](const SafepointCoordinator::ParkInfo &PI) {
            T.StopDelayHist.record(PI.DelayNs);
            if (Monitor *M = Col.monitor())
              M->recordTaskStopDelay((uint32_t)Idx, PI.DelayNs);
            if (PI.LastParker)
              LastParkerTask = Idx;
            if (T.Flight)
              T.Flight->record(FlightEventType::ThreadPark,
                               (uint32_t)PI.Epoch, PI.DelayNs,
                               PI.LastParker ? 1 : 0);
          },
          Collect,
          [&](uint64_t E) {
            if (T.Flight)
              T.Flight->record(FlightEventType::ThreadResume, (uint32_t)E);
          });
      continue;
    }
    // Done or Failed. Render the result while this thread still counts
    // as live: no pause can start until it parks or finishes, so the
    // heap cannot move under renderResult().
    T.Machine->flushHotCounters();
    TaskResult &TR = Results[Idx];
    TR.Output = T.Machine->output();
    if (R == StepResult::Done) {
      TR.Ok = true;
      TR.Value = T.Machine->renderResult();
    } else {
      TR.Error = T.Machine->error();
    }
    T.Done = true;
    if (T.Flight)
      T.Flight->record(FlightEventType::ThreadExit);
    Coord->threadFinished(Collect, [&](uint64_t E, uint64_t D) {
      // This exit completed a rendezvous others are parked in: the
      // pending collection runs here, on the exiting thread.
      LastParkerTask = Idx;
      if (T.Flight)
        T.Flight->record(FlightEventType::PendingHandoff, (uint32_t)E, D);
    });
    return;
  }
}

bool ThreadedRuntime::runAll() {
  Results.assign(Tasks.size(), TaskResult{});
  if (Tasks.empty())
    return true;
  Coord = std::make_unique<SafepointCoordinator>((unsigned)Tasks.size(),
                                                 StopFlag);
  if (Opts.Flight)
    Coord->setFlightRing(&Opts.Flight->gcRing());
  std::vector<std::thread> Threads;
  Threads.reserve(Tasks.size());
  for (size_t I = 0; I < Tasks.size(); ++I)
    Threads.emplace_back([this, I] { threadMain(I); });
  for (std::thread &Th : Threads)
    Th.join();

  // The joins are the final safepoint: every shard is quiescent, so the
  // gauges, the telemetry-derived stats and the per-task view can be
  // published from this thread like the sequential VM does at run end.
  Stats &St = Col.stats();
  St.set(StatId::HeapUsedBytes, Col.heapUsedBytes());
  St.set(StatId::HeapCapacityBytes, Col.heapCapacityBytes());
  St.set(StatId::HeapBytesAllocatedTotal, Col.bytesAllocatedTotal());
  Col.publishTelemetryStats();
  publishTaskStats();

  bool AllOk = true;
  for (const TaskResult &R : Results)
    if (!R.Ok)
      AllOk = false;
  return AllOk;
}

void ThreadedRuntime::publishTaskStats() {
  Stats &St = Col.stats();
  Stats::SafepointScope Scope(St);
  for (size_t I = 0; I < Tasks.size(); ++I) {
    std::string Base = "task." + std::to_string(I);
    St.set(Base + ".mutator_steps", Tasks[I].Machine->steps());
    St.set(Base + ".tlab_refills", Tasks[I].TaskTlab->Refills);
    St.set(Base + ".tlab_alloc_words",
           Tasks[I].TaskTlab->Window.BytesAllocated / sizeof(Word));
    const LogHistogram &H = Tasks[I].StopDelayHist;
    if (!H.count())
      continue;
    St.set(Base + ".world_stop_delays", H.count());
    St.set(Base + ".world_stop_delay_ns_p50", H.percentile(50));
    St.set(Base + ".world_stop_delay_ns_p90", H.percentile(90));
    St.set(Base + ".world_stop_delay_ns_p99", H.percentile(99));
    // Same histogram under its attribution name: "time to safepoint" is
    // what straggler hunting asks for (/metrics, tools/tfgc_top.py).
    St.set(Base + ".time_to_safepoint_ns_p50", H.percentile(50));
    St.set(Base + ".time_to_safepoint_ns_p99", H.percentile(99));
  }
  St.set("sched.handshake_epochs", Coord ? Coord->epoch() : 0);
  if (LastParkerTask != UINT64_MAX)
    St.set("sched.last_parker_task", LastParkerTask);
}
