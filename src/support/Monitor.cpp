//===- support/Monitor.cpp ------------------------------------------------===//

#include "support/Monitor.h"

#include "support/Epoch.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

using namespace tfgc;

const char *tfgc::opClassName(OpClass C) {
  switch (C) {
  case OpClass::Load:       return "load";
  case OpClass::Prim:       return "prim";
  case OpClass::Alloc:      return "alloc";
  case OpClass::HeapAccess: return "heap_access";
  case OpClass::Branch:     return "branch";
  case OpClass::Call:       return "call";
  case OpClass::Other:      return "other";
  case OpClass::NumClasses: break;
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// MmuTracker
//===----------------------------------------------------------------------===//

void MmuTracker::addPause(uint64_t StartNs, uint64_t EndNs) {
  if (!Ends.empty() && StartNs < Ends.back())
    StartNs = Ends.back();
  if (EndNs < StartNs)
    EndNs = StartNs;
  Starts.push_back(StartNs);
  Ends.push_back(EndNs);
  Prefix.push_back(gcNsTotal() + (EndNs - StartNs));
}

uint64_t MmuTracker::gcNsIn(uint64_t T0, uint64_t T1) const {
  if (T1 <= T0 || Starts.empty())
    return 0;
  // Pauses overlapping [T0, T1): the first whose end exceeds T0 through
  // the last whose start precedes T1.
  size_t Lo = std::upper_bound(Ends.begin(), Ends.end(), T0) - Ends.begin();
  size_t Hi =
      std::lower_bound(Starts.begin(), Starts.end(), T1) - Starts.begin();
  if (Lo >= Hi)
    return 0;
  uint64_t Sum = Prefix[Hi - 1] - (Lo ? Prefix[Lo - 1] : 0);
  if (Starts[Lo] < T0)
    Sum -= T0 - Starts[Lo];
  if (Ends[Hi - 1] > T1)
    Sum -= Ends[Hi - 1] - T1;
  return Sum;
}

double MmuTracker::mmu(uint64_t WindowNs, uint64_t T0, uint64_t T1) const {
  if (T1 <= T0)
    return 1.0;
  if (WindowNs == 0)
    WindowNs = 1;
  uint64_t Span = T1 - T0;
  if (Span <= WindowNs)
    return 1.0 - (double)gcNsIn(T0, T1) / (double)Span;
  // The GC time inside a sliding window is piecewise linear in the window
  // position with maxima only where a window edge aligns with a pause
  // edge, so evaluating windows anchored at every pause start, every
  // pause end, and the two interval extremes finds the minimum.
  double MinU = 1.0;
  auto EvalStartingAt = [&](uint64_t T) {
    if (T < T0)
      T = T0;
    if (T > T1 - WindowNs)
      T = T1 - WindowNs;
    double U = 1.0 - (double)gcNsIn(T, T + WindowNs) / (double)WindowNs;
    if (U < MinU)
      MinU = U;
  };
  EvalStartingAt(T0);
  EvalStartingAt(T1 - WindowNs);
  for (size_t I = 0; I < Starts.size(); ++I) {
    if (Ends[I] <= T0 || Starts[I] >= T1)
      continue;
    EvalStartingAt(Starts[I]);
    if (Ends[I] >= WindowNs)
      EvalStartingAt(Ends[I] - WindowNs);
  }
  return MinU;
}

double MmuTracker::cappedMmu(uint64_t WindowNs, uint64_t T0,
                             uint64_t T1) const {
  if (T1 <= T0)
    return 1.0;
  double Whole = 1.0 - (double)gcNsIn(T0, T1) / (double)(T1 - T0);
  return std::min(mmu(WindowNs, T0, T1), Whole);
}

//===----------------------------------------------------------------------===//
// Monitor
//===----------------------------------------------------------------------===//

Monitor::Monitor(Options O)
    : Opts(O), OwnEpoch(std::chrono::steady_clock::now()) {
  if (Opts.SamplePeriodSteps == 0)
    Opts.SamplePeriodSteps = 1;
  if (Opts.HeartbeatPeriodMs == 0)
    Opts.HeartbeatPeriodMs = 1;
}

uint64_t Monitor::nowNs() const {
  if (Tel)
    return Tel->nowNs();
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - OwnEpoch)
      .count();
}

void Monitor::attachTelemetry(Telemetry *T) {
  Tel = T;
  if (Tel)
    Tel->setEventSink(this);
}

void Monitor::setStream(std::ostream *OS) {
  Stream = OS;
  if (Stream)
    emitHeader();
}

void Monitor::beginRun() {
  if (RunStartNs != NoTime)
    return;
  RunStartNs = nowNs();
  LastResumeNs = RunStartNs;
  LastHbNs = RunStartNs;
}

void Monitor::endRun() {
  uint64_t Now = nowNs();
  if (RunStartNs == NoTime)
    beginRun();
  if (LastResumeNs != NoTime && Now > LastResumeNs)
    MutatorNsTotal += Now - LastResumeNs;
  LastResumeNs = Now;
  RunEndNs = Now;
}

void Monitor::onGcEvent(const GcEvent &E) {
  uint64_t Start = E.StartNs;
  uint64_t End = E.StartNs + E.PauseNs;
  if (RunStartNs == NoTime) {
    // Collection before any VM started (collector-only harnesses): open
    // the run window at the event so the interval math stays consistent.
    RunStartNs = Start;
    LastResumeNs = Start;
    LastHbNs = Start;
  }
  if (LastResumeNs != NoTime && Start > LastResumeNs)
    MutatorNsTotal += Start - LastResumeNs;
  if (LastResumeNs == NoTime || End > LastResumeNs)
    LastResumeNs = End;
  Mmu.addPause(Start, End);
  ++Collections;
}

void Monitor::recordSample(uint32_t Func, uint32_t Caller, OpClass C,
                           uint32_t TaskIdx, const SampleCounters &SC) {
  ++Samples;
  if (Func >= Flat.size())
    Flat.resize((size_t)Func + 1, 0);
  ++Flat[Func];
  ++Edges[((uint64_t)Caller << 32) | Func];
  ++ByClass[(size_t)C];
  if (TaskIdx >= Tasks.size())
    Tasks.resize((size_t)TaskIdx + 1);
  Tasks[TaskIdx].Steps = SC.Steps;
  ++Tasks[TaskIdx].Samples;

  if (!Stream && !Agg)
    return;
  uint64_t Now = nowNs();
  if (LastHbNs == NoTime)
    LastHbNs = Now;
  if (Now - LastHbNs >= Opts.HeartbeatPeriodMs * 1'000'000ull)
    emitHeartbeat(Now, SC);
}

void Monitor::recordTaskStopDelay(uint32_t TaskIdx, uint64_t DelayNs) {
  if (TaskIdx >= Tasks.size())
    Tasks.resize((size_t)TaskIdx + 1);
  Tasks[TaskIdx].StopDelay.record(DelayNs);
}

void Monitor::noteTaskSteps(uint32_t TaskIdx, uint64_t Steps) {
  if (TaskIdx >= Tasks.size())
    Tasks.resize((size_t)TaskIdx + 1);
  Tasks[TaskIdx].Steps = Steps;
}

uint64_t Monitor::stepsObserved() const {
  uint64_t S = 0;
  for (const TaskCell &T : Tasks)
    S += T.Steps;
  return S;
}

uint64_t Monitor::runEndOrNow() const {
  return RunEndNs != NoTime ? RunEndNs : nowNs();
}

uint64_t Monitor::wallNs() const {
  if (RunStartNs == NoTime)
    return 0;
  uint64_t End = runEndOrNow();
  return End > RunStartNs ? End - RunStartNs : 0;
}

uint64_t Monitor::mutatorNsAt(uint64_t Now) const {
  uint64_t M = MutatorNsTotal;
  if (LastResumeNs != NoTime && Now > LastResumeNs && RunEndNs == NoTime)
    M += Now - LastResumeNs;
  return M;
}

double Monitor::mutatorFraction() const {
  uint64_t Wall = wallNs();
  if (!Wall)
    return 1.0;
  return (double)mutatorNsAt(runEndOrNow()) / (double)Wall;
}

double Monitor::mmu(uint64_t WindowNs) const {
  if (RunStartNs == NoTime)
    return 1.0;
  return Mmu.cappedMmu(WindowNs, RunStartNs, runEndOrNow());
}

const std::string &Monitor::funcName(uint32_t Func) const {
  static const std::string Unknown = "?";
  static const std::string Root = "<root>";
  if (Func == NoFunc)
    return Root;
  return Func < FuncNames.size() ? FuncNames[Func] : Unknown;
}

namespace {

/// JSON string escaping for labels/function names.
std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if ((unsigned char)C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", (unsigned)C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
  return Out;
}

std::string fmtFrac(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

} // namespace

void Monitor::emitHeader() {
  *Stream << "{\"type\": \"header\", \"schema\": " << StreamSchema
          << ", \"tool\": \"tfgc-monitor\"";
  if (!Label.empty())
    *Stream << ", \"label\": " << jsonStr(Label);
  *Stream << ", \"sample_period_steps\": " << Opts.SamplePeriodSteps
          << ", \"heartbeat_period_ms\": " << Opts.HeartbeatPeriodMs
          << "}\n";
  Stream->flush();
}

void Monitor::writeTasksJson(std::ostream &OS) const {
  OS << "[";
  for (size_t I = 0; I < Tasks.size(); ++I) {
    const TaskCell &T = Tasks[I];
    OS << (I ? ", " : "") << "{\"task\": " << I << ", \"steps\": " << T.Steps
       << ", \"samples\": " << T.Samples
       << ", \"stop_delays\": " << T.StopDelay.count();
    if (T.StopDelay.count())
      OS << ", \"stop_delay_ns_p50\": " << T.StopDelay.percentile(50)
         << ", \"stop_delay_ns_p99\": " << T.StopDelay.percentile(99)
         << ", \"stop_delay_ns_max\": " << T.StopDelay.max();
    OS << "}";
  }
  OS << "]";
}

void Monitor::emitHeartbeat(uint64_t Now, const SampleCounters &SC) {
  // Sample points are cooperative safepoints (the VM flushes its hot
  // counters before calling in): fold a Heartbeat epoch first so the
  // served /metrics and this record describe the same instant.
  if (Agg)
    Agg->fold(SafepointKind::Heartbeat);
  uint64_t DtNs = Now - LastHbNs;
  double DtMs = (double)DtNs / 1e6;
  auto Rate = [&](uint64_t Cur, uint64_t Prev) {
    return DtMs > 0.0 && Cur >= Prev ? (double)(Cur - Prev) / DtMs : 0.0;
  };
  std::ostringstream OS;
  OS << "{\"type\": \"heartbeat\", \"seq\": " << HeartbeatSeq++
     << ", \"t_ns\": " << (Now - RunStartNs) << ", \"dt_ns\": " << DtNs
     << ", \"steps\": " << stepsObserved() << ", \"samples\": " << Samples
     << ", \"collections\": " << Collections << ", \"gc_ns\": " << gcNs()
     << ", \"mutator_ns\": " << mutatorNsAt(Now)
     << ", \"alloc_bytes\": " << SC.AllocBytes
     << ", \"alloc_rate_bytes_per_ms\": "
     << fmtFrac(Rate(SC.AllocBytes, LastHbCounters.AllocBytes))
     << ", \"barrier_ops\": " << SC.BarrierOps
     << ", \"barrier_rate_per_ms\": "
     << fmtFrac(Rate(SC.BarrierOps, LastHbCounters.BarrierOps))
     << ", \"remset_entries\": " << SC.RemsetEntries
     << ", \"remset_growth\": "
     << (SC.RemsetEntries >= LastHbCounters.RemsetEntries
             ? SC.RemsetEntries - LastHbCounters.RemsetEntries
             : 0)
     << ", \"sample_rate_per_ms\": "
     << fmtFrac(Rate(Samples, LastHbSamples))
     << ", \"mmu\": {\"1ms\": "
     << fmtFrac(Mmu.cappedMmu(1'000'000, RunStartNs, Now))
     << ", \"10ms\": " << fmtFrac(Mmu.cappedMmu(10'000'000, RunStartNs, Now))
     << ", \"100ms\": "
     << fmtFrac(Mmu.cappedMmu(100'000'000, RunStartNs, Now)) << "}"
     << ", \"tasks\": ";
  writeTasksJson(OS);
  if (St) {
    OS << ", \"counters\": {";
    bool First = true;
    for (const auto &[Name, Value] : St->all()) {
      OS << (First ? "" : ", ") << '"' << Name << "\": " << Value;
      First = false;
    }
    OS << "}";
  }
  OS << "}\n";
  std::string Line = OS.str();
  if (Stream) {
    *Stream << Line;
    Stream->flush();
  }
  if (Agg)
    Agg->noteHeartbeat(Line);
  ++Heartbeats;
  LastHbNs = Now;
  LastHbCounters = SC;
  LastHbSamples = Samples;
}

void Monitor::finish() {
  if (Finished)
    return;
  Finished = true;
  if (RunStartNs != NoTime && RunEndNs == NoTime)
    endRun();
  if (!Stream)
    return;

  std::ostream &OS = *Stream;
  uint64_t Wall = wallNs();
  OS << "{\"type\": \"summary\", \"schema\": " << StreamSchema;
  if (!Label.empty())
    OS << ", \"label\": " << jsonStr(Label);
  OS << ", \"wall_ns\": " << Wall << ", \"mutator_ns\": " << MutatorNsTotal
     << ", \"gc_ns\": " << gcNs() << ", \"collections\": " << Collections
     << ", \"steps\": " << stepsObserved() << ", \"samples\": " << Samples
     << ", \"sample_period_steps\": " << Opts.SamplePeriodSteps
     << ", \"heartbeats\": " << Heartbeats
     << ", \"mutator_fraction\": " << fmtFrac(mutatorFraction())
     << ", \"mmu\": {\"1ms\": " << fmtFrac(mmu(1'000'000))
     << ", \"10ms\": " << fmtFrac(mmu(10'000'000))
     << ", \"100ms\": " << fmtFrac(mmu(100'000'000)) << "}";

  OS << ", \"op_classes\": {";
  for (size_t I = 0; I < NumOpClasses; ++I)
    OS << (I ? ", " : "") << '"' << opClassName((OpClass)I)
       << "\": " << ByClass[I];
  OS << "}";

  // Flat profile, top 64 by samples.
  std::vector<std::pair<uint64_t, uint32_t>> Top;
  for (uint32_t F = 0; F < Flat.size(); ++F)
    if (Flat[F])
      Top.push_back({Flat[F], F});
  std::sort(Top.begin(), Top.end(), std::greater<>());
  if (Top.size() > 64)
    Top.resize(64);
  OS << ", \"profile_flat\": [";
  for (size_t I = 0; I < Top.size(); ++I)
    OS << (I ? ", " : "") << "{\"func\": " << jsonStr(funcName(Top[I].second))
       << ", \"samples\": " << Top[I].first << "}";
  OS << "]";

  // Caller-attributed profile, top 64 edges.
  std::vector<std::pair<uint64_t, uint64_t>> TopEdges;
  for (const auto &[Key, N] : Edges)
    TopEdges.push_back({N, Key});
  std::sort(TopEdges.begin(), TopEdges.end(), std::greater<>());
  if (TopEdges.size() > 64)
    TopEdges.resize(64);
  OS << ", \"profile_callers\": [";
  for (size_t I = 0; I < TopEdges.size(); ++I) {
    uint32_t Caller = (uint32_t)(TopEdges[I].second >> 32);
    uint32_t Callee = (uint32_t)TopEdges[I].second;
    OS << (I ? ", " : "") << "{\"caller\": " << jsonStr(funcName(Caller))
       << ", \"func\": " << jsonStr(funcName(Callee))
       << ", \"samples\": " << TopEdges[I].first << "}";
  }
  OS << "]";

  OS << ", \"tasks\": ";
  writeTasksJson(OS);
  OS << "}\n";
  OS.flush();
}

namespace {

uint64_t ppm(double Frac) {
  if (Frac < 0.0)
    Frac = 0.0;
  if (Frac > 1.0)
    Frac = 1.0;
  return (uint64_t)(Frac * 1e6 + 0.5);
}

} // namespace

void Monitor::publishStats(Stats &Out) const {
  Out.set("mon.samples", Samples);
  Out.set("mon.sample_period_steps", Opts.SamplePeriodSteps);
  Out.set("mon.heartbeats", Heartbeats);
  Out.set("mon.collections", Collections);
  Out.set("mon.wall_ns", wallNs());
  Out.set("mon.mutator_ns", mutatorNsAt(runEndOrNow()));
  Out.set("mon.gc_ns", gcNs());
  Out.set("mon.mutator_fraction_ppm", ppm(mutatorFraction()));
  Out.set("mon.mmu_1ms_ppm", ppm(mmu(1'000'000)));
  Out.set("mon.mmu_10ms_ppm", ppm(mmu(10'000'000)));
  Out.set("mon.mmu_100ms_ppm", ppm(mmu(100'000'000)));
}

std::string Monitor::renderSummary(size_t TopN) const {
  std::ostringstream OS;
  uint64_t Wall = wallNs();
  OS << "[monitor]";
  if (!Label.empty())
    OS << ' ' << Label;
  OS << " wall_ms=" << fmtFrac((double)Wall / 1e6)
     << " mutator_ms=" << fmtFrac((double)MutatorNsTotal / 1e6)
     << " gc_ms=" << fmtFrac((double)gcNs() / 1e6)
     << " mutator_fraction=" << fmtFrac(mutatorFraction())
     << " mmu_1ms=" << fmtFrac(mmu(1'000'000))
     << " mmu_10ms=" << fmtFrac(mmu(10'000'000))
     << " mmu_100ms=" << fmtFrac(mmu(100'000'000))
     << " samples=" << Samples << "\n";
  std::vector<std::pair<uint64_t, uint32_t>> Top;
  for (uint32_t F = 0; F < Flat.size(); ++F)
    if (Flat[F])
      Top.push_back({Flat[F], F});
  std::sort(Top.begin(), Top.end(), std::greater<>());
  if (Top.size() > TopN)
    Top.resize(TopN);
  for (const auto &[N, F] : Top)
    OS << "[monitor]   " << funcName(F) << " samples=" << N << " ("
       << fmtFrac(Samples ? (double)N / (double)Samples : 0.0) << ")\n";
  return OS.str();
}
