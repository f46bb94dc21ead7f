//===- support/Telemetry.cpp ----------------------------------------------===//

#include "support/Telemetry.h"

#include "support/BuildInfo.h"
#include "support/FlightRecorder.h"

#include <cassert>
#include <cmath>
#include <ostream>

using namespace tfgc;

const char *tfgc::gcPhaseName(GcPhase P) {
  switch (P) {
  case GcPhase::RootScan:       return "root_scan";
  case GcPhase::PtrReversal:    return "ptr_reversal";
  case GcPhase::FrameDispatch:  return "frame_dispatch";
  case GcPhase::TgClosureBuild: return "tg_closure_build";
  case GcPhase::CopySweep:      return "copy_sweep";
  case GcPhase::RemsetScan:     return "remset_scan";
  case GcPhase::Verify:         return "verify";
  case GcPhase::NumPhases:      break;
  }
  return "?";
}

const char *tfgc::gcEventKindName(GcEventKind K) {
  switch (K) {
  case GcEventKind::Full:     return "full";
  case GcEventKind::Minor:    return "minor";
  case GcEventKind::Major:    return "major";
  case GcEventKind::NumKinds: break;
  }
  return "?";
}

const char *tfgc::censusKindName(CensusKind K) {
  switch (K) {
  case CensusKind::Tuple:      return "tuple";
  case CensusKind::Data:       return "data";
  case CensusKind::Closure:    return "closure";
  case CensusKind::Ref:        return "ref";
  case CensusKind::Raw:        return "raw";
  case CensusKind::TaggedScan: return "tagged_scan";
  case CensusKind::NumKinds:   break;
  }
  return "?";
}

uint64_t LogHistogram::percentile(double P) const {
  if (N == 0)
    return 0;
  double Frac = P / 100.0;
  if (Frac < 0.0)
    Frac = 0.0;
  if (Frac > 1.0)
    Frac = 1.0;
  uint64_t Rank = (uint64_t)std::ceil(Frac * (double)N);
  if (Rank < 1)
    Rank = 1;
  uint64_t Seen = 0;
  for (size_t I = 0; I < NumBuckets; ++I) {
    Seen += Counts[I];
    if (Seen >= Rank) {
      uint64_t Hi = bucketHi(I);
      return Hi < MaxV ? Hi : MaxV;
    }
  }
  return MaxV;
}

Telemetry::Telemetry() : Epoch(std::chrono::steady_clock::now()) {}

uint64_t Telemetry::nowNs() const {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void Telemetry::beginCollection(GcEventKind Kind) {
  assert(!InCollection && "collection already open");
  Event = GcEvent{};
  Event.Kind = Kind;
  Event.Tid = TraceTid;
  Event.Seq = TotalCollections;
  Event.StartNs = nowNs();
  LastMarkNs = Event.StartNs;
  Cur = GcPhase::NumPhases;
  Paused = false;
  InCollection = true;
  if (Flight) [[unlikely]]
    Flight->record(FlightEventType::GcBegin, (uint32_t)Kind, Event.Seq);
}

GcPhase Telemetry::switchPhase(GcPhase P) {
  if (!InCollection || Paused)
    return Cur;
  uint64_t Now = nowNs();
  if (Cur != GcPhase::NumPhases)
    Event.PhaseNs[(size_t)Cur] += Now - LastMarkNs;
  LastMarkNs = Now;
  GcPhase Prev = Cur;
  Cur = P;
  if (Flight) [[unlikely]]
    Flight->record(FlightEventType::GcPhase, (uint32_t)P, (uint64_t)Prev);
  return Prev;
}

const GcEvent &Telemetry::finishCollection(uint64_t LiveWordsAfter,
                                           uint64_t HeapCapacityBytesAfter) {
  assert(InCollection && "no collection open");
  uint64_t Now = nowNs();
  if (Cur != GcPhase::NumPhases && !Paused)
    Event.PhaseNs[(size_t)Cur] += Now - LastMarkNs;
  Cur = GcPhase::NumPhases;
  Event.PauseNs = Now - Event.StartNs;
  Event.LiveWordsAfter = LiveWordsAfter;
  Event.HeapCapacityBytesAfter = HeapCapacityBytesAfter;

  PauseHist.record(Event.PauseNs);
  PauseKindHists[(size_t)Event.Kind].record(Event.PauseNs);
  for (size_t I = 0; I < NumGcPhases; ++I) {
    PhaseHists[I].record(Event.PhaseNs[I]);
    PhaseTotals[I] += Event.PhaseNs[I];
  }
  for (size_t I = 0; I < NumCensusKinds; ++I) {
    CensusObjTotals[I] += Event.CensusObjects[I];
    CensusWordTotals[I] += Event.CensusWords[I];
  }

  if (LogStream)
    emitLogLine(Event);
  if (TraceStream)
    emitTraceEvents(Event);

  ++TotalCollections;
  InCollection = false;
  if (Flight) [[unlikely]]
    Flight->record(FlightEventType::GcEnd, (uint32_t)Event.Kind, Event.PauseNs,
                   Event.Seq);
  if (Sink)
    Sink->onGcEvent(Event);
  return Event;
}

uint64_t Telemetry::censusObjectsTotal() const {
  uint64_t S = 0;
  for (uint64_t V : CensusObjTotals)
    S += V;
  return S;
}

uint64_t Telemetry::censusWordsTotal() const {
  uint64_t S = 0;
  for (uint64_t V : CensusWordTotals)
    S += V;
  return S;
}

void Telemetry::emitLogLine(const GcEvent &E) const {
  std::fprintf(LogStream, "[gc]%s%s seq=%llu kind=%s pause_ns=%llu",
               Label.empty() ? "" : " ", Label.c_str(),
               (unsigned long long)E.Seq, gcEventKindName(E.Kind),
               (unsigned long long)E.PauseNs);
  for (size_t I = 0; I < NumGcPhases; ++I)
    if (E.PhaseNs[I])
      std::fprintf(LogStream, " %s_ns=%llu", gcPhaseName((GcPhase)I),
                   (unsigned long long)E.PhaseNs[I]);
  for (size_t I = 0; I < NumCensusKinds; ++I)
    if (E.CensusObjects[I])
      std::fprintf(LogStream, " census_%s=%llu/%llu",
                   censusKindName((CensusKind)I),
                   (unsigned long long)E.CensusObjects[I],
                   (unsigned long long)E.CensusWords[I]);
  std::fprintf(LogStream, " live_words=%llu cap_bytes=%llu\n",
               (unsigned long long)E.LiveWordsAfter,
               (unsigned long long)E.HeapCapacityBytesAfter);
}

namespace {

/// Chrome trace timestamps are microseconds; keep ns resolution as a
/// fractional part.
std::string usStr(uint64_t Ns) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03u",
                (unsigned long long)(Ns / 1000), (unsigned)(Ns % 1000));
  return Buf;
}

} // namespace

void Telemetry::beginTrace(std::ostream &OS) {
  assert(!TraceStream && "trace already started");
  TraceStream = &OS;
  TraceFirstEvent = true;
  OS << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
     << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
        "\"args\": {\"name\": \"tfgc"
     << (Label.empty() ? "" : " ") << Label << "\"}}";
  // Under --threads, name one track per mutator so the trace shows every
  // thread even before (or without) it ever running a collection.
  // Sequential runs declare nothing, keeping their traces byte-identical.
  for (unsigned I = 0; I < DeclaredThreads; ++I)
    OS << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << (1 + I) << ", \"args\": {\"name\": \"task " << I << "\"}}";
  TraceFirstEvent = false;
}

void Telemetry::emitTraceEvents(const GcEvent &E) {
  std::ostream &OS = *TraceStream;
  auto Sep = [&] { OS << (TraceFirstEvent ? "" : ",\n"); TraceFirstEvent = false; };
  Sep();
  // Full-heap collections keep the historical event name; the
  // generational kinds get their own so minor/major pauses are separable
  // in the trace viewer.
  const char *Name = E.Kind == GcEventKind::Minor   ? "gc.minor"
                     : E.Kind == GcEventKind::Major ? "gc.major"
                                                    : "gc.collection";
  OS << "{\"name\": \"" << Name << "\", \"cat\": \"gc\", \"ph\": \"X\", "
     << "\"ts\": " << usStr(E.StartNs) << ", \"dur\": " << usStr(E.PauseNs)
     << ", \"pid\": 1, \"tid\": " << E.Tid << ", \"args\": {\"seq\": " << E.Seq
     << ", \"kind\": \"" << gcEventKindName(E.Kind) << '"'
     << ", \"live_words\": " << E.LiveWordsAfter
     << ", \"capacity_bytes\": " << E.HeapCapacityBytesAfter
     << ", \"census_objects\": " << E.censusObjects()
     << ", \"census_words\": " << E.censusWords() << "}}";
  // Phases are recorded as per-phase aggregates, so lay them out
  // sequentially (enum order) inside the collection event; their sum is
  // the instrumented portion of the pause.
  uint64_t Cursor = E.StartNs;
  for (size_t I = 0; I < NumGcPhases; ++I) {
    if (!E.PhaseNs[I])
      continue;
    Sep();
    OS << "{\"name\": \"" << gcPhaseName((GcPhase)I)
       << "\", \"cat\": \"gc.phase\", \"ph\": \"X\", \"ts\": "
       << usStr(Cursor) << ", \"dur\": " << usStr(E.PhaseNs[I])
       << ", \"pid\": 1, \"tid\": " << E.Tid << "}";
    Cursor += E.PhaseNs[I];
  }
  // Flush per event: a crashed or aborted run still leaves every
  // completed collection in the trace file (endTrace only appends the
  // closing bracket, which Perfetto tolerates missing).
  OS.flush();
}

void Telemetry::endTrace() {
  if (!TraceStream)
    return;
  *TraceStream << "\n]}\n";
  TraceStream = nullptr;
}

namespace {

void histJson(std::ostream &OS, const LogHistogram &H) {
  OS << "{\"count\": " << H.count() << ", \"sum\": " << H.sum()
     << ", \"min\": " << H.min() << ", \"max\": " << H.max()
     << ", \"p50\": " << H.percentile(50) << ", \"p90\": " << H.percentile(90)
     << ", \"p99\": " << H.percentile(99) << ", \"buckets\": [";
  bool First = true;
  for (size_t I = 0; I < LogHistogram::NumBuckets; ++I) {
    if (!H.bucketCount(I))
      continue;
    OS << (First ? "" : ", ") << "{\"lo\": " << LogHistogram::bucketLo(I)
       << ", \"hi\": " << LogHistogram::bucketHi(I)
       << ", \"count\": " << H.bucketCount(I) << "}";
    First = false;
  }
  OS << "]}";
}

} // namespace

void Telemetry::writeStatsJson(std::ostream &OS, const Stats &St) const {
  OS << "{\n  \"schema\": 1,\n";
  if (!Label.empty())
    OS << "  \"label\": \"" << Label << "\",\n";
  const BuildInfo &BI = buildInfo();
  OS << "  \"build\": {\"git_sha\": \"" << BI.GitSha << "\", \"dispatch\": \""
     << BI.Dispatch << "\", \"sanitizer\": \"" << BI.Sanitizer
     << "\", \"build_type\": \"" << BI.BuildType << "\"},\n";
  OS << "  \"collections\": " << TotalCollections << ",\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : St.all()) {
    OS << (First ? "" : ", ") << '"' << Name << "\": " << Value;
    First = false;
  }
  OS << "},\n  \"collections_minor\": "
     << PauseKindHists[(size_t)GcEventKind::Minor].count()
     << ",\n  \"collections_major\": "
     << PauseKindHists[(size_t)GcEventKind::Major].count()
     << ",\n  \"pause_histogram\": ";
  histJson(OS, PauseHist);
  for (GcEventKind K : {GcEventKind::Minor, GcEventKind::Major}) {
    if (!PauseKindHists[(size_t)K].count())
      continue;
    OS << ",\n  \"pause_histogram_" << gcEventKindName(K) << "\": ";
    histJson(OS, PauseKindHists[(size_t)K]);
  }
  OS << ",\n  \"phase_histograms\": {";
  for (size_t I = 0; I < NumGcPhases; ++I) {
    OS << (I ? ", " : "") << '"' << gcPhaseName((GcPhase)I) << "\": ";
    histJson(OS, PhaseHists[I]);
  }
  OS << "},\n";
  if (WorldStopDelayHist.count()) {
    OS << "  \"world_stop_delay_histogram\": ";
    histJson(OS, WorldStopDelayHist);
    OS << ",\n";
  }
  OS << "  \"census_totals\": {";
  for (size_t I = 0; I < NumCensusKinds; ++I) {
    OS << (I ? ", " : "") << '"' << censusKindName((CensusKind)I)
       << "\": {\"objects\": " << CensusObjTotals[I]
       << ", \"words\": " << CensusWordTotals[I] << "}";
  }
  OS << "}\n}\n";
}
