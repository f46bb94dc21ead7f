//===- support/Telemetry.h - GC phase spans, histograms, census -*- C++ -*-===//
///
/// \file
/// Per-collection observability for the collectors. The aggregate Stats
/// counters (gc.pause_ns_total/max, set from the closed event below)
/// cannot attribute pause time to the machinery the paper moves work
/// into — the stack walk, the pointer-reversal pass, frame-routine
/// dispatch, type-GC closure construction — so every collector
/// additionally records into a Telemetry instance:
///
///  * **Phase spans.** A switch-clock: entering a phase takes one
///    steady_clock read, which simultaneously closes the interval of the
///    previously active phase and opens the new one. Intervals therefore
///    partition the collection exactly (a nested span *steals* its time
///    from its parent — exclusive accounting), and the per-phase sums add
///    up to the pause time minus only the few instructions outside any
///    span. PhaseScope is the RAII wrapper; re-entering the currently
///    active phase is a no-op (one branch, no clock read), so recursive
///    code can scope itself freely.
///
///  * **Log-bucketed histograms.** Pause and per-phase durations land in
///    power-of-two buckets (value v goes to bucket bit_width(v); bucket k
///    covers [2^(k-1), 2^k - 1], bucket 0 holds zeros). percentile(P)
///    returns min(upper bound of the bucket containing the ceil(P/100 * N)
///    ranked value, observed max) — deterministic and allocation-free.
///
///  * **Heap census.** At every first visit the tracers classify the
///    object (tuple, datatype, closure, ref, raw box, tagged-scan) so each
///    collection records live objects and words per kind — the per-run
///    observable form of the paper's section 4 space tables. Census
///    increments mirror the gc.objects_visited / gc.words_visited counter
///    increments exactly, so (with post-GC verification off) the census
///    totals equal those counters.
///
///  * **Events.** One fixed-size GcEvent per collection, open from
///    beginCollection to finishCollection: the GC path allocates nothing.
///    Closed events fold into cumulative aggregates (histograms, phase
///    totals, census totals) and go to the sinks; none is kept.
///
/// Export paths (all opt-in; the sinks may allocate, the event never does):
/// a structured one-line-per-collection log (`--gc-log`), a streaming
/// Chrome trace_event JSON writer (`--trace-out`, viewable in
/// chrome://tracing or Perfetto), and a counters+histograms+census JSON
/// dump (`--stats-json`).
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SUPPORT_TELEMETRY_H
#define TFGC_SUPPORT_TELEMETRY_H

#include "support/Stats.h"

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <string>

namespace tfgc {

class FlightRing;

/// The phases a collection is attributed to. RootScan doubles as the
/// catch-all for collector work not inside a finer span (loop control,
/// counter flushes), so the spans cover the whole pause.
enum class GcPhase : uint8_t {
  RootScan,       ///< Stack/root scanning and span slack.
  PtrReversal,    ///< Goldberg pass 1 / Appel dynamic-chain resolution.
  FrameDispatch,  ///< Frame routine / frame descriptor dispatch.
  TgClosureBuild, ///< Type-GC closure construction (TypeGcEngine::eval).
  CopySweep,      ///< Space flip + copy bookkeeping, or mark reset + sweep.
  RemsetScan,     ///< Remembered-set roots (generational minor collections).
  Verify,         ///< Post-GC read-only verification pass.
  NumPhases
};
inline constexpr size_t NumGcPhases = (size_t)GcPhase::NumPhases;
const char *gcPhaseName(GcPhase P);

/// What a collection covered. Full-heap algorithms record Full;
/// the generational algorithm splits collections into Minor (nursery
/// only, remembered set as extra roots) and Major (both generations) so
/// the pause histograms can be compared per generation.
enum class GcEventKind : uint8_t { Full, Minor, Major, NumKinds };
inline constexpr size_t NumGcEventKinds = (size_t)GcEventKind::NumKinds;
const char *gcEventKindName(GcEventKind K);

/// Census classification of a live object at its first visit.
enum class CensusKind : uint8_t {
  Tuple,      ///< Tuples / records (compiled Record routine, Tuple desc).
  Data,       ///< Datatype values (discriminant + fields).
  Closure,    ///< Function closures (code address + environment).
  Ref,        ///< Ref cells.
  Raw,        ///< Pointer-free boxes (tagged-model float boxes).
  TaggedScan, ///< Tagged-model Scan objects (headers carry no finer kind).
  NumKinds
};
inline constexpr size_t NumCensusKinds = (size_t)CensusKind::NumKinds;
const char *censusKindName(CensusKind K);

/// Thread-local census accumulator for parallel trace workers: each worker
/// counts first visits into its own instance (no shared-memory traffic on
/// the visit path), and the collecting thread merges them into the
/// telemetry event with Telemetry::censusBulk after the workers join.
struct CensusCounts {
  std::array<uint64_t, NumCensusKinds> Objects{};
  std::array<uint64_t, NumCensusKinds> Words{};

  void record(CensusKind K, uint64_t W) {
    ++Objects[(size_t)K];
    Words[(size_t)K] += W;
  }
};

/// Power-of-two-bucketed histogram of uint64 samples (durations in ns).
/// Fixed storage, O(1) record, no allocation.
class LogHistogram {
public:
  /// Bucket 0 holds zeros; bucket k >= 1 holds [2^(k-1), 2^k - 1].
  static constexpr size_t NumBuckets = 65;

  static size_t bucketIndex(uint64_t V) {
    return V == 0 ? 0 : (size_t)std::bit_width(V);
  }
  static uint64_t bucketLo(size_t I) {
    return I == 0 ? 0 : (uint64_t)1 << (I - 1);
  }
  static uint64_t bucketHi(size_t I) {
    if (I == 0)
      return 0;
    return I >= 64 ? UINT64_MAX : ((uint64_t)1 << I) - 1;
  }

  void record(uint64_t V) {
    ++Counts[bucketIndex(V)];
    ++N;
    Total += V;
    if (V > MaxV)
      MaxV = V;
    if (V < MinV)
      MinV = V;
  }

  uint64_t count() const { return N; }
  uint64_t sum() const { return Total; }
  uint64_t max() const { return N ? MaxV : 0; }
  uint64_t min() const { return N ? MinV : 0; }
  uint64_t bucketCount(size_t I) const { return Counts[I]; }

  /// The value at percentile \p P in [0, 100]: the upper bound of the
  /// bucket containing the rank-ceil(P/100*count) sample (rank clamped to
  /// [1, count]), clamped to the observed maximum. 0 when empty.
  uint64_t percentile(double P) const;

  void clear() { *this = LogHistogram(); }

private:
  std::array<uint64_t, NumBuckets> Counts{};
  uint64_t N = 0;
  uint64_t Total = 0;
  uint64_t MaxV = 0;
  uint64_t MinV = UINT64_MAX;
};

/// One collection's record. Fixed size: the open event lives in the
/// Telemetry.
struct GcEvent {
  uint64_t Seq = 0;     ///< Collection ordinal (0-based, monotonic).
  uint64_t StartNs = 0; ///< Start time, ns since the Telemetry epoch.
  uint64_t PauseNs = 0; ///< Full pause (includes the verify phase).
  GcEventKind Kind = GcEventKind::Full;
  /// Chrome-trace track of the collecting thread (1 + task index under
  /// --threads; 1 for sequential/cooperative runs).
  uint64_t Tid = 1;
  std::array<uint64_t, NumGcPhases> PhaseNs{};
  std::array<uint64_t, NumCensusKinds> CensusObjects{};
  std::array<uint64_t, NumCensusKinds> CensusWords{};
  uint64_t LiveWordsAfter = 0;          ///< Heap survivor hook.
  uint64_t HeapCapacityBytesAfter = 0;

  uint64_t phaseNsSum() const {
    uint64_t S = 0;
    for (uint64_t V : PhaseNs)
      S += V;
    return S;
  }
  uint64_t censusObjects() const {
    uint64_t S = 0;
    for (uint64_t V : CensusObjects)
      S += V;
    return S;
  }
  uint64_t censusWords() const {
    uint64_t S = 0;
    for (uint64_t V : CensusWords)
      S += V;
    return S;
  }
};

/// Receives every completed collection event as it is folded into the
/// aggregates (support/Monitor.h consumes these to maintain MMU curves).
/// The callback runs inside the pause, after the event is closed; it must
/// not re-enter the Telemetry.
class GcEventSink {
public:
  virtual ~GcEventSink() = default;
  virtual void onGcEvent(const GcEvent &E) = 0;
};

class Telemetry {
public:
  Telemetry();

  /// Nanoseconds since this Telemetry was constructed — the timebase of
  /// GcEvent::StartNs, exposed so mutator-side interval timestamps (the
  /// monitor's MMU accounting) share the epoch of the pause spans.
  uint64_t nowNs() const;

  /// Registers \p S (nullptr disables) to observe every completed
  /// collection event.
  void setEventSink(GcEventSink *S) { Sink = S; }

  /// Attaches the flight recorder's GC ring (nullptr disables): every
  /// beginCollection / switchPhase / finishCollection is mirrored as a
  /// GcBegin / GcPhase / GcEnd event, putting collection internals on the
  /// same timeline as the per-thread park/refill events. Emission is
  /// race-free for free: these calls only happen on the collecting thread
  /// inside the pause (or on the single thread of a sequential run).
  void setFlightRing(FlightRing *R) { Flight = R; }

  /// Chrome-trace track for subsequent collections. The threaded runtime
  /// sets 1 + task-index before collecting so each pause lands on the
  /// collecting thread's track; sequential runs keep the default 1 (their
  /// traces stay byte-identical to the pre-flight-recorder output).
  void setTraceTid(uint64_t T) { TraceTid = T; }

  /// Declares \p N mutator threads so beginTrace emits one thread_name
  /// metadata line per track (tids 1..N) — the trace then shows a track
  /// per thread even for threads that never collect. 0 (default) keeps
  /// the single implicit track.
  void declareThreads(unsigned N) { DeclaredThreads = N; }

  // -- Collection lifecycle (driven by Collector::collect) ------------------
  void beginCollection(GcEventKind Kind = GcEventKind::Full);
  /// Closes the event: records the pause, folds the event into the
  /// histograms/totals, and feeds the log/trace/event sinks. Returns the
  /// closed event (valid until the next beginCollection). \p
  /// LiveWordsAfter comes from the heap survivor hooks.
  const GcEvent &finishCollection(uint64_t LiveWordsAfter,
                                  uint64_t HeapCapacityBytesAfter);
  bool inCollection() const { return InCollection; }

  // -- Phase switch-clock ---------------------------------------------------
  GcPhase currentPhase() const { return Cur; }
  /// Closes the current phase's interval and opens \p P; returns the
  /// previous phase. One clock read. No-op outside a collection or while
  /// paused.
  GcPhase switchPhase(GcPhase P);
  /// While paused, phase switches and census increments are ignored (used
  /// by the post-GC verify pass, which re-runs the tracing code).
  void setPaused(bool P) { Paused = P; }
  bool paused() const { return Paused; }

  // -- Census ---------------------------------------------------------------
  void census(CensusKind K, uint64_t Words) {
    if (!InCollection || Paused)
      return;
    ++Event.CensusObjects[(size_t)K];
    Event.CensusWords[(size_t)K] += Words;
  }

  /// Merges a parallel worker's thread-local census into the current
  /// collection event (same guard as census(); called by the collecting
  /// thread after the workers join, still inside the pause).
  void censusBulk(const CensusCounts &C) {
    if (!InCollection || Paused)
      return;
    for (size_t K = 0; K < NumCensusKinds; ++K) {
      Event.CensusObjects[K] += C.Objects[K];
      Event.CensusWords[K] += C.Words[K];
    }
  }

  // -- Tasking --------------------------------------------------------------
  /// Delay between a task's GC request and the actual world stop.
  void recordWorldStopDelay(uint64_t Ns) { WorldStopDelayHist.record(Ns); }
  const LogHistogram &worldStopDelayHistogram() const {
    return WorldStopDelayHist;
  }

  // -- Inspection -----------------------------------------------------------
  uint64_t collections() const { return TotalCollections; }
  const LogHistogram &pauseHistogram() const { return PauseHist; }
  /// Pause histogram restricted to collections of \p K (minor vs major
  /// pause percentiles under the generational algorithm).
  const LogHistogram &pauseHistogram(GcEventKind K) const {
    return PauseKindHists[(size_t)K];
  }
  uint64_t collections(GcEventKind K) const {
    return PauseKindHists[(size_t)K].count();
  }
  const LogHistogram &phaseHistogram(GcPhase P) const {
    return PhaseHists[(size_t)P];
  }
  uint64_t pauseNsTotal() const { return PauseHist.sum(); }
  uint64_t phaseNsTotal(GcPhase P) const { return PhaseTotals[(size_t)P]; }
  uint64_t censusObjectsTotal(CensusKind K) const {
    return CensusObjTotals[(size_t)K];
  }
  uint64_t censusWordsTotal(CensusKind K) const {
    return CensusWordTotals[(size_t)K];
  }
  uint64_t censusObjectsTotal() const;
  uint64_t censusWordsTotal() const;

  // -- Export ---------------------------------------------------------------
  /// Shown in log lines and trace events (e.g. the strategy name).
  void setLabel(std::string L) { Label = std::move(L); }
  /// One structured `[gc] key=value ...` line per collection to \p F
  /// (nullptr disables).
  void setLogStream(std::FILE *F) { LogStream = F; }
  /// Starts streaming Chrome trace_event JSON to \p OS: every subsequent
  /// collection appends one duration event for the collection and one per
  /// nonzero phase (phases are laid out sequentially inside the collection
  /// in enum order; fragment interleaving is aggregated away). endTrace()
  /// closes the JSON document.
  void beginTrace(std::ostream &OS);
  void endTrace();
  /// Full JSON dump: Stats counters, pause/phase/world-stop histograms,
  /// and census totals.
  void writeStatsJson(std::ostream &OS, const Stats &St) const;

private:
  void emitLogLine(const GcEvent &E) const;
  void emitTraceEvents(const GcEvent &E);

  GcEvent Event;
  uint64_t TotalCollections = 0;
  GcPhase Cur = GcPhase::NumPhases; ///< NumPhases = no active phase.
  uint64_t LastMarkNs = 0;
  bool InCollection = false;
  bool Paused = false;
  std::chrono::steady_clock::time_point Epoch;

  LogHistogram PauseHist;
  std::array<LogHistogram, NumGcEventKinds> PauseKindHists;
  std::array<LogHistogram, NumGcPhases> PhaseHists;
  LogHistogram WorldStopDelayHist;
  std::array<uint64_t, NumGcPhases> PhaseTotals{};
  std::array<uint64_t, NumCensusKinds> CensusObjTotals{};
  std::array<uint64_t, NumCensusKinds> CensusWordTotals{};

  std::string Label;
  std::FILE *LogStream = nullptr;
  std::ostream *TraceStream = nullptr;
  bool TraceFirstEvent = true;
  GcEventSink *Sink = nullptr;
  FlightRing *Flight = nullptr;
  uint64_t TraceTid = 1;
  unsigned DeclaredThreads = 0;
};

/// RAII phase span. Construction switches the telemetry (if any) into
/// phase \p P; destruction restores the previous phase. Entering the
/// already-active phase is free (no clock read), so recursive spans cost
/// one branch.
class PhaseScope {
public:
  PhaseScope(Telemetry *T, GcPhase P) {
    if (T && !T->paused() && T->inCollection() && T->currentPhase() != P) {
      Tel = T;
      Prev = T->switchPhase(P);
    }
  }
  ~PhaseScope() {
    if (Tel)
      Tel->switchPhase(Prev);
  }
  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
  Telemetry *Tel = nullptr;
  GcPhase Prev = GcPhase::NumPhases;
};

} // namespace tfgc

#endif // TFGC_SUPPORT_TELEMETRY_H
