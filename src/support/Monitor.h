//===- support/Monitor.h - Mutator-side observability -----------*- C++ -*-===//
///
/// \file
/// Always-available, off-by-default mutator observability. The paper's
/// claim is that tag-free collection costs the *mutator* nothing; the
/// telemetry layer (Telemetry.h) can only see the collector side of that
/// bargain. The Monitor watches the other side:
///
///  * **Sampling profiler.** The VM dispatch loop keeps a fuel counter
///    and calls recordSample() every samplePeriodSteps() instructions
///    (one decrement + one never-taken branch when no monitor is
///    attached — the same disabled-by-null discipline as the heap
///    profiler's alloc hook). Each sample attributes the current step to
///    its function, its caller (via the frame's dynamic link), and an
///    opcode class, yielding flat and caller-attributed profiles without
///    any per-call bookkeeping.
///
///  * **MMU tracker.** The Monitor registers as the Telemetry's event
///    sink, so every collection's (start, pause) span arrives on the
///    telemetry timebase; mutator intervals are accumulated explicitly
///    between spans. From the span list it computes Minimum Mutator
///    Utilization — the worst-case fraction of any wall-clock window the
///    mutator gets to run — at 1/10/100 ms windows, plus the overall
///    mutator/GC split. Because mutator and GC time are accumulated
///    independently, `mutator_ns + gc_ns ≈ wall_ns` is a real invariant:
///    a missed or double-counted span breaks it (tools/monitor_report.py
///    --check enforces >95% coverage).
///
///  * **Rate timeline + live streaming.** With a stream attached
///    (`--monitor-out=FILE`), sample points additionally emit
///    schema-versioned JSONL heartbeats every heartbeat period: the
///    current Stats snapshot, allocation/barrier/remset rates over the
///    elapsed bucket, MMU so far, and per-task step / world-stop-delay
///    numbers. A final summary record (MMU curves, flat and caller
///    profiles, opcode-class mix) is flushed through the same
///    abnormal-exit artifact path as the other diagnostics.
///
/// The support layer does not depend on the IR: function identity is a
/// plain index (names installed via setFunctionNames) and the VM maps
/// opcodes onto the coarse OpClass enum below.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SUPPORT_MONITOR_H
#define TFGC_SUPPORT_MONITOR_H

#include "support/Stats.h"
#include "support/Telemetry.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

namespace tfgc {

class EpochAggregator;

/// Coarse instruction classes for sample attribution (the VM maps each
/// Opcode onto one of these; the support layer never sees the IR).
enum class OpClass : uint8_t {
  Load,       ///< Constants and register moves.
  Prim,       ///< Arithmetic/comparison primitives and print.
  Alloc,      ///< Heap-allocating instructions (tuple/data/closure/ref).
  HeapAccess, ///< Field/tag reads, ref load/store, closure patching.
  Branch,     ///< Jumps and conditional branches.
  Call,       ///< Calls (direct and indirect) and returns.
  Other,
  NumClasses
};
inline constexpr size_t NumOpClasses = (size_t)OpClass::NumClasses;
const char *opClassName(OpClass C);

/// Non-overlapping GC pause intervals plus the MMU query over them.
/// Separate from the Monitor so the window math is unit-testable on
/// synthetic span sequences.
class MmuTracker {
public:
  /// Appends a pause [StartNs, EndNs). Pauses must arrive in time order
  /// (collections are sequential); an overlapping start is clamped.
  void addPause(uint64_t StartNs, uint64_t EndNs);

  size_t pauses() const { return Starts.size(); }
  uint64_t gcNsTotal() const { return Prefix.empty() ? 0 : Prefix.back(); }

  /// Total GC time overlapping the half-open interval [T0, T1).
  uint64_t gcNsIn(uint64_t T0, uint64_t T1) const;

  /// Minimum mutator utilization: the minimum, over every window of
  /// WindowNs within [T0, T1), of the fraction of the window the mutator
  /// ran. When the whole interval is shorter than the window, the
  /// interval's overall utilization is returned. 1.0 with no pauses.
  double mmu(uint64_t WindowNs, uint64_t T0, uint64_t T1) const;

  /// mmu() capped by the utilization of [T0, T1) as a whole, what the
  /// Monitor reports. The whole interval is itself a window at least
  /// WindowNs long, so the cap is still a minimum over windows of WindowNs
  /// or longer. mmu() alone is not monotone in the window when the
  /// interval is not a whole number of windows; with the cap, a curve over
  /// windows that tile each other (1, 10, 100 ms) is.
  double cappedMmu(uint64_t WindowNs, uint64_t T0, uint64_t T1) const;

private:
  // Parallel arrays, sorted, non-overlapping. Prefix[i] is the total
  // duration of pauses [0, i) so any clipped range sum is O(log n).
  std::vector<uint64_t> Starts;
  std::vector<uint64_t> Ends;
  std::vector<uint64_t> Prefix;
};

struct MonitorOptions {
  /// VM steps between profiler samples.
  uint64_t SamplePeriodSteps = 512;
  /// Heartbeat period for the JSONL stream.
  uint64_t HeartbeatPeriodMs = 50;
};

/// The mutator-side monitor. Attach with Collector::setMonitor() *before*
/// constructing VMs (the VM caches the sample period at construction,
/// like the zero-frames flag).
class Monitor : public GcEventSink {
public:
  /// Caller index meaning "no caller" (the oldest frame).
  static constexpr uint32_t NoFunc = 0xffffffffu;
  static constexpr int StreamSchema = 1;

  using Options = MonitorOptions;

  /// Counters the VM hands over at each sample point (cheap reads there;
  /// the monitor derives per-bucket rates from consecutive snapshots).
  struct SampleCounters {
    uint64_t Steps = 0;         ///< This VM's step count.
    uint64_t AllocBytes = 0;    ///< Collector-wide bytes allocated.
    uint64_t BarrierOps = 0;    ///< Collector-wide write-barrier tests.
    uint64_t RemsetEntries = 0; ///< Remembered-set entries recorded.
  };

  explicit Monitor(Options O = {});

  // -- Wiring ---------------------------------------------------------------
  /// Adopts \p T's epoch as the timebase and registers as its event sink
  /// (Collector::setMonitor does this).
  void attachTelemetry(Telemetry *T);
  void setFunctionNames(std::vector<std::string> Names) {
    FuncNames = std::move(Names);
  }
  void setLabel(std::string L) { Label = std::move(L); }
  /// Stats registry snapshotted into heartbeats (not owned; may be null).
  void setStats(const Stats *S) { St = S; }
  /// Starts JSONL streaming: writes the header record immediately,
  /// heartbeats from sample points, and the summary record at finish().
  void setStream(std::ostream *OS);
  /// Attaches the epoch aggregator (not owned; may be null). With an
  /// aggregator, every heartbeat becomes a Heartbeat safepoint: the
  /// shards are folded into a new epoch *before* the record is built, and
  /// the rendered line is forwarded to the introspection server's
  /// /heartbeat — heartbeats fire even without a --monitor-out stream.
  void setAggregator(EpochAggregator *A) { Agg = A; }

  uint64_t samplePeriodSteps() const { return Opts.SamplePeriodSteps; }
  uint64_t heartbeatPeriodMs() const { return Opts.HeartbeatPeriodMs; }

  // -- Run lifecycle (driven by the VM) -------------------------------------
  /// First call stamps the run's start; later calls (other tasks) are
  /// no-ops.
  void beginRun();
  /// Accumulates the mutator interval since the last GC/endRun and stamps
  /// the run's end; safe to call once per task.
  void endRun();

  // -- Sample point (hot-ish: once per samplePeriodSteps VM steps) ----------
  void recordSample(uint32_t Func, uint32_t Caller, OpClass C,
                    uint32_t TaskIdx, const SampleCounters &SC);

  // -- Tasking --------------------------------------------------------------
  /// A task reached its GC safe point \p DelayNs after the world stop was
  /// requested.
  void recordTaskStopDelay(uint32_t TaskIdx, uint64_t DelayNs);
  /// Exact final step count for a task (recorded at counter flush;
  /// sample-time counts are only period-granular).
  void noteTaskSteps(uint32_t TaskIdx, uint64_t Steps);

  // -- GcEventSink ----------------------------------------------------------
  void onGcEvent(const GcEvent &E) override;

  // -- Inspection -----------------------------------------------------------
  uint64_t samples() const { return Samples; }
  uint64_t heartbeatsEmitted() const { return Heartbeats; }
  uint64_t collectionsSeen() const { return Collections; }
  uint64_t stepsObserved() const;
  uint64_t flatSamples(uint32_t Func) const {
    return Func < Flat.size() ? Flat[Func] : 0;
  }
  uint64_t opClassSamples(OpClass C) const { return ByClass[(size_t)C]; }
  uint64_t wallNs() const;
  uint64_t mutatorNs() const { return MutatorNsTotal; }
  uint64_t gcNs() const { return Mmu.gcNsTotal(); }
  /// mutator_ns / wall_ns (1.0 before any wall-clock has elapsed).
  double mutatorFraction() const;
  /// MMU over the run window so far, capped by the run's utilization
  /// (MmuTracker::cappedMmu), as every record reports it.
  double mmu(uint64_t WindowNs) const;
  const MmuTracker &mmuTracker() const { return Mmu; }

  // -- Output ---------------------------------------------------------------
  /// Emits the final summary record and flushes the stream. Idempotent;
  /// called from the driver's artifact-flush path so abnormal exits keep
  /// the stream complete.
  void finish();
  /// Publishes mon.* counters (samples, MMU in ppm, mutator/GC split)
  /// into \p Out; Collector::publishTelemetryStats calls this.
  void publishStats(Stats &Out) const;
  /// Human-readable summary: mutator/GC split, MMU row, top-N functions.
  std::string renderSummary(size_t TopN = 10) const;

private:
  uint64_t nowNs() const;
  uint64_t runEndOrNow() const;
  /// Mutator time including the currently open interval at \p Now.
  uint64_t mutatorNsAt(uint64_t Now) const;
  void emitHeader();
  void emitHeartbeat(uint64_t Now, const SampleCounters &SC);
  void writeTasksJson(std::ostream &OS) const;
  const std::string &funcName(uint32_t Func) const;

  Options Opts;
  Telemetry *Tel = nullptr;
  const Stats *St = nullptr;
  EpochAggregator *Agg = nullptr;
  std::ostream *Stream = nullptr;
  std::vector<std::string> FuncNames;
  std::string Label;

  // Fallback epoch when no telemetry is attached (unit tests).
  std::chrono::steady_clock::time_point OwnEpoch;

  // Run window + mutator/GC interval accounting, all on the telemetry
  // epoch. LastResumeNs is the start of the currently open mutator
  // interval.
  static constexpr uint64_t NoTime = UINT64_MAX;
  uint64_t RunStartNs = NoTime;
  uint64_t RunEndNs = NoTime;
  uint64_t LastResumeNs = NoTime;
  uint64_t MutatorNsTotal = 0;
  uint64_t Collections = 0;
  MmuTracker Mmu;

  // Profile accumulators.
  uint64_t Samples = 0;
  std::vector<uint64_t> Flat;                      ///< Indexed by function.
  std::unordered_map<uint64_t, uint64_t> Edges;    ///< caller<<32 | callee.
  std::array<uint64_t, NumOpClasses> ByClass{};

  // Per-task cells (grown on first touch).
  struct TaskCell {
    uint64_t Steps = 0;
    uint64_t Samples = 0;
    LogHistogram StopDelay;
  };
  std::vector<TaskCell> Tasks;

  // Heartbeat state: previous bucket's counter snapshot for rates.
  uint64_t HeartbeatSeq = 0;
  uint64_t Heartbeats = 0;
  uint64_t LastHbNs = NoTime;
  SampleCounters LastHbCounters;
  uint64_t LastHbSamples = 0;
  bool Finished = false;
};

} // namespace tfgc

#endif // TFGC_SUPPORT_MONITOR_H
