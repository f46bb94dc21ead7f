//===- core/Collector.h - Collector interface -------------------*- C++ -*-===//
///
/// \file
/// Base class for all collectors. A collector owns the heap (semispace or
/// mark-sweep), provides mutator allocation, and implements root tracing
/// according to its strategy:
///
///   TaggedCollector      program-independent scan by tag bits + headers
///   GoldbergCollector    the paper's tag-free method (compiled or
///                        interpreted frame routines; oldest-to-newest
///                        traversal with type-GC closures for polymorphism)
///   AppelCollector       one descriptor per procedure, dynamic-chain type
///                        reconstruction (paper section 1.1.1)
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_CORE_COLLECTOR_H
#define TFGC_CORE_COLLECTOR_H

#include "gcmeta/CodeImage.h"
#include "runtime/GenHeap.h"
#include "runtime/Heap.h"
#include "runtime/MarkSweepHeap.h"
#include "runtime/Roots.h"
#include "sched/Tlab.h"
#include "support/Epoch.h"
#include "support/HeapProfile.h"
#include "support/Monitor.h"
#include "support/Stats.h"
#include "support/Telemetry.h"

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace tfgc {

class FlightRecorder;
class Type;

enum class GcAlgorithm : uint8_t { Copying, MarkSweep, Generational };

const char *gcAlgorithmName(GcAlgorithm A);

enum class GcStrategy : uint8_t {
  Tagged,
  CompiledTagFree,
  InterpretedTagFree,
  AppelTagFree,
};

const char *gcStrategyName(GcStrategy S);

class Space;

class Collector {
public:
  /// \p NurseryBytes only applies to GcAlgorithm::Generational (0 picks a
  /// default of HeapBytes/8); the nursery is carved out of \p HeapBytes so
  /// total capacity is comparable across algorithms.
  Collector(ValueModel Model, GcAlgorithm Algo, size_t HeapBytes, Stats &St,
            size_t NurseryBytes = 0);
  virtual ~Collector() = default;

  ValueModel model() const { return Model; }
  GcAlgorithm algorithm() const { return Algo; }

  /// True when root tracing reads every frame slot, initialized or not —
  /// tagged scanning and Appel's per-procedure descriptors — so every VM
  /// over this collector zeroes its frames at entry (paper 1.1.1).
  /// Goldberg's per-call-site routines trace only initialized slots.
  virtual bool scansUninitializedSlots() const { return false; }

  Stats &stats() { return St; }

  /// Per-collection phase spans, pause/phase histograms, and heap census
  /// (see support/Telemetry.h). Recorded unconditionally — the ring is
  /// preallocated and a span costs one clock read per phase switch.
  Telemetry &telemetry() { return Tel; }
  const Telemetry &telemetry() const { return Tel; }

  /// Attaches a heap profiler (not owned; may be null). The collector
  /// drives its collection lifecycle — begin/trace-round/finish, pausing
  /// during the verify pass — and the strategy tracers feed it the same
  /// first-visit stream as the telemetry census.
  void setHeapProfiler(HeapProfiler *P) { Prof = P; }
  HeapProfiler *heapProfiler() { return Prof; }

  /// Attaches the mutator-side monitor (not owned; may be null). The
  /// monitor adopts this collector's telemetry timebase and receives
  /// every collection event; the VM polls monitor() at construction to
  /// arm its sample-point fuel, so attach before creating VMs.
  void setMonitor(Monitor *M) {
    Mon = M;
    if (M)
      M->attachTelemetry(&Tel);
  }
  Monitor *monitor() { return Mon; }

  /// Attaches the flight recorder (not owned; may be null). Wires the
  /// telemetry's GC ring mirror, makes the trace workers stamp begin/end
  /// events into their per-worker rings, and drains all rings at the end
  /// of every collection (the world is stopped, so no producer races the
  /// drain). Null (the default) costs one untaken branch per site.
  void setFlightRecorder(FlightRecorder *F);
  FlightRecorder *flightRecorder() { return Flight; }

  /// Attaches the epoch aggregator (not owned; may be null). When present,
  /// every collection ends — still inside the world-stopped pause — with a
  /// publishTelemetryStats() + shard fold, so sinks observe a coherent
  /// Collection epoch. Null (the default) costs nothing on any path.
  void setEpochAggregator(EpochAggregator *A) { Agg = A; }
  EpochAggregator *epochAggregator() { return Agg; }

  /// Flushes derived telemetry into the stats registry: pause percentiles
  /// (gc.pause_ns_p50/p90/p99), cumulative per-phase times
  /// (gc.phase_<name>_ns), live census totals (gc.census_<kind>_*), and
  /// tasking world-stop delay percentiles. Called by Vm::flushCounters so
  /// every run's Stats snapshot carries the histogram summaries.
  void publishTelemetryStats();

  /// Mutator allocation of \p PayloadWords payload words; under the tagged
  /// model a header word is added and initialized. Returns nullptr when a
  /// collection is needed. The object is counted in \p Sh, else in the
  /// facade.
  ///
  /// OS-thread mutators over a bump heap never come here: they bump their
  /// TLAB inline and refill it with refillTlab(). Under mark-sweep they
  /// do, passing their own stats shard, and the free-list walk takes a
  /// mutex. With \p Sh null the path is byte-for-byte the pre-threading
  /// behavior.
  Word *tryAllocatePayload(size_t PayloadWords, ObjKind Kind,
                           StatsShard *Sh = nullptr);

  /// The bump region the mutator allocates from: the copying heap's
  /// current semispace or the generational nursery; null under
  /// mark-sweep, whose free lists only tryAllocatePayload() serves. The
  /// sequential VM bumps it inline and counts heap.objects_allocated
  /// itself, so tryAllocatePayload() stays the slow path (DESIGN.md
  /// section 9).
  BumpRegion *mutatorRegion() {
    return Copying ? &Copying->mutatorRegion()
           : Gen   ? &Gen->nurseryRegion()
                   : nullptr;
  }

  /// Points \p T's window at a fresh chunk of at least \p MinWords carved
  /// off mutatorRegion()'s cursor with one CAS, so OS-thread mutators
  /// refill lock-free; the VM then bumps the window inline (DESIGN.md
  /// section 11, "TLABs"). Returns false, leaving the window alone, when
  /// the region cannot fit \p MinWords: the caller must collect. Bump
  /// heaps only.
  bool refillTlab(Tlab &T, size_t MinWords);

  /// Number of GC worker threads for the trace phase (1 = serial, the
  /// default). Arms the heaps' claim/publish protocol when > 1. Call
  /// before the first collection.
  void setGcThreads(unsigned N);
  unsigned gcThreads() const { return GcThreads; }

  /// Declares that mutator threads run concurrently: the write barrier's
  /// remembered-set slow path takes a mutex, and mark-sweep mutator
  /// allocation serializes. No-op cost when false (the default).
  void setParallelMutators(bool On) { ParallelMutators = On; }
  bool parallelMutators() const { return ParallelMutators; }

  /// Collects, growing the heap as needed until \p NeedPayloadWords can be
  /// allocated.
  void collect(RootSet &Roots, size_t NeedPayloadWords);

  /// After every collection, re-traverse the reachable graph read-only
  /// and count references that escaped the live heap (collector bug
  /// detector; results in stats key "gc.verify_violations").
  void setVerifyAfterGc(bool Enabled) { VerifyAfterGc = Enabled; }

  /// Testing hook: makes every verify pass report one artificial
  /// violation, so the abnormal-exit paths (nonzero exit code, flushed
  /// diagnostics) can be exercised without an actual collector bug.
  void setInjectVerifyViolation(bool Enabled) {
    InjectVerifyViolation = Enabled;
  }

  size_t heapUsedBytes() const;
  size_t heapCapacityBytes() const;
  uint64_t bytesAllocatedTotal() const;

  /// An old→young edge candidate recorded by the write barrier. \p Ty is
  /// the static type of the stored value (from IrFunction::SlotTypes) so
  /// the tag-free strategies can rescan the slot precisely at the next
  /// minor collection; the tagged strategy ignores it and uses headers.
  struct RemsetEntry {
    Word *Slot;
    Type *Ty;
  };

  /// Post-store write barrier for the generational algorithm (no-op
  /// otherwise). Hot path: filters stores whose slot is not tenured or
  /// whose value is not a young pointer, then records the slot in the
  /// sequential-store-buffer remembered set. Initializing stores never
  /// pass through here — every object is born in the nursery, so a fresh
  /// object cannot be an old→young source (DESIGN.md section 6). Returns
  /// whether a new remembered-set entry was buffered: the calling VM
  /// counts gc.remset_entries on its own stats shard.
  bool writeBarrier(Word *Slot, Word Val, Type *StaticTy) {
    if (!Gen)
      return false;
    if (!Gen->inTenured((Word)(uintptr_t)Slot))
      return false;
    // Under the tagged model only genuine pointers can be young; the
    // tag-free models conservatively admit unboxed values whose bits
    // happen to land in the nursery — harmless, because the remset scan
    // re-derives pointerness from the recorded static type. Self-tagged
    // floats (runtime/Value.h) fail isTaggedPointer by construction
    // (low bits 0b010, heap pointers are 8-aligned), so a float-valued
    // store can never enter the remembered set.
    if (Model == ValueModel::Tagged ? !(isTaggedPointer(Val) &&
                                        Gen->inNursery(Val))
                                    : !Gen->inNursery(Val))
      return false;
    return recordRemset(Slot, StaticTy);
  }

protected:
  /// Strategy-specific root tracing into \p Sp.
  virtual void traceRoots(RootSet &Roots, Space &Sp) = 0;

  /// Fans the per-stack trace jobs of one collection out over GcThreads
  /// workers. Stack indices are seeded round-robin into per-worker
  /// Chase-Lev deques; an idle worker steals from its peers. Each worker
  /// owns a sibling Space (Space::makeWorkerSpace), a private Stats and a
  /// private CensusCounts, all merged back on this thread after the
  /// workers join (worker 0 runs inline on the collecting thread).
  ///
  /// \p TraceStack traces one suspended stack into the worker's space,
  /// recording counters into the worker's stats; census increments must
  /// go through the worker's CensusCounts (TagFreeTracer::setCensusSink).
  /// \p Worker (0 to GcThreads - 1) selects per-worker scratch such as a
  /// tag-free collector's gray stack.
  ///
  /// Returns false — caller must run its serial path — when parallelism
  /// is not engaged: one worker configured, a heap profiler attached
  /// (its visit stream is inherently serial), fewer than two stacks, or
  /// a Space that cannot trace in parallel (CheckSpace, so --verify
  /// re-traces stay serial and exact).
  bool traceStacksParallel(
      RootSet &Roots, Space &Sp,
      const std::function<void(TaskStack &Stack, Space &WorkerSp,
                               Stats &WorkerSt, CensusCounts &WorkerCensus,
                               unsigned Worker)> &TraceStack);

  /// Strategy-specific scan of the remembered set during a minor
  /// collection (entries are extra roots). The base implementation is a
  /// no-op for strategies that never run generationally-specific paths.
  virtual void traceRemset(Space &Sp) { (void)Sp; }

  const std::vector<RemsetEntry> &remset() const { return Remset; }

  ValueModel Model;
  GcAlgorithm Algo;
  Stats &St;
  Telemetry Tel;
  unsigned GcThreads = 1;
  bool ParallelMutators = false;
  HeapProfiler *Prof = nullptr;
  Monitor *Mon = nullptr;
  EpochAggregator *Agg = nullptr;
  FlightRecorder *Flight = nullptr;
  /// Last mid-run publishTelemetryStats() from epochSafepoint(); derived
  /// gauges refresh at most every 10 ms between pauses (see there).
  std::chrono::steady_clock::time_point LastDerivedPublish{};
  bool VerifyAfterGc = false;
  bool InjectVerifyViolation = false;
  std::unique_ptr<Heap> Copying;
  std::unique_ptr<MarkSweepHeap> Ms;
  std::unique_ptr<GenHeap> Gen;

private:
  bool recordRemset(Word *Slot, Type *Ty);
  /// Closes the telemetry event; adds its pause to gc.pause_ns_total/max.
  void finishPause(uint64_t LiveWordsAfter);
  void collectGenerational(RootSet &Roots, size_t Need);
  void minorCollection(RootSet &Roots, bool Promote);
  void majorCollection(RootSet &Roots, size_t Need);
  void verifyPass(RootSet &Roots);
  void pruneRemset();
  /// Publish + fold at the end of a world-stopped collection pause.
  void epochSafepoint();

  /// Remembered set: a sequential store buffer with a dedup index so the
  /// same tenured slot stored repeatedly costs one entry per collection
  /// cycle.
  std::vector<RemsetEntry> Remset;
  std::unordered_set<Word *> RemsetIndex;
  /// Serializes recordRemset (and, for mark-sweep, mutator allocation)
  /// between concurrent mutator threads. Uncontended when mutators are
  /// cooperative.
  std::mutex MutatorMutex;
  /// A store of a non-ground-typed value landed in a tenured slot; the
  /// slot cannot be rescanned standalone under the tag-free models, so
  /// the next collection is forced major (which needs no remset).
  bool RemsetImprecise = false;
  /// Every PromoteEvery'th minor collection promotes all survivors en
  /// masse. Per-object promotion is unsound here: a promoted object
  /// pointing at a still-young survivor would be an unrecorded old→young
  /// edge, and without headers the promoted object cannot be rescanned.
  static constexpr unsigned PromoteEvery = 4;
  unsigned MinorsSincePromotion = 0;

  /// Young-object census for the invariant "allocated == promoted +
  /// young-dead + nursery-resident" (resident = survivors at the last
  /// collection + allocations since).
  uint64_t LiveYoungObjects = 0;
  uint64_t AllocSnapshot = 0;
  uint64_t PromotedObjectsTotal = 0;
  uint64_t DeadYoungObjectsTotal = 0;
};

} // namespace tfgc

#endif // TFGC_CORE_COLLECTOR_H
