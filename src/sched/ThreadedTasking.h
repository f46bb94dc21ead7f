//===- sched/ThreadedTasking.h - OS-thread task runtime ---------*- C++ -*-===//
///
/// \file
/// The real-thread sibling of tasking/TaskingRuntime: the same N-tasks-
/// one-heap model (paper section 4), but each task runs on its own
/// std::thread instead of a round-robin slice. Three pieces make that
/// safe:
///
///  * SafepointCoordinator — mutators read a shared stop flag at call
///    checks, at the fuel poll and on the allocation slow path, and park
///    at GC points with their stacks walkable; the last to park runs the
///    collection (sched/Safepoint.h);
///  * per-thread TLABs — each VM bumps a private window (sched/Tlab.h)
///    inline, as the sequential VM bumps the heap, and refills it with a
///    CAS off the shared cursor, so mutators never contend on a lock to
///    allocate;
///  * per-task counter shards — every VM writes its own StatsShard with
///    plain stores; shards are only folded at safepoints (support/
///    Epoch.h), which here means inside the world-stopped pause.
///
/// Interface-compatible with TaskingRuntime (spawnInt / runAll /
/// results) so the driver and benches can switch on --threads. The
/// cooperative runtime remains the --threads=1 semantics reference: its
/// logical counters are bit-identical to the pre-thread scheduler.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SCHED_THREADEDTASKING_H
#define TFGC_SCHED_THREADEDTASKING_H

#include "sched/Safepoint.h"
#include "sched/Tlab.h"
#include "tasking/Tasking.h"

#include <memory>
#include <string>
#include <vector>

namespace tfgc {

class ThreadedRuntime : public GcCoordinator {
public:
  /// Arms the collector's mutator-parallel mode (remset buffering and
  /// mark-sweep allocation go behind a lock; TLAB refill goes CAS).
  ThreadedRuntime(const IrProgram &Prog, const CodeImage &Img,
                  TypeContext &Types, Collector &Col, TaskingOptions Opts);

  /// Adds a task executing \p Entry with raw integer arguments. Must be
  /// called before runAll(): the VM (and thereby its counter shard) is
  /// constructed here, on the launching thread, so the shard vector never
  /// mutates while mutator threads run.
  void spawnInt(FuncId Entry, const std::vector<int64_t> &Args);

  /// Starts one OS thread per task, joins them all, then publishes the
  /// end-of-run stats with the world quiescent. Returns false if any
  /// task failed.
  bool runAll();

  const std::vector<TaskResult> &results() const { return Results; }
  Stats &stats() { return Col.stats(); }

  /// Completed handshake epochs (== world stops; monotone).
  uint64_t gcEpochs() const { return Coord ? Coord->epoch() : 0; }

  // GcCoordinator (SafepointCoordinator stores its stop flag):
  void requestGc(size_t NeedWords) override;

private:
  const IrProgram &Prog;
  const CodeImage &Img;
  TypeContext &Types;
  Collector &Col;
  TaskingOptions Opts;

  struct Task {
    /// Owned out-of-line so the window's address is stable across vector
    /// growth (the VM bumps it inline through a pointer).
    std::unique_ptr<Tlab> TaskTlab;
    std::unique_ptr<Vm> Machine;
    /// Set by the owning thread before it leaves the rendezvous set; read
    /// only under the coordinator lock (root-set construction), which the
    /// exiting thread takes right after the store.
    bool Done = false;
    /// Request-to-park delay per handshake this task took part in.
    LogHistogram StopDelayHist;
    /// This task's flight ring (null when not recording); the owning
    /// thread is its only producer — VM epochs, TLAB refills, GC
    /// requests, park/resume, start/exit all land here.
    FlightRing *Flight = nullptr;
    /// Stable storage for Stats::setThreadLabel ("mutator-<i>").
    std::string Label;
  };
  std::vector<Task> Tasks;
  std::vector<TaskResult> Results;
  /// Decoded once on the launching thread; every VM executes this stream.
  DecodedProgram Decoded;
  /// Built in runAll() once the rendezvous population is known.
  std::unique_ptr<SafepointCoordinator> Coord;
  /// The task that completed the most recent rendezvous (parked last or
  /// handed the collection off on exit). Written under the coordinator
  /// lock; read with the world quiescent (publishTaskStats). Published as
  /// the sched.last_parker_task gauge so /metrics names the straggler.
  uint64_t LastParkerTask = UINT64_MAX;

  void threadMain(size_t Idx);
  /// The collection thunk: runs with every live mutator parked and the
  /// coordinator lock held. Builds the root set from the unfinished
  /// tasks, retires every TLAB (the collection is about to reuse the
  /// space under them), and collects.
  void collectWorld(size_t NeedWords, uint64_t StopDelayNs);
  /// task.<i>.mutator_steps / .world_stop_delay_* / .tlab_*; runs with
  /// the world quiescent — after the final join, and inside each pause
  /// when an epoch aggregator is attached (live /metrics per-task rows).
  void publishTaskStats();
};

} // namespace tfgc

#endif // TFGC_SCHED_THREADEDTASKING_H
