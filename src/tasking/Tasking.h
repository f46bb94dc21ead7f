//===- tasking/Tasking.h - Multi-task runtime (paper sec. 4) ----*- C++ -*-===//
///
/// \file
/// An Ada-style tasking model: N tasks with private stacks share one heap,
/// scheduled round-robin (a deterministic stand-in for shared-memory
/// parallel hardware). A task may be suspended for collection only at a
/// procedure call; when one task exhausts the heap, the others keep
/// running until they reach a suspension point under the chosen policy:
///
///   AllocationOnly  only the allocation routines test for a pending stop
///                   (cheapest checks, longest time to world-stop);
///   EveryCall       an explicit test before every call;
///   RgcRegister     every call, but the test is folded into the computed
///                   jump target via the dedicated Rgc register, making it
///                   free (the paper's optimization).
///
/// Once every live task is suspended, the collector runs over all stacks
/// and the tasks resume. E8 measures checks executed and the work done
/// between exhaustion and world-stop under each policy.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_TASKING_TASKING_H
#define TFGC_TASKING_TASKING_H

#include "vm/Vm.h"

#include <chrono>
#include <memory>
#include <vector>

namespace tfgc {

class FlightRecorder;

struct TaskingOptions {
  SuspendChecks Policy = SuspendChecks::AtEveryCall;
  /// Round-robin slice, in instructions.
  uint32_t TimeSliceSteps = 256;
  uint64_t MaxTotalSteps = 2'000'000'000ull;
  /// Mutator fast-path configuration, shared by every task (the runtime
  /// decodes the program once and all task VMs execute the same stream).
  DispatchMode Dispatch = DispatchMode::Auto;
  bool FuseSuperinstructions = true;
  bool FloatSelfTag = true;
  bool TailCalls = true;
  /// Flight recorder (not owned; may be null). Only the OS-thread runtime
  /// wires per-task rings from it; the cooperative scheduler ignores it
  /// (its interleavings are deterministic and fully covered by --gc-log).
  FlightRecorder *Flight = nullptr;
};

struct TaskResult {
  bool Ok = false;
  std::string Value;
  std::string Output;
  std::string Error;
};

class TaskingRuntime : public GcCoordinator {
public:
  TaskingRuntime(const IrProgram &Prog, const CodeImage &Img,
                 TypeContext &Types, Collector &Col, TaskingOptions Opts);

  /// Adds a task executing \p Entry (non-closure) with raw integer
  /// arguments (converted to the collector's value model).
  void spawnInt(FuncId Entry, const std::vector<int64_t> &Args);

  /// Runs every task to completion. Returns false if any task failed.
  bool runAll();

  const std::vector<TaskResult> &results() const { return Results; }
  Stats &stats() { return Col.stats(); }

  // GcCoordinator:
  void requestGc(size_t NeedWords) override;

private:
  const IrProgram &Prog;
  const CodeImage &Img;
  TypeContext &Types;
  Collector &Col;
  TaskingOptions Opts;

  struct Task {
    std::unique_ptr<Vm> Machine;
    bool Done = false;
    bool BlockedForGc = false;
    /// Per-task request-to-safe-point delays, recorded at the moment this
    /// task suspends for a pending collection (the global telemetry
    /// histogram only sees the request-to-world-stop delay, i.e. the
    /// slowest task; this one attributes the wait per task).
    LogHistogram StopDelayHist;
  };
  std::vector<Task> Tasks;
  std::vector<TaskResult> Results;
  /// Program decoded once for all tasks (vm/Decode.h); handler pointers
  /// are filled by the first threaded VM and shared after that.
  DecodedProgram Decoded;
  size_t NeedWords = 0;
  uint64_t StepsSinceRequest = 0;
  /// When the pending GC was first requested; the request-to-world-stop
  /// delay is recorded in the collector's telemetry at collectWorld().
  std::chrono::steady_clock::time_point RequestTime;

  /// The stop flag, read on the scheduler's own thread.
  bool gcRequested() const { return StopFlag.load(std::memory_order_relaxed); }
  void collectWorld();
  /// Publishes task.<i>.mutator_steps and task.<i>.world_stop_delay_*
  /// into the stats registry (the per-task view of --stats-json).
  void publishTaskStats();
};

} // namespace tfgc

#endif // TFGC_TASKING_TASKING_H
