//===- vm/Vm.h - Register VM over the IR ------------------------*- C++ -*-===//
///
/// \file
/// Executes the IR with explicit activation records (runtime/Roots.h).
/// The VM plays the role of the compiled mutator:
///
/// * values follow the collector's value model (tag-free or tagged, with
///   tag stripping/reinstating under the tagged model — the mutator
///   overheads of E1; in-range tagged floats self-tag instead of boxing,
///   see runtime/Value.h);
/// * before any instruction that might collect, the current frame records
///   the site's code image address — the "return address" the collector
///   dereferences (Figure 1/2);
/// * frames are zero-initialized only under strategies that require it
///   (tagged and Appel; the paper's per-site routines trace only
///   initialized slots, so the Goldberg strategies skip zeroing — E9).
///
/// The hot path runs over a pre-decoded instruction stream (vm/Decode.h)
/// through one of two dispatch loops generated from the same handler
/// bodies (vm/VmExec.inc): a computed-goto direct-threaded loop (GNU
/// toolchains, unless configured out with -DTFGC_THREADED_DISPATCH=OFF)
/// and a portable switch loop. Both loops drive a unified fuel counter
/// that folds the sampling profiler, the step limit, the execution budget
/// and the tasking GC safepoint poll into a single per-instruction
/// compare (see exec()).
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_VM_VM_H
#define TFGC_VM_VM_H

#include "core/Collector.h"
#include "gcmeta/CodeImage.h"
#include "ir/Ir.h"
#include "runtime/Roots.h"
#include "vm/Decode.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

/// Configure-time master switch for the computed-goto loop (CMake option
/// TFGC_THREADED_DISPATCH). Compiler support is still required on top.
#ifndef TFGC_THREADED_DISPATCH
#define TFGC_THREADED_DISPATCH 1
#endif
#if TFGC_THREADED_DISPATCH && defined(__GNUC__)
#define TFGC_HAVE_THREADED 1
#else
#define TFGC_HAVE_THREADED 0
#endif

namespace tfgc {

/// Where a task polls for a pending world-stop (paper section 4).
enum class SuspendChecks : uint8_t {
  None,         ///< Sequential VM: collect immediately on exhaustion.
  AtAllocation, ///< Suspend only inside the allocation routines.
  AtEveryCall,  ///< Explicit test at every call site.
  RgcRegister,  ///< Every call, via the Rgc register trick (free test).
};

/// How the interpreter loop dispatches decoded instructions.
enum class DispatchMode : uint8_t {
  Auto,     ///< Threaded when compiled in, else switch.
  Switch,   ///< Portable switch loop.
  Threaded, ///< Computed-goto direct threading (GNU toolchains).
};

/// Mediates stop-the-world collections across tasks. Implemented by the
/// tasking runtimes; the sequential VM has none.
class GcCoordinator {
public:
  virtual ~GcCoordinator() = default;
  /// Set while some task has exhausted the heap and the world must stop.
  /// The runtime owns and stores it; every VM caches its address and reads
  /// it with relaxed loads at call checks, at the fuel poll and on the
  /// allocation slow path (paper section 4). A stale read only moves a
  /// park to the next check.
  const std::atomic<bool> &stopFlag() const { return StopFlag; }
  /// Called by the task that exhausted the heap.
  virtual void requestGc(size_t NeedWords) = 0;

protected:
  std::atomic<bool> StopFlag{false};
};

struct VmOptions {
  /// Collect at every allocation (testing).
  bool GcStress = false;
  /// Zero frame slots at function entry (forced on when the collector
  /// scans uninitialized slots: tagged and Appel).
  bool ZeroFrames = false;
  /// Execution fuse.
  uint64_t MaxSteps = 2'000'000'000ull;
  /// Tasking: suspension polling policy and the coordinator to poll.
  SuspendChecks Checks = SuspendChecks::None;
  GcCoordinator *Coord = nullptr;
  /// This VM's task index in the monitor's per-task cells (0 for the
  /// sequential VM; the tasking runtime numbers its tasks).
  uint32_t TaskIndex = 0;
  /// Dispatch loop selection; Auto resolves to threaded when available.
  DispatchMode Dispatch = DispatchMode::Auto;
  /// Fuse superinstruction windows at decode time.
  bool FuseSuperinstructions = true;
  /// Tagged model: self-tag in-range float doubles instead of boxing.
  bool FloatSelfTag = true;
  /// Decode self-recursive tail calls into frame-reusing transfers.
  bool TailCalls = true;
  /// Pre-decoded program shared across VMs (the tasking runtime decodes
  /// once for all tasks). Must match this VM's model/fusion/float config;
  /// the VM decodes privately when null.
  DecodedProgram *Decoded = nullptr;
  /// Thread-local allocation buffer for OS-thread mutators (sched/
  /// ThreadedTasking). Over a bump heap its window is the VM's inline
  /// allocation region: a hit bumps it without a call, a miss refills it
  /// with a CAS off the shared cursor, and objects count in this task's
  /// shard. Under mark-sweep the VM keeps the locked slow path. Null for
  /// the sequential VM and the cooperative scheduler (bit-identical
  /// counters with the pre-thread runtime depend on this).
  Tlab *ThreadTlab = nullptr;
  /// This task's flight-recorder ring (null when not recording). The VM
  /// stamps GcRequest on heap exhaustion and a cheap VmEpoch at each
  /// safepoint poll window, so a thread's timeline shows it was running
  /// between parks. Null keeps both sites at one never-taken branch.
  FlightRing *Flight = nullptr;
};

enum class StepResult : uint8_t {
  Ran,         ///< Executed at least one instruction (budget or safepoint
               ///< yield included).
  Done,        ///< Program finished; returnValue() is valid.
  Failed,      ///< Runtime error; error() is set.
  BlockedOnGc, ///< Suspended at a GC safe point (tasking only); the
               ///< instruction re-executes after the collection.
};

struct RunResult {
  bool Ok = false;
  std::string Value;  ///< Rendered final value.
  std::string Output; ///< print output, one line per call.
  std::string Error;
};

class Vm {
public:
  Vm(const IrProgram &Prog, const CodeImage &Img, TypeContext &Types,
     Collector &Col, VmOptions Opts = {});
  /// The root set and the inline allocation region point into the VM.
  Vm(const Vm &) = delete;
  Vm &operator=(const Vm &) = delete;

  RunResult run();

  /// Executes up to \p Budget instruction steps (a fused superinstruction
  /// counts as its constituent steps), returning early on completion,
  /// failure, a GC block, or — under tasking — a safepoint poll that saw
  /// a pending collection. Always makes progress: the first instruction
  /// of a call runs even if it alone exceeds the budget.
  StepResult exec(uint64_t Budget);

  /// Executes one instruction (legacy single-step interface).
  StepResult step() { return exec(1); }

  /// True when this build contains the computed-goto loop.
  static bool threadedDispatchAvailable() { return TFGC_HAVE_THREADED; }
  /// The loop this VM actually uses (after Auto resolution).
  DispatchMode dispatchMode() const {
    return UseThreaded ? DispatchMode::Threaded : DispatchMode::Switch;
  }
  const DecodedProgram &decoded() const { return *DP; }

  /// Starts execution at \p Entry (a non-closure function) with the given
  /// argument words (already in the value model's representation). run()
  /// and exec() default to the program's main function.
  void start(FuncId Entry, const std::vector<Word> &Args);
  Word returnValue() const { return ReturnValue; }
  const std::string &error() const { return Error; }
  /// Renders the final value (after Done).
  std::string renderResult();
  const std::string &output() const { return Output; }
  TaskStack &mutableStack() { return Stack; }

  /// Renders a value of type \p Ty under the current value model.
  std::string renderValue(Word V, Type *Ty, int Depth = 0);

  Collector &collector() { return Col; }
  Stats &stats() { return Col.stats(); }
  const TaskStack &stack() const { return Stack; }
  /// Instructions executed so far (the hot counter, not the Stats slot).
  uint64_t steps() const { return Steps; }

  /// Flushes the hot counters (steps, tag ops, zeroed words, ...) into the
  /// stats registry; called automatically at the end of run().
  void flushCounters();

  /// Flushes only the VM-owned hot counters into this task's StatsShard —
  /// no gauges, no telemetry publish. Called at every safepoint the VM
  /// reaches (before a sequential collection, at sample points, and by the
  /// tasking runtimes at every park) so collection and heartbeat epoch
  /// folds see fresh vm.* values and every object bumped inline. Cheap: a
  /// dozen stores into the task's own cache-line-padded shard.
  void flushHotCounters();

  /// Steps between tasking safepoint polls in the fuel counter; also the
  /// guaranteed minimum progress per exec() before a poll may yield.
  static constexpr uint64_t SafepointPollSteps = 64;

private:
  const IrProgram &Prog;
  const CodeImage &Img;
  TypeContext &Types;
  Collector &Col;
  VmOptions Opts;
  ValueModel Model;

  /// Decoded instruction stream (shared or owned).
  DecodedProgram *DP = nullptr;
  std::unique_ptr<DecodedProgram> OwnedDecoded;
  bool UseThreaded = false;

  /// This task's counter shard (task TaskIndex -> shard TaskIndex+1;
  /// shard 0 is the collector's). Written with plain stores only by this
  /// VM; read by epoch folds at safepoints.
  StatsShard *Shard = nullptr;

  TaskStack Stack;
  /// The slow path's roots: this VM's one stack (sequential runs only).
  RootSet Roots;
  uint32_t SlotTop = 0;
  std::string Output;
  std::string Error;
  Word ReturnValue = 0;
  FuncId EntryFn = 0;
  bool DoneFlag = false;
  bool Blocked = false;
  bool Started = false;

  // Hot counters (plain fields; Stats map lookups are too slow for the
  // interpreter loop).
  uint64_t Steps = 0;
  uint64_t TagOps = 0;
  uint64_t FloatBoxes = 0;
  uint64_t Calls = 0;
  uint64_t WordsZeroed = 0;
  uint64_t SuspendChecksRun = 0;
  uint64_t BarrierOps = 0;
  /// Remembered-set entries this VM's stores buffered (gc.remset_entries).
  uint64_t RemsetEntries = 0;
  /// Objects the inline allocation path handed out since the last flush
  /// (heap.objects_allocated; the slow path counts in the collector).
  uint64_t InlineObjects = 0;
  /// Superinstructions executed (vm.superinstructions_executed).
  uint64_t SuperExec = 0;
  /// Frame-reusing self tail calls taken (vm.tail_calls).
  uint64_t TailCallsExec = 0;
  /// True when the collector runs the generational algorithm (cached so
  /// the non-generational store fast path stays a single branch).
  bool GenBarriers = false;
  /// Cached Opts decisions for the hot loop.
  bool ChecksAtCalls = false;  ///< AtEveryCall or RgcRegister.
  bool CountCallChecks = false;///< AtEveryCall (Rgc checks are free).
  bool SelfTagFloats = false;  ///< Tagged model with float self-tagging.
  uint32_t MaxFrames = 0;
  uint32_t MaxSlotWords = 0;

  /// Sampling monitor hook. The fuel counter stops the loop at the
  /// absolute step NextSampleAt (UINT64_MAX with no monitor attached);
  /// fireSample() attributes the sample and re-arms.
  Monitor *Mon = nullptr;
  uint64_t SamplePeriod = 0;
  uint64_t NextSampleAt = UINT64_MAX;
  /// Next absolute step at which a tasking VM polls the coordinator for a
  /// pending world-stop (re-armed at every exec() entry; UINT64_MAX for
  /// the sequential VM).
  uint64_t NextPollAt = UINT64_MAX;
  /// Cached Opts.Flight for the dispatch loops.
  FlightRing *FlightR = nullptr;

  /// What EXEC_ALLOC bumps inline: over a bump heap, an OS-thread VM's
  /// TLAB window, or the collector's mutator region when an allocation
  /// needs nothing else (no stress collection, no tasking suspension
  /// check); else NoRegion, which is empty, so every allocation misses and
  /// takes allocate().
  BumpRegion *Region = &NoRegion;
  BumpRegion NoRegion;
  /// Header words per object: 1 under the tagged model, else 0.
  uint32_t HeaderWords = 0;
  /// The coordinator's stop flag (null for the sequential VM).
  const std::atomic<bool> *StopFlag = nullptr;

  /// The two dispatch loops, generated from vm/VmExec.inc. The threaded
  /// loop doubles as the label-table exporter: called with \p TableOut it
  /// returns the handler address table without executing (in non-threaded
  /// builds it forwards to the switch loop).
  StepResult execSwitchLoop(uint64_t Budget);
  StepResult execThreadedLoop(uint64_t Budget, const void *const **TableOut);
  /// Fills DInstr::Handler across \p D from the threaded loop's table.
  void fillHandlers(DecodedProgram &D);

  void pushFrame(FuncId Callee, const Word *Args, unsigned NumArgs,
                 bool HasSelf, Word Self, SlotIndex CallerDst);
  /// The allocation slow path: allocates through the collector (or, for
  /// an OS-thread VM, refills its TLAB and bumps again), recording the
  /// pending site and collecting when needed. Returns the payload, or null
  /// on OOM or a tasking GC block.
  Word *allocate(size_t PayloadWords, ObjKind Kind, CallSiteId Site,
                 uint32_t FrameIdx);

  /// The inline fast path (EXEC_ALLOC): one bump of Region, the tagged
  /// header, the object count. Null on a miss, which allocate() takes
  /// over. Nothing can move here, so no frame needs its pending site.
  Word *bumpAllocate(size_t PayloadWords, ObjKind Kind, CallSiteId Site) {
    Word *P = Region->tryBump(PayloadWords + HeaderWords);
    if (!P) [[unlikely]]
      return nullptr;
    ++InlineObjects;
    if (HeaderWords) {
      P[0] = makeHeader((uint32_t)PayloadWords, Kind);
      ++P;
    }
    return finishAlloc(P, Site);
  }

  /// Every successful allocation funnels through here; with a heap
  /// profiler attached it logs (site, address) for allocation-site
  /// attribution. One null check when profiling is off.
  Word *finishAlloc(Word *P, CallSiteId Site) {
    if (P)
      if (HeapProfiler *Prof = Col.heapProfiler()) [[unlikely]]
        Prof->recordAlloc(Prog.site(Site).AllocId, (Word)(uintptr_t)P);
    return P;
  }
  bool fail(const std::string &Message);

  /// Out-of-line sample point: attributes one profiler sample (class
  /// \p Cls — for superinstructions, the class of the constituent the
  /// sampled step lands on) and re-arms NextSampleAt.
  void fireSample(uint32_t FrameIdx, OpClass Cls);

  /// Tagged-model float read: self-tagged word or box pointer.
  double readFloatTG(Word W) const {
    return isSelfTagFloat(W) ? selfTagToFloat(W)
                             : wordToFloat(*reinterpret_cast<const Word *>(W));
  }
  double readFloat(Word W) const;
};

} // namespace tfgc

#endif // TFGC_VM_VM_H
