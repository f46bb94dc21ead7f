//===- vm/Vm.cpp ----------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/FlightRecorder.h"

#include <cassert>
#include <cstring>
#include <sstream>

using namespace tfgc;

Vm::Vm(const IrProgram &Prog, const CodeImage &Img, TypeContext &Types,
       Collector &Col, VmOptions Opts)
    : Prog(Prog), Img(Img), Types(Types), Col(Col), Opts(Opts),
      Model(Col.model()) {
  if (Col.scansUninitializedSlots())
    this->Opts.ZeroFrames = true;
  GenBarriers = Col.algorithm() == GcAlgorithm::Generational;
  Shard = &Col.stats().shardForTask(this->Opts.TaskIndex);
  Mon = Col.monitor();
  if (Mon) {
    SamplePeriod = Mon->samplePeriodSteps();
    if (SamplePeriod)
      NextSampleAt = SamplePeriod;
  }
  ChecksAtCalls = this->Opts.Checks == SuspendChecks::AtEveryCall ||
                  this->Opts.Checks == SuspendChecks::RgcRegister;
  FlightR = this->Opts.Flight;
  CountCallChecks = this->Opts.Checks == SuspendChecks::AtEveryCall;
  SelfTagFloats = Model == ValueModel::Tagged && this->Opts.FloatSelfTag;
  HeaderWords = Model == ValueModel::Tagged ? 1 : 0;
  Roots.Stacks.push_back(&Stack);
  assert((this->Opts.Checks == SuspendChecks::None || this->Opts.Coord) &&
         "tasking checks without a coordinator");
  if (this->Opts.Coord)
    StopFlag = &this->Opts.Coord->stopFlag();
  // An OS-thread VM bumps its TLAB window inline and tests the stop flag
  // only on a miss, at call checks and at the fuel poll. The cooperative
  // scheduler keeps the empty region: its allocation-only policy tests at
  // every allocation (paper section 4).
  if (BumpRegion *R = Col.mutatorRegion()) {
    if (this->Opts.ThreadTlab)
      Region = &this->Opts.ThreadTlab->Window;
    else if (!this->Opts.GcStress &&
             this->Opts.Checks == SuspendChecks::None)
      Region = R;
  }

  DecodeConfig DC;
  DC.Model = Model;
  DC.Fuse = this->Opts.FuseSuperinstructions;
  DC.FloatSelfTag = this->Opts.FloatSelfTag;
  DC.TailCalls = this->Opts.TailCalls;
  if (this->Opts.Decoded) {
    DP = this->Opts.Decoded;
    assert(DP->Cfg.Model == DC.Model && DP->Cfg.Fuse == DC.Fuse &&
           DP->Cfg.FloatSelfTag == DC.FloatSelfTag &&
           DP->Cfg.TailCalls == DC.TailCalls &&
           "shared decoded program does not match this VM's configuration");
  } else {
    OwnedDecoded = std::make_unique<DecodedProgram>(decodeProgram(Prog, DC));
    DP = OwnedDecoded.get();
  }
  UseThreaded =
      TFGC_HAVE_THREADED && this->Opts.Dispatch != DispatchMode::Switch;
  if (UseThreaded && !DP->HandlersFilled)
    fillHandlers(*DP);
}

bool Vm::fail(const std::string &Message) {
  if (Error.empty())
    Error = Message;
  return false;
}

void Vm::start(FuncId Entry, const std::vector<Word> &Args) {
  assert(!Started && "VM already started");
  EntryFn = Entry;
  Started = true;
  if (Mon)
    Mon->beginRun();
  pushFrame(Entry, Args.data(), (unsigned)Args.size(), false, 0, 0);
}

void Vm::pushFrame(FuncId Callee, const Word *Args, unsigned NumArgs,
                   bool HasSelf, Word Self, SlotIndex CallerDst) {
  const IrFunction &Fn = Prog.fn(Callee);
  FrameInfo F;
  F.FuncId = Callee;
  F.SlotBase = SlotTop;
  F.NumSlots = Fn.numSlots();
  F.PendingSiteAddr = NoSiteAddr;
  F.DynamicLink =
      Stack.Frames.empty() ? NoFrame : (uint32_t)(Stack.Frames.size() - 1);
  F.CallerDst = CallerDst;
  F.ResumeInstr = 0;

  SlotTop += F.NumSlots;
  if (Stack.Slots.size() < SlotTop)
    Stack.Slots.resize(SlotTop * 2 + 64);
  Word *S = Stack.Slots.data() + F.SlotBase;
  if (Opts.ZeroFrames) {
    std::memset(S, 0, F.NumSlots * sizeof(Word));
    WordsZeroed += F.NumSlots;
  }
  unsigned Base = 0;
  if (HasSelf) {
    S[0] = Self;
    Base = 1;
  }
  for (unsigned I = 0; I < NumArgs; ++I)
    S[Base + I] = Args[I];

  Stack.Frames.push_back(F);
  if ((uint32_t)Stack.Frames.size() > MaxFrames)
    MaxFrames = (uint32_t)Stack.Frames.size();
  if (SlotTop > MaxSlotWords)
    MaxSlotWords = SlotTop;
}

Word *Vm::allocate(size_t PayloadWords, ObjKind Kind, CallSiteId Site,
                   uint32_t FrameIdx) {
  // Record the "return address" of the allocator call (paper section 2.1:
  // collection can only start inside cons/new, whose frame's return
  // address selects this frame's GC routine).
  Stack.Frames[FrameIdx].PendingSiteAddr = Prog.site(Site).CodeAddr;

  if (Opts.Checks != SuspendChecks::None) {
    // Tasking: never collect unilaterally; suspend and let the
    // coordinator stop the world (paper section 4). All policies test
    // inside the allocation routine, which an OS-thread VM enters only
    // when its TLAB misses.
    ++SuspendChecksRun;
    if (StopFlag->load(std::memory_order_relaxed)) {
      Blocked = true;
      return nullptr;
    }
    if (Region != &NoRegion) {
      // OS-thread VM over a bump heap: refill the window, retry the bump.
      if (Col.refillTlab(*Opts.ThreadTlab, PayloadWords + HeaderWords))
        return bumpAllocate(PayloadWords, Kind, Site);
    } else if (Word *P = Col.tryAllocatePayload(
                   PayloadWords, Kind, Opts.ThreadTlab ? Shard : nullptr)) {
      // OS-thread mark-sweep counts in this task's own shard; the
      // cooperative scheduler (ThreadTlab null) keeps the original serial
      // path so its counters stay bit-identical.
      return finishAlloc(P, Site);
    }
    if (FlightR) [[unlikely]]
      FlightR->record(FlightEventType::GcRequest, 0, PayloadWords);
    Opts.Coord->requestGc(PayloadWords);
    Blocked = true;
    return nullptr;
  }

  if (Opts.GcStress) {
    flushHotCounters();
    Col.collect(Roots, PayloadWords);
  }

  Word *P = Col.tryAllocatePayload(PayloadWords, Kind);
  if (P)
    return finishAlloc(P, Site);
  flushHotCounters(); // Collection boundary: the epoch fold reads vm.*.
  Col.collect(Roots, PayloadWords);
  P = Col.tryAllocatePayload(PayloadWords, Kind);
  if (!P)
    fail("out of memory");
  return finishAlloc(P, Site);
}

double Vm::readFloat(Word W) const {
  if (Model == ValueModel::TagFree)
    return wordToFloat(W);
  return readFloatTG(W);
}

StepResult Vm::exec(uint64_t Budget) {
#if TFGC_HAVE_THREADED
  if (UseThreaded)
    return execThreadedLoop(Budget, nullptr);
#endif
  return execSwitchLoop(Budget);
}

// The two dispatch loops share one set of handler bodies; see VmExec.inc
// for the dispatch macros and the fuel-counter slow path.

StepResult Vm::execSwitchLoop(uint64_t Budget) {
#define TFGC_THREADED 0
#include "vm/VmExec.inc"
#undef TFGC_THREADED
}

#if TFGC_HAVE_THREADED

StepResult Vm::execThreadedLoop(uint64_t Budget,
                                const void *const **TableOut) {
#define TFGC_THREADED 1
#include "vm/VmExec.inc"
#undef TFGC_THREADED
}

void Vm::fillHandlers(DecodedProgram &D) {
  const void *const *Table = nullptr;
  execThreadedLoop(0, &Table);
  assert(Table && "threaded loop did not export its label table");
  for (DFunc &F : D.Fns)
    for (DInstr &I : F.Code)
      I.Handler = Table[I.Op];
  D.HandlersFilled = true;
}

#else // !TFGC_HAVE_THREADED

StepResult Vm::execThreadedLoop(uint64_t Budget,
                                const void *const **TableOut) {
  (void)TableOut;
  return execSwitchLoop(Budget);
}

void Vm::fillHandlers(DecodedProgram &D) { (void)D; }

#endif // TFGC_HAVE_THREADED

RunResult Vm::run() {
  RunResult R;
  for (;;) {
    StepResult S = exec(UINT64_MAX);
    if (S == StepResult::Ran)
      continue;
    assert(S != StepResult::BlockedOnGc &&
           "sequential VM cannot block on GC");
    break;
  }
  flushCounters();
  R.Output = Output;
  if (!Error.empty()) {
    R.Ok = false;
    R.Error = Error;
    return R;
  }
  R.Ok = true;
  R.Value = renderResult();
  return R;
}

std::string Vm::renderResult() {
  Type *ResultTy = Prog.fn(EntryFn).FunTy->resolved()->result();
  return renderValue(ReturnValue, ResultTy);
}

void Vm::fireSample(uint32_t FrameIdx, OpClass Cls) {
  assert(Mon && "sample fired without a monitor");
  // The sampled step number is the deadline itself (the per-step loop
  // recorded Steps after incrementing for the sampled instruction).
  uint64_t At = NextSampleAt;
  NextSampleAt += SamplePeriod;
  const FrameInfo &F = Stack.Frames[FrameIdx];
  uint32_t Caller = F.DynamicLink == NoFrame
                        ? Monitor::NoFunc
                        : Stack.Frames[F.DynamicLink].FuncId;
  // Sample points are cooperative safepoints: flush this task's hot
  // counters first so the monitor's snapshot (and any heartbeat epoch
  // fold it triggers) reads fresh folded values.
  flushHotCounters();
  Monitor::SampleCounters SC;
  SC.Steps = At;
  SC.AllocBytes = Col.bytesAllocatedTotal();
  SC.BarrierOps = Col.stats().get(StatId::GcBarrierOps);
  SC.RemsetEntries = Col.stats().get(StatId::GcRemsetEntries);
  Mon->recordSample(F.FuncId, Caller, Cls, Opts.TaskIndex, SC);
}

void Vm::flushHotCounters() {
  // set() for cumulative per-VM counters (idempotent across repeated
  // flushes; sequential re-runs on the same Stats overwrite like the
  // pre-sharding implementation did), add-with-reset for the counters
  // that fold across VMs and other components.
  Shard->set(StatId::VmSteps, Steps);
  Shard->set(StatId::VmSuperinstructions, SuperExec);
  Shard->set(StatId::VmTailCalls, TailCallsExec);
  Shard->set(StatId::VmTagOps, TagOps);
  Shard->set(StatId::VmFloatBoxes, FloatBoxes);
  Shard->set(StatId::VmCalls, Calls);
  Shard->set(StatId::VmFrameWordsZeroed, WordsZeroed);
  Shard->set(StatId::VmMaxFrames, MaxFrames);
  Shard->set(StatId::VmMaxSlotWords, MaxSlotWords);
  Shard->add(StatId::TaskSuspendChecks, SuspendChecksRun);
  SuspendChecksRun = 0;
  Shard->add(StatId::GcBarrierOps, BarrierOps);
  BarrierOps = 0;
  if (InlineObjects) { // Untouched by a run that never allocates.
    Shard->add(StatId::HeapObjectsAllocated, InlineObjects);
    InlineObjects = 0;
  }
  if (RemsetEntries) { // Absent until the first entry, as before sharding.
    Shard->add(StatId::GcRemsetEntries, RemsetEntries);
    RemsetEntries = 0;
  }
}

void Vm::flushCounters() {
  Stats &St = Col.stats();
  if (Mon) {
    Mon->noteTaskSteps(Opts.TaskIndex, Steps);
    Mon->endRun();
  }
  flushHotCounters();
  // Gauges describe the shared heap, not this task: they go through the
  // facade (shard 0) so the fold is the identity for them.
  St.set(StatId::HeapUsedBytes, Col.heapUsedBytes());
  St.set(StatId::HeapCapacityBytes, Col.heapCapacityBytes());
  St.set(StatId::HeapBytesAllocatedTotal, Col.bytesAllocatedTotal());
  Col.publishTelemetryStats();
}

std::string Vm::renderValue(Word V, Type *Ty, int Depth) {
  if (Depth > 64)
    return "...";
  Ty = Ty->resolved();
  bool Tagged = Model == ValueModel::Tagged;
  std::ostringstream OS;
  switch (Ty->getKind()) {
  case TypeKind::Int:
    OS << (Tagged ? untagInt(V) : (int64_t)V);
    return OS.str();
  case TypeKind::Bool:
    return (Tagged ? untagInt(V) : (int64_t)V) ? "true" : "false";
  case TypeKind::Unit:
    return "()";
  case TypeKind::Float: {
    OS << readFloat(V);
    return OS.str();
  }
  case TypeKind::Var:
    return "<poly>";
  case TypeKind::Fun:
    return "<fn>";
  case TypeKind::Tuple: {
    const Word *P = reinterpret_cast<const Word *>(V);
    OS << '(';
    for (unsigned I = 0; I < Ty->numArgs(); ++I) {
      if (I)
        OS << ", ";
      OS << renderValue(P[I], Ty->arg(I), Depth + 1);
    }
    OS << ')';
    return OS.str();
  }
  case TypeKind::Ref: {
    const Word *P = reinterpret_cast<const Word *>(V);
    return "ref " + renderValue(P[0], Ty->refElem(), Depth + 1);
  }
  case TypeKind::Data: {
    DatatypeInfo *Info = Ty->data();
    std::vector<Type *> Args(Ty->args().begin(), Ty->args().end());
    // Lists render with bracket sugar.
    if (Info == Types.listInfo()) {
      OS << '[';
      Word Cur = V;
      bool First = true;
      int Guard = 0;
      for (;;) {
        bool Imm = Tagged ? isTaggedImmediate(Cur) : Cur < ImmediateCtorLimit;
        if (Imm)
          break;
        const Word *P = reinterpret_cast<const Word *>(Cur);
        if (!First)
          OS << ", ";
        First = false;
        OS << renderValue(P[1], Args[0], Depth + 1);
        Cur = P[2];
        if (++Guard > 1000) {
          OS << ", ...";
          break;
        }
      }
      OS << ']';
      return OS.str();
    }
    bool Imm = Tagged ? isTaggedImmediate(V) : V < ImmediateCtorLimit;
    uint64_t Ctor;
    const Word *P = nullptr;
    if (Imm) {
      Ctor = Tagged ? (uint64_t)untagInt(V) : V;
    } else {
      P = reinterpret_cast<const Word *>(V);
      Ctor = Tagged ? (uint64_t)untagInt(P[0]) : P[0];
    }
    const CtorInfo &C = Info->Ctors[Ctor];
    OS << C.Name;
    if (!C.Fields.empty()) {
      std::vector<Type *> Fields =
          Types.instantiateCtorFields(Info, (unsigned)Ctor, Args);
      OS << '(';
      for (size_t I = 0; I < Fields.size(); ++I) {
        if (I)
          OS << ", ";
        OS << renderValue(P[1 + I], Fields[I], Depth + 1);
      }
      OS << ')';
    }
    return OS.str();
  }
  }
  return "?";
}
