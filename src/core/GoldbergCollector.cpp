//===- core/GoldbergCollector.cpp -----------------------------------------===//

#include "core/GoldbergCollector.h"

#include <cassert>

using namespace tfgc;

GoldbergCollector::GoldbergCollector(TraceMethod Method, GcAlgorithm Algo,
                                     size_t HeapBytes, Stats &St,
                                     const IrProgram &Prog,
                                     const CodeImage &Img, TypeContext &Types,
                                     const CompiledMetadata *CM,
                                     InterpretedMetadata *IM,
                                     bool GlogerDummies, size_t NurseryBytes)
    : Collector(ValueModel::TagFree, Algo, HeapBytes, St, NurseryBytes),
      Method(Method), Prog(Prog), Img(Img), Types(Types), CM(CM), IM(IM),
      GlogerDummies(GlogerDummies), Eng(Types, St, &Tel) {
  assert(Method != TraceMethod::Appel && "use AppelCollector");
  assert((Method == TraceMethod::Compiled ? CM != nullptr : IM != nullptr) &&
         "metadata missing for the selected method");
}

const std::vector<ClosureParamPath> &
GoldbergCollector::paramPaths(FuncId Fn) const {
  return Method == TraceMethod::Compiled
             ? CM->closureRoutine(Fn).ParamPaths
             : IM->closureDescriptor(Fn).ParamPaths;
}

void GoldbergCollector::traceRemset(Space &Sp) {
  if (remset().empty())
    return;
  // Each remembered slot carries the stored value's static type (recorded
  // by the write barrier; only ground types reach the buffer), so it can
  // be retraced standalone: evaluate the type into a GC routine closure
  // and run it. No Eng.reset() here — this runs inside a collection,
  // after traceRoots, and must share its closure arena.
  TagFreeTracer Tr(Prog, Img, Eng, Sp, St, Method, CM, IM, nullptr, Gray[0],
                   GlogerDummies, &Tel, Prof);
  TgEnv Env; // Ground types have no type parameters to bind.
  for (const RemsetEntry &E : remset())
    Tr.traceSlot(E.Slot, Eng.eval(E.Ty, Env));
}

void GoldbergCollector::traceOneStack(TaskStack &Stack, TagFreeTracer &Tr,
                                      TypeGcEngine &E, Stats &S,
                                      Telemetry *T) {
  if (Stack.Frames.empty())
    return;

  // Pass 1 (paper section 3): reverse the dynamic links so the stack can
  // be walked from the oldest activation record to the newest. We
  // materialize the reversed chain as an index list; each hop is one
  // pointer reversal.
  std::vector<uint32_t> Order;
  {
    PhaseScope Span(T, GcPhase::PtrReversal);
    uint32_t F = (uint32_t)(Stack.Frames.size() - 1);
    while (F != NoFrame) {
      Order.push_back(F);
      S.add(StatId::GcPtrReversalSteps);
      F = Stack.Frames[F].DynamicLink;
    }
  }

  // Pass 2: oldest to newest, threading type GC routine bindings from
  // each frame's pending call site to the next frame.
  PhaseScope Span(T, GcPhase::FrameDispatch);
  std::vector<const TypeGc *> Binds;
  for (size_t K = Order.size(); K-- > 0;) {
    FrameInfo &Fr = Stack.Frames[Order[K]];
    const IrFunction &Fn = Prog.fn(Fr.FuncId);
    assert(Binds.size() == Fn.TypeParams.size() &&
           "binding/parameter mismatch");

    assert(Fr.PendingSiteAddr != NoSiteAddr &&
           "suspended frame without a pending site");
    Word GcWord = Img.gcWordAt(Fr.PendingSiteAddr);
    assert(GcWord != CodeImage::OmittedGcWord &&
           "collection at a site the GC-point analysis ruled out");
    CallSiteId Site = (CallSiteId)GcWord;

    S.add(StatId::GcFramesTraced);
    TgEnv Env;
    Env.Params = &Fn.TypeParams;
    Env.Binds = Binds.data();
    Word *Slots = Stack.frameSlots(Fr);
    if (Method == TraceMethod::Compiled)
      Tr.traceFrame(Slots, CM->siteRoutine(Site), &Env, Fr.FuncId);
    else
      Tr.traceFrame(Slots, IM->siteDescriptor(Site), &Env, Fr.FuncId);

    if (K == 0)
      break; // Newest frame: nobody above.

    // Hand the callee its type parameter routines (the f_frame_gc ->
    // next_gc(...) call of the paper).
    const CallSiteInfo &CS = Prog.site(Site);
    const IrFunction &Callee = Prog.fn(Stack.Frames[Order[K - 1]].FuncId);
    std::vector<const TypeGc *> Next;
    switch (CS.Kind) {
    case SiteKind::Direct: {
      assert(CS.Callee == Stack.Frames[Order[K - 1]].FuncId);
      for (Type *Ty : CS.CalleeTypeInst)
        Next.push_back(E.eval(Ty, Env));
      break;
    }
    case SiteKind::Indirect: {
      if (!Callee.TypeParams.empty()) {
        const TypeGc *FunTg = E.eval(CS.ClosureTy, Env);
        for (const ClosureParamPath &P : paramPaths(Callee.Id))
          Next.push_back(Tr.bindParam(P, FunTg));
      }
      break;
    }
    case SiteKind::Alloc:
      assert(false && "allocation site cannot have a callee frame");
      break;
    }
    Binds = std::move(Next);
  }
}

void GoldbergCollector::traceRoots(RootSet &Roots, Space &Sp) {
  Eng.reset();
  if (Gray.size() < GcThreads)
    Gray.resize(GcThreads);

  // Parallel path: each worker builds a private engine + tracer per stack
  // job over its own gray stack, so only the heap's claim/publish words
  // are shared. The member engine stays valid (reset above) for the
  // serial remset scan that may follow inside this same collection.
  if (traceStacksParallel(
          Roots, Sp,
          [this](TaskStack &Stack, Space &WSp, Stats &WSt,
                 CensusCounts &WCensus, unsigned W) {
            TypeGcEngine WEng(Types, WSt, nullptr);
            TagFreeTracer Tr(Prog, Img, WEng, WSp, WSt, Method, CM, IM,
                             nullptr, Gray[W], GlogerDummies, nullptr,
                             nullptr);
            Tr.setCensusSink(&WCensus);
            traceOneStack(Stack, Tr, WEng, WSt, nullptr);
          }))
    return;

  TagFreeTracer Tr(Prog, Img, Eng, Sp, St, Method, CM, IM, nullptr, Gray[0],
                   GlogerDummies, &Tel, Prof);
  for (TaskStack *Stack : Roots.Stacks)
    traceOneStack(*Stack, Tr, Eng, St, &Tel);
}
