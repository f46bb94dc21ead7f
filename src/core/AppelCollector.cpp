//===- core/AppelCollector.cpp --------------------------------------------===//

#include "core/AppelCollector.h"

#include <cassert>

using namespace tfgc;

AppelCollector::AppelCollector(GcAlgorithm Algo, size_t HeapBytes, Stats &St,
                               const IrProgram &Prog, const CodeImage &Img,
                               TypeContext &Types, AppelMetadata *AM,
                               bool GlogerDummies, size_t NurseryBytes)
    : Collector(ValueModel::TagFree, Algo, HeapBytes, St, NurseryBytes),
      Prog(Prog), Img(Img), Types(Types), AM(AM),
      GlogerDummies(GlogerDummies), Eng(Types, St, &Tel) {}

void AppelCollector::traceRemset(Space &Sp) {
  if (remset().empty())
    return;
  // As in GoldbergCollector: the barrier only buffers ground-typed
  // stores, so each slot is retraced through a closure for its recorded
  // static type, sharing the collection's closure arena.
  TagFreeTracer Tr(Prog, Img, Eng, Sp, St, TraceMethod::Appel, nullptr,
                   nullptr, AM, Gray[0], GlogerDummies, &Tel, Prof);
  TgEnv Env;
  for (const RemsetEntry &E : remset())
    Tr.traceSlot(E.Slot, Eng.eval(E.Ty, Env));
}

std::vector<const TypeGc *>
AppelCollector::resolveBinds(TaskStack &Stack, uint32_t Idx,
                             TypeGcEngine &Eng, TagFreeTracer &Tr,
                             Stats &S) {
  FrameInfo &Fr = Stack.Frames[Idx];
  const IrFunction &Fn = Prog.fn(Fr.FuncId);
  if (Fn.TypeParams.empty())
    return {};

  S.add(StatId::GcChainSteps);
  uint32_t CallerIdx = Fr.DynamicLink;
  assert(CallerIdx != NoFrame &&
         "polymorphic frame with no caller (main must be monomorphic)");
  FrameInfo &Caller = Stack.Frames[CallerIdx];
  const IrFunction &CallerFn = Prog.fn(Caller.FuncId);

  // Resolve the caller first — this recursion is the repeated stack
  // traversal the paper criticizes.
  std::vector<const TypeGc *> CallerBinds =
      resolveBinds(Stack, CallerIdx, Eng, Tr, S);
  TgEnv CEnv;
  CEnv.Params = &CallerFn.TypeParams;
  CEnv.Binds = CallerBinds.data();

  Word GcWord = Img.gcWordAt(Caller.PendingSiteAddr);
  assert(GcWord != CodeImage::OmittedGcWord);
  const CallSiteInfo &CS = Prog.site((CallSiteId)GcWord);

  std::vector<const TypeGc *> Binds;
  if (CS.Kind == SiteKind::Direct) {
    assert(CS.Callee == Fr.FuncId);
    for (Type *T : CS.CalleeTypeInst)
      Binds.push_back(Eng.eval(T, CEnv));
  } else {
    assert(CS.Kind == SiteKind::Indirect);
    const TypeGc *FunTg = Eng.eval(CS.ClosureTy, CEnv);
    for (const ClosureParamPath &P :
         AM->closureDescriptor(Fr.FuncId).ParamPaths)
      Binds.push_back(Tr.bindParam(P, FunTg));
  }
  return Binds;
}

void AppelCollector::traceOneStack(TaskStack &Stack, TagFreeTracer &Tr,
                                   TypeGcEngine &E, Stats &S, Telemetry *T) {
  if (Stack.Frames.empty())
    return;
  // Newest to oldest, following dynamic links (Figure 2's direction).
  uint32_t Idx = (uint32_t)(Stack.Frames.size() - 1);
  while (Idx != NoFrame) {
    FrameInfo &Fr = Stack.Frames[Idx];
    const IrFunction &Fn = Prog.fn(Fr.FuncId);
    S.add(StatId::GcFramesTraced);

    std::vector<const TypeGc *> Binds;
    if (!Fn.TypeParams.empty()) {
      // The repeated caller-chain walk is Appel's analogue of the
      // pointer-reversal pass, so it is charged to the same phase.
      PhaseScope Chain(T, GcPhase::PtrReversal);
      Binds = resolveBinds(Stack, Idx, E, Tr, S);
    }
    TgEnv Env;
    Env.Params = &Fn.TypeParams;
    Env.Binds = Binds.data();

    {
      PhaseScope Dispatch(T, GcPhase::FrameDispatch);
      Tr.traceFrame(Stack.frameSlots(Fr), AM->procDescriptor(Fr.FuncId),
                    &Env, Fr.FuncId);
    }
    Idx = Fr.DynamicLink;
  }
}

void AppelCollector::traceRoots(RootSet &Roots, Space &Sp) {
  Eng.reset();
  if (Gray.size() < GcThreads)
    Gray.resize(GcThreads);

  // Parallel path: worker-private engine + tracer per stack job over the
  // worker's own gray stack (shared metadata — descriptors, types,
  // closure paths — is read-only during a collection; only the heap's
  // claim/publish words are contended).
  if (traceStacksParallel(
          Roots, Sp,
          [this](TaskStack &Stack, Space &WSp, Stats &WSt,
                 CensusCounts &WCensus, unsigned W) {
            TypeGcEngine WEng(Types, WSt, nullptr);
            TagFreeTracer Tr(Prog, Img, WEng, WSp, WSt, TraceMethod::Appel,
                             nullptr, nullptr, AM, Gray[W], GlogerDummies,
                             nullptr, nullptr);
            Tr.setCensusSink(&WCensus);
            traceOneStack(Stack, Tr, WEng, WSt, nullptr);
          }))
    return;

  TagFreeTracer Tr(Prog, Img, Eng, Sp, St, TraceMethod::Appel, nullptr,
                   nullptr, AM, Gray[0], GlogerDummies, &Tel, Prof);
  for (TaskStack *Stack : Roots.Stacks)
    traceOneStack(*Stack, Tr, Eng, St, &Tel);
}
