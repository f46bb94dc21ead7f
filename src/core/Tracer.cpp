//===- core/Tracer.cpp ----------------------------------------------------===//

#include "core/Tracer.h"

#include <algorithm>
#include <cassert>

using namespace tfgc;

namespace {

GrayEntry compiledEntry(Word *Slot, RoutineId R, uint32_t Field) {
  GrayEntry E;
  E.Slot = Slot;
  E.Env = nullptr;
  E.Id = R;
  E.Field = Field;
  E.K = GrayEntry::How::Compiled;
  return E;
}

GrayEntry descEntry(Word *Slot, DescId D, const DescEnvNode *Env,
                    uint32_t Field) {
  GrayEntry E;
  E.Slot = Slot;
  E.Env = Env;
  E.Id = D;
  E.Field = Field;
  E.K = GrayEntry::How::Desc;
  return E;
}

GrayEntry tgEntry(Word *Slot, const TypeGc *Tg, uint32_t Field) {
  GrayEntry E;
  E.Slot = Slot;
  E.Tg = Tg;
  E.Id = 0;
  E.Field = Field;
  E.K = GrayEntry::How::Tg;
  return E;
}

} // namespace

DescBinding TagFreeTracer::resolveArg(DescId A, const DescEnvNode *Env) {
  const Descriptor &AD = descTable().desc(A);
  if (AD.Kind == DescKind::Param) {
    assert(Env && "Param descriptor with no environment");
    return Env->Binds[AD.A];
  }
  return DescBinding{A, Env};
}

bool TagFreeTracer::bindingsEqual(const DescBinding &A,
                                  const DescBinding &B) {
  if (A.D != B.D)
    return false;
  // Ground descriptors mean the same thing under every environment.
  return A.Env == B.Env || descTable().desc(A.D).Ground;
}

const DescEnvNode *TagFreeTracer::fieldEnv(DescId D,
                                           const DescEnvNode *Env) {
  auto [It, New] = FieldEnvs.try_emplace({D, Env}, nullptr);
  if (New) {
    DescEnvNode &N = EnvStorage.emplace_back();
    for (DescId A : descTable().desc(D).Args)
      N.Binds.push_back(resolveArg(A, Env));
    It->second = &N;
  }
  return It->second;
}

const TypeGc *TagFreeTracer::bindParam(const ClosureParamPath &P,
                                       const TypeGc *FunTg) {
  if (P.Found)
    return Eng.extract(FunTg, P.Path);
  assert(GlogerDummies &&
         "non-reconstructible closure reached the collector");
  St.add(StatId::GcGlogerDummies);
  return Eng.constGc();
}

// The loop's helpers are lambdas over its locals (stack top, current
// entry, counters). Forcing them inline keeps those locals in registers;
// called out of line, once per object or field, they would cost more
// than the work they do.
#define TFGC_INLINE __attribute__((always_inline))

template <class SpaceT>
void TagFreeTracer::drain(SpaceT &S, GrayEntry E, Tally &T) {
  GrayEntry *Stk = Gray.data();
  size_t Top = 0, Cap = Gray.size();
  uint64_t Objects = 0, Words = 0, Actions = 0, DescSteps = 0, TgSteps = 0;
  CensusCounts Census;
  HeapGraph *const G = Graph;
  HeapProfiler *const P = Prof;
  // Heap-graph edge hook: the object holding E's slot now holds Child
  // there. Only fields whose type can hold a reference become entries;
  // children that are no object (null, nullary constructors) are
  // filtered when the capture is finalized.
  auto Edge = [&](Word Child) TFGC_INLINE {
    if (G && E.Field != GrayEntry::Root) [[unlikely]]
      G->recordEdge((Word)(uintptr_t)(E.Slot - E.Field), E.Field, Child);
  };
  // Room for N more entries. The storage only grows and outlives the
  // collection.
  auto Reserve = [&](size_t N) TFGC_INLINE {
    if (Top + N > Cap) [[unlikely]] {
      Gray.resize(std::max(2 * Cap, Top + N + 64));
      Stk = Gray.data();
      Cap = Gray.size();
    }
  };
  // First half of a visit: true when this trace wins V and must copy or
  // mark it; otherwise the slot takes the reference already made. The
  // claim is the parallel arbitration seam (a serial space claims
  // unconditionally). Word-0 reads — discriminants, closure code
  // addresses — are safe after it because only the claim winner reaches
  // them, and publish is what clobbers word 0.
  auto Claim = [&](Word V) TFGC_INLINE {
    Word NewRef;
    if (!S.alreadyVisited(V, NewRef) && S.tryClaim(V, NewRef))
      return true;
    *E.Slot = NewRef;
    Edge(NewRef);
    return false;
  };
  // Second half: copies or marks V, counts it, patches the slot, and
  // returns the payload whose fields are traced next. Prof is fed the
  // same first-visit stream as the census.
  auto Visit = [&](Word V, CensusKind K, uint32_t N) TFGC_INLINE {
    Word NewRef = S.visitNew(V, N);
    ++Objects;
    Words += N;
    Census.record(K, N);
    if (P) [[unlikely]]
      P->recordVisit(V, NewRef, K, N);
    *E.Slot = NewRef;
    Edge(NewRef);
    return S.payload(NewRef);
  };
  // Makes the first of a compiled field list the current entry and
  // pushes the rest in reverse; false when the list is empty.
  auto ExpandCompiled = [&](const std::vector<FieldAction> &Fs,
                            Word *Pl) TFGC_INLINE {
    size_t N = Fs.size();
    if (N == 0)
      return false;
    Actions += N;
    Reserve(N - 1);
    for (size_t I = N - 1; I > 0; --I)
      Stk[Top++] = compiledEntry(&Pl[Fs[I].Offset], Fs[I].Routine,
                                 Fs[I].Offset);
    E = compiledEntry(&Pl[Fs[0].Offset], Fs[0].Routine, Fs[0].Offset);
    return true;
  };

  DescriptorTable *Tab =
      Method == TraceMethod::Compiled ? nullptr : &descTable();
  for (;;) {
    Word V = *E.Slot;
    // A closure's function-type routine, or (when null) its ground static
    // function type: the three ways of reaching a closure set these and
    // jump to its shared visit below.
    const TypeGc *FunTg = nullptr;
    Type *FunTy = nullptr;
    switch (E.K) {
    case GrayEntry::How::Compiled: {
      const TypeRoutine &TR = CM->routine(E.Id);
      switch (TR.F) {
      case TypeRoutine::Form::Leaf:
        break;
      case TypeRoutine::Form::FunValue:
        FunTy = TR.FunStaticTy;
        goto closure;
      case TypeRoutine::Form::Record:
      case TypeRoutine::Form::RefCell: {
        if (V == 0 || !Claim(V))
          break;
        Word *Pl = Visit(V,
                         TR.F == TypeRoutine::Form::RefCell ? CensusKind::Ref
                                                            : CensusKind::Tuple,
                         TR.PayloadWords);
        if (ExpandCompiled(TR.Fields, Pl))
          continue;
        break;
      }
      case TypeRoutine::Form::DataSwitch: {
        // Covers nullary constructors and null.
        if (V < ImmediateCtorLimit || !Claim(V))
          break;
        Word Disc = *reinterpret_cast<const Word *>(V);
        assert(Disc < TR.CtorSizes.size() && "corrupt discriminant");
        Word *Pl = Visit(V, CensusKind::Data, TR.CtorSizes[Disc]);
        if (ExpandCompiled(TR.CtorFields[Disc], Pl))
          continue;
        break;
      }
      }
      break;
    }

    case GrayEntry::How::Desc: {
      const Descriptor &Desc = Tab->desc(E.Id);
      ++DescSteps;
      switch (Desc.Kind) {
      case DescKind::Leaf:
        break;
      case DescKind::Param: {
        assert(E.Env && "Param descriptor outside a datatype context");
        DescBinding B = E.Env->Binds[Desc.A];
        E.Id = B.D;
        E.Env = B.Env;
        continue;
      }
      case DescKind::Fun:
        FunTy = Desc.FunTy;
        goto closure;
      case DescKind::Tuple:
      case DescKind::Ref: {
        if (V == 0 || !Claim(V))
          break;
        bool IsRef = Desc.Kind == DescKind::Ref;
        uint32_t N = IsRef ? 1 : (uint32_t)Desc.Args.size();
        const DescEnvNode *Env = E.Env;
        Word *Pl = Visit(V, IsRef ? CensusKind::Ref : CensusKind::Tuple, N);
        if (N == 0)
          break;
        // The interpreted method walks the descriptor for every field,
        // even ones with nothing to trace.
        Reserve(N - 1);
        for (uint32_t I = N - 1; I > 0; --I)
          Stk[Top++] = descEntry(&Pl[I], Desc.Args[I], Env, I);
        E = descEntry(&Pl[0], Desc.Args[0], Env, 0);
        continue;
      }
      case DescKind::Data: {
        if (V < ImmediateCtorLimit || !Claim(V))
          break;
        Word Disc = *reinterpret_cast<const Word *>(V);
        const std::vector<DescId> &Shape =
            Tab->ctorShape(Desc.A, (unsigned)Disc);
        uint32_t N = (uint32_t)Shape.size();
        Word *Pl = Visit(V, CensusKind::Data, 1 + N);
        if (N == 0)
          break;
        DescId D = E.Id;
        const DescEnvNode *Env = E.Env;
        // Effective binding of the datatype's parameter K: the Data
        // descriptor's argument resolved under the current environment.
        auto Bind = [&](uint32_t K) TFGC_INLINE {
          return resolveArg(Desc.Args[K], Env);
        };
        // A shape field referring to the same datatype with identical
        // effective bindings is a self reference: it is traced in the
        // current (D, Env) context (the list-spine case).
        auto IsSelf = [&](const Descriptor &FD) TFGC_INLINE {
          if (FD.Kind != DescKind::Data || FD.A != Desc.A ||
              FD.Args.size() != Desc.Args.size())
            return false;
          for (uint32_t I = 0; I < FD.Args.size(); ++I) {
            const Descriptor &AD = Tab->desc(FD.Args[I]);
            if (AD.Kind != DescKind::Param && !AD.Ground)
              return false; // Conservative: fall back to a field env.
            DescBinding B = AD.Kind == DescKind::Param
                                ? Bind(AD.A)
                                : DescBinding{FD.Args[I], nullptr};
            if (!bindingsEqual(B, Bind(I)))
              return false;
          }
          return true;
        };
        auto Field = [&](uint32_t I) TFGC_INLINE {
          DescId F = Shape[I];
          const Descriptor &FD = Tab->desc(F);
          Word *Slot = &Pl[1 + I];
          if (FD.Kind == DescKind::Param) {
            DescBinding B = Bind(FD.A);
            return descEntry(Slot, B.D, B.Env, 1 + I);
          }
          if (IsSelf(FD))
            return descEntry(Slot, D, Env, 1 + I);
          if (FD.Ground)
            return descEntry(Slot, F, nullptr, 1 + I);
          // Open template field: needs the instantiated environment.
          return descEntry(Slot, F, fieldEnv(D, Env), 1 + I);
        };
        Reserve(N - 1);
        for (uint32_t I = N - 1; I > 0; --I)
          Stk[Top++] = Field(I);
        E = Field(0);
        continue;
      }
      }
      break;
    }

    case GrayEntry::How::Tg: {
      const TypeGc *Tg = E.Tg;
      ++TgSteps;
      // Const fields hold no reference and are never pushed.
      switch (Tg->K) {
      case TypeGc::Kind::Const:
        break;
      case TypeGc::Kind::Fun:
        FunTg = Tg;
        goto closure;
      case TypeGc::Kind::Record: {
        if (V == 0 || !Claim(V))
          break;
        Word *Pl = Visit(V, CensusKind::Tuple, Tg->NumArgs);
        Reserve(Tg->NumArgs);
        for (uint32_t I = Tg->NumArgs; I-- > 0;)
          if (Tg->Args[I]->K != TypeGc::Kind::Const)
            Stk[Top++] = tgEntry(&Pl[I], Tg->Args[I], I);
        break;
      }
      case TypeGc::Kind::Ref: {
        if (V == 0 || !Claim(V))
          break;
        Word *Pl = Visit(V, CensusKind::Ref, 1);
        if (Tg->Args[0]->K == TypeGc::Kind::Const)
          break;
        E = tgEntry(&Pl[0], Tg->Args[0], 0);
        continue;
      }
      case TypeGc::Kind::Data: {
        if (V < ImmediateCtorLimit || !Claim(V))
          break;
        Word Disc = *reinterpret_cast<const Word *>(V);
        uint32_t N = Tg->CtorFieldCounts[Disc];
        Word *Pl = Visit(V, CensusKind::Data, 1 + N);
        const TypeGc *const *Fields = Tg->CtorFields[Disc];
        Reserve(N);
        for (uint32_t I = N; I-- > 0;)
          if (Fields[I]->K != TypeGc::Kind::Const)
            Stk[Top++] = tgEntry(&Pl[1 + I], Fields[I], 1 + I);
        break;
      }
      }
      break;
    }
    }
    goto next;

  closure:
    // A closure value, found through its code pointer; its environment
    // fields are pushed. 0 is an unpatched placeholder in a recursive
    // closure group.
    if (V != 0 && Claim(V)) {
      Word CodeAddr = *reinterpret_cast<const Word *>(V);
      FuncId L = (FuncId)Img.closureMetaAt((uint32_t)CodeAddr);
      const IrFunction &LF = Prog.fn(L);
      const ClosureRoutine *CR = nullptr;
      const ClosureDescriptor *CD = nullptr;
      if (Method == TraceMethod::Compiled)
        CR = &CM->closureRoutine(L);
      else
        CD = Method == TraceMethod::Interpreted ? &IM->closureDescriptor(L)
                                                : &AM->closureDescriptor(L);
      Word *Pl = Visit(V, CensusKind::Closure,
                       CR ? CR->PayloadWords : CD->PayloadWords);

      // Recover the lambda's type parameters from its function-type
      // routine (paper Figure 4).
      ClosureBinds.clear();
      if (!LF.TypeParams.empty()) {
        if (!FunTg) {
          assert(FunTy && "no function type available for extraction");
          TgEnv Empty;
          FunTg = Eng.eval(FunTy, Empty);
        }
        for (const ClosureParamPath &P :
             CR ? CR->ParamPaths : CD->ParamPaths)
          ClosureBinds.push_back(bindParam(P, FunTg));
      }
      TgEnv Env;
      Env.Params = &LF.TypeParams;
      Env.Binds = ClosureBinds.data();
      const std::vector<OpenAction> &Open = CR ? CR->Open : CD->Open;
      OpenTgs.clear();
      for (const OpenAction &A : Open)
        OpenTgs.push_back(Eng.eval(A.Ty, Env));

      // Ground fields first, then the open ones: pushed in reverse.
      size_t NF = CR ? CR->Fields.size() : CD->Fields.size();
      Reserve(NF + Open.size());
      for (size_t I = Open.size(); I-- > 0;)
        Stk[Top++] = tgEntry(&Pl[Open[I].Index], OpenTgs[I], Open[I].Index);
      if (CR) {
        Actions += NF;
        for (size_t I = NF; I-- > 0;) {
          const FieldAction &A = CR->Fields[I];
          Stk[Top++] = compiledEntry(&Pl[A.Offset], A.Routine, A.Offset);
        }
      } else {
        for (size_t I = NF; I-- > 0;) {
          const FrameDescriptor::SlotDesc &F = CD->Fields[I];
          Stk[Top++] = descEntry(&Pl[F.Slot], F.Desc, nullptr, F.Slot);
        }
      }
    }

  next:
    if (Top == 0)
      break;
    E = Stk[--Top];
  }
  T.Objects += Objects;
  T.Words += Words;
  for (size_t K = 0; K < NumCensusKinds; ++K) {
    T.Census.Objects[K] += Census.Objects[K];
    T.Census.Words[K] += Census.Words[K];
  }
  T.Actions += Actions;
  T.DescSteps += DescSteps;
  T.TgSteps += TgSteps;
}

#undef TFGC_INLINE

void TagFreeTracer::flush(const Tally &T) {
  if (T.Slots)
    St.add(StatId::GcSlotsTraced, T.Slots);
  if (T.Actions)
    St.add(StatId::GcCompiledActions, T.Actions);
  if (T.DescSteps)
    St.add(StatId::GcDescSteps, T.DescSteps);
  if (T.TgSteps)
    St.add(StatId::GcTgSteps, T.TgSteps);
  if (!T.Objects)
    return;
  St.add(StatId::GcObjectsVisited, T.Objects);
  St.add(StatId::GcWordsVisited, T.Words);
  if (Census) {
    for (size_t K = 0; K < NumCensusKinds; ++K) {
      Census->Objects[K] += T.Census.Objects[K];
      Census->Words[K] += T.Census.Words[K];
    }
  } else if (Tel) {
    Tel->censusBulk(T.Census);
  }
}

// The traced slots are the heap-graph roots: a dead or unboxed slot is
// never one, whatever its bits.
template <class SpaceT>
void TagFreeTracer::traceFrameIn(SpaceT &S, Word *Slots,
                                 const FrameRoutine &FR, const TgEnv *Env,
                                 uint32_t Func) {
  Tally T;
  for (const FrameRoutine::SlotAction &A : FR.Slots) {
    ++T.Slots;
    drain(S, compiledEntry(&Slots[A.Slot], A.Routine, GrayEntry::Root), T);
    if (Graph)
      Graph->recordRoot(&Slots[A.Slot], Func, A.Slot);
  }
  for (const OpenAction &A : FR.Open) {
    ++T.Slots;
    assert(Env && "open slot without type parameter bindings");
    const TypeGc *Tg = Eng.eval(A.Ty, *Env);
    drain(S, tgEntry(&Slots[A.Index], Tg, GrayEntry::Root), T);
    if (Graph && Tg->K != TypeGc::Kind::Const)
      Graph->recordRoot(&Slots[A.Index], Func, A.Index);
  }
  flush(T);
}

template <class SpaceT>
void TagFreeTracer::traceFrameIn(SpaceT &S, Word *Slots,
                                 const FrameDescriptor &FD, const TgEnv *Env,
                                 uint32_t Func) {
  Tally T;
  for (const FrameDescriptor::SlotDesc &A : FD.Slots) {
    ++T.Slots;
    drain(S, descEntry(&Slots[A.Slot], A.Desc, nullptr, GrayEntry::Root), T);
    if (Graph)
      Graph->recordRoot(&Slots[A.Slot], Func, A.Slot);
  }
  for (const OpenAction &A : FD.Open) {
    ++T.Slots;
    assert(Env && "open slot without type parameter bindings");
    const TypeGc *Tg = Eng.eval(A.Ty, *Env);
    drain(S, tgEntry(&Slots[A.Index], Tg, GrayEntry::Root), T);
    if (Graph && Tg->K != TypeGc::Kind::Const)
      Graph->recordRoot(&Slots[A.Index], Func, A.Index);
  }
  flush(T);
}

void TagFreeTracer::traceFrame(Word *Slots, const FrameRoutine &FR,
                               const TgEnv *Env, uint32_t Func) {
  dispatchSpace(Sp, [&](auto &S) { traceFrameIn(S, Slots, FR, Env, Func); });
}

void TagFreeTracer::traceFrame(Word *Slots, const FrameDescriptor &FD,
                               const TgEnv *Env, uint32_t Func) {
  dispatchSpace(Sp, [&](auto &S) { traceFrameIn(S, Slots, FD, Env, Func); });
}

void TagFreeTracer::traceSlot(Word *Slot, const TypeGc *Tg) {
  dispatchSpace(Sp, [&](auto &S) {
    Tally T;
    ++T.Slots;
    drain(S, tgEntry(Slot, Tg, GrayEntry::Root), T);
    flush(T);
  });
}
