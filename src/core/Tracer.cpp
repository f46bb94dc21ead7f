//===- core/Tracer.cpp ----------------------------------------------------===//

#include "core/Tracer.h"

#include <cassert>

using namespace tfgc;

Word TagFreeTracer::traceCompiled(Word V, RoutineId R) {
  Word Result = V;
  Word *Patch = &Result;
  // Heap-graph bookkeeping for the tail-iteration loop: once Patch is
  // redirected into an object's payload, (PatchObj, PatchField) name the
  // slot it points at, so the deferred `*Patch = NewRef` writes can be
  // mirrored as graph edges. 0 = Patch still aims at the caller's slot
  // (a frame root or a field whose edge the caller records).
  Word PatchObj = 0;
  uint32_t PatchField = 0;
  for (;;) {
    const TypeRoutine &TR = CM->routine(R);
    switch (TR.F) {
    case TypeRoutine::Form::Leaf:
      *Patch = V; // Non-reference: no edge.
      return Result;
    case TypeRoutine::Form::FunValue:
      *Patch = traceClosureValue(V, nullptr, TR.FunStaticTy);
      if (Graph)
        edge(PatchObj, PatchField, *Patch);
      return Result;
    case TypeRoutine::Form::Record:
    case TypeRoutine::Form::RefCell: {
      if (V == 0) {
        *Patch = 0;
        return Result;
      }
      Word NewRef;
      // tryClaim is the parallel arbitration seam (a serial Space claims
      // unconditionally). Word-0 reads — discriminants, closure code
      // addresses — below this point are safe because only the claim
      // winner reaches them, and publish is what clobbers word 0.
      if (Sp.alreadyVisited(V, NewRef) || !Sp.tryClaim(V, NewRef)) {
        *Patch = NewRef;
        if (Graph)
          edge(PatchObj, PatchField, NewRef);
        return Result;
      }
      NewRef = Sp.visitNew(V, TR.PayloadWords);
      St.add(StatId::GcObjectsVisited);
      St.add(StatId::GcWordsVisited, TR.PayloadWords);
      visit(V, NewRef,
            TR.F == TypeRoutine::Form::RefCell ? CensusKind::Ref
                                               : CensusKind::Tuple,
            TR.PayloadWords);
      *Patch = NewRef;
      if (Graph)
        edge(PatchObj, PatchField, NewRef);
      Word *Pl = Sp.payload(NewRef);
      for (const FieldAction &A : TR.Fields) {
        St.add(StatId::GcCompiledActions);
        Pl[A.Offset] = traceCompiled(Pl[A.Offset], A.Routine);
        if (Graph)
          edge(NewRef, A.Offset, Pl[A.Offset]);
      }
      return Result;
    }
    case TypeRoutine::Form::DataSwitch: {
      if (V < ImmediateCtorLimit) { // Covers nullary ctors and null.
        *Patch = V;
        return Result;
      }
      Word NewRef;
      // tryClaim is the parallel arbitration seam (a serial Space claims
      // unconditionally). Word-0 reads — discriminants, closure code
      // addresses — below this point are safe because only the claim
      // winner reaches them, and publish is what clobbers word 0.
      if (Sp.alreadyVisited(V, NewRef) || !Sp.tryClaim(V, NewRef)) {
        *Patch = NewRef;
        if (Graph)
          edge(PatchObj, PatchField, NewRef);
        return Result;
      }
      Word Disc = *reinterpret_cast<const Word *>(V);
      assert(Disc < TR.CtorSizes.size() && "corrupt discriminant");
      NewRef = Sp.visitNew(V, TR.CtorSizes[Disc]);
      St.add(StatId::GcObjectsVisited);
      St.add(StatId::GcWordsVisited, TR.CtorSizes[Disc]);
      visit(V, NewRef, CensusKind::Data, TR.CtorSizes[Disc]);
      *Patch = NewRef;
      if (Graph)
        edge(PatchObj, PatchField, NewRef);
      Word *Pl = Sp.payload(NewRef);
      const std::vector<FieldAction> &Acts = TR.CtorFields[Disc];
      size_t N = Acts.size();
      for (size_t I = 0; I + 1 < N; ++I) {
        St.add(StatId::GcCompiledActions);
        Pl[Acts[I].Offset] = traceCompiled(Pl[Acts[I].Offset], Acts[I].Routine);
        if (Graph)
          edge(NewRef, Acts[I].Offset, Pl[Acts[I].Offset]);
      }
      if (N != 0) {
        const FieldAction &Last = Acts[N - 1];
        St.add(StatId::GcCompiledActions);
        if (Last.Routine == R) {
          // Iterate on the tail field (cdr of a list) instead of
          // recursing.
          V = Pl[Last.Offset];
          Patch = &Pl[Last.Offset];
          PatchObj = NewRef;
          PatchField = Last.Offset;
          continue;
        }
        Pl[Last.Offset] = traceCompiled(Pl[Last.Offset], Last.Routine);
        if (Graph)
          edge(NewRef, Last.Offset, Pl[Last.Offset]);
      }
      return Result;
    }
    }
  }
}

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

Word TagFreeTracer::traceDesc(Word V, DescId D, const DescEnvNode *Env) {
  Word Result = V;
  Word *Patch = &Result;
  // (PatchObj, PatchField): the payload slot Patch aims at once the tail
  // loop redirects it — see traceCompiled.
  Word PatchObj = 0;
  uint32_t PatchField = 0;
  for (;;) {
    DescriptorTable &T = descTable();
    const Descriptor &Desc = T.desc(D);
    St.add(StatId::GcDescSteps);
    switch (Desc.Kind) {
    case DescKind::Leaf:
      *Patch = V; // Non-reference: no edge.
      return Result;
    case DescKind::Param: {
      assert(Env && "Param descriptor outside a datatype context");
      DescBinding B = Env->Binds[Desc.A];
      D = B.D;
      Env = B.Env;
      continue;
    }
    case DescKind::Fun:
      *Patch = traceClosureValue(V, nullptr, Desc.FunTy);
      if (Graph)
        edge(PatchObj, PatchField, *Patch);
      return Result;
    case DescKind::Tuple: {
      if (V == 0) {
        *Patch = 0;
        return Result;
      }
      Word NewRef;
      // tryClaim is the parallel arbitration seam (a serial Space claims
      // unconditionally). Word-0 reads — discriminants, closure code
      // addresses — below this point are safe because only the claim
      // winner reaches them, and publish is what clobbers word 0.
      if (Sp.alreadyVisited(V, NewRef) || !Sp.tryClaim(V, NewRef)) {
        *Patch = NewRef;
        if (Graph)
          edge(PatchObj, PatchField, NewRef);
        return Result;
      }
      NewRef = Sp.visitNew(V, Desc.Args.size());
      St.add(StatId::GcObjectsVisited);
      St.add(StatId::GcWordsVisited, Desc.Args.size());
      visit(V, NewRef, CensusKind::Tuple, Desc.Args.size());
      *Patch = NewRef;
      if (Graph)
        edge(PatchObj, PatchField, NewRef);
      Word *Pl = Sp.payload(NewRef);
      // The interpreted method walks the descriptor for every field, even
      // ones with nothing to trace.
      for (size_t I = 0; I < Desc.Args.size(); ++I) {
        Pl[I] = traceDesc(Pl[I], Desc.Args[I], Env);
        if (Graph && holdsRef(Desc.Args[I], Env))
          edge(NewRef, (uint32_t)I, Pl[I]);
      }
      return Result;
    }
    case DescKind::Ref: {
      if (V == 0) {
        *Patch = 0;
        return Result;
      }
      Word NewRef;
      // tryClaim is the parallel arbitration seam (a serial Space claims
      // unconditionally). Word-0 reads — discriminants, closure code
      // addresses — below this point are safe because only the claim
      // winner reaches them, and publish is what clobbers word 0.
      if (Sp.alreadyVisited(V, NewRef) || !Sp.tryClaim(V, NewRef)) {
        *Patch = NewRef;
        if (Graph)
          edge(PatchObj, PatchField, NewRef);
        return Result;
      }
      NewRef = Sp.visitNew(V, 1);
      St.add(StatId::GcObjectsVisited);
      St.add(StatId::GcWordsVisited, 1);
      visit(V, NewRef, CensusKind::Ref, 1);
      *Patch = NewRef;
      if (Graph)
        edge(PatchObj, PatchField, NewRef);
      Word *Pl = Sp.payload(NewRef);
      Pl[0] = traceDesc(Pl[0], Desc.Args[0], Env);
      if (Graph && holdsRef(Desc.Args[0], Env))
        edge(NewRef, 0, Pl[0]);
      return Result;
    }
    case DescKind::Data: {
      if (V < ImmediateCtorLimit) {
        *Patch = V;
        return Result;
      }
      Word NewRef;
      // tryClaim is the parallel arbitration seam (a serial Space claims
      // unconditionally). Word-0 reads — discriminants, closure code
      // addresses — below this point are safe because only the claim
      // winner reaches them, and publish is what clobbers word 0.
      if (Sp.alreadyVisited(V, NewRef) || !Sp.tryClaim(V, NewRef)) {
        *Patch = NewRef;
        if (Graph)
          edge(PatchObj, PatchField, NewRef);
        return Result;
      }
      Word Disc = *reinterpret_cast<const Word *>(V);
      const std::vector<DescId> &Shape = T.ctorShape(Desc.A, (unsigned)Disc);
      NewRef = Sp.visitNew(V, 1 + Shape.size());
      St.add(StatId::GcObjectsVisited);
      St.add(StatId::GcWordsVisited, 1 + Shape.size());
      visit(V, NewRef, CensusKind::Data, 1 + Shape.size());
      *Patch = NewRef;
      if (Graph)
        edge(PatchObj, PatchField, NewRef);
      Word *Pl = Sp.payload(NewRef);

      // Effective bindings of this datatype's parameters: the Data
      // descriptor's argument descriptors resolved under the current
      // environment (the run-time analogue of instantiating the shape).
      std::vector<DescBinding> Binds;
      Binds.reserve(Desc.Args.size());
      for (DescId A : Desc.Args)
        Binds.push_back(resolveArg(A, Env));

      // A shape field referring to the same datatype with identical
      // effective bindings is a self reference: trace it in the current
      // (D, Env) context — iteratively if it is the last field.
      auto IsSelf = [&](DescId F) {
        const Descriptor &FD = T.desc(F);
        if (FD.Kind != DescKind::Data || FD.A != Desc.A ||
            FD.Args.size() != Binds.size())
          return false;
        for (size_t I = 0; I < FD.Args.size(); ++I) {
          const Descriptor &AD = T.desc(FD.Args[I]);
          DescBinding B = AD.Kind == DescKind::Param
                              ? Binds[AD.A]
                              : DescBinding{FD.Args[I], nullptr};
          if (AD.Kind != DescKind::Param && !AD.Ground)
            return false; // Conservative: fall back to a fresh env.
          if (!bindingsEqual(B, Binds[I]))
            return false;
        }
        return true;
      };

      const DescEnvNode *FieldEnv = nullptr;
      auto GetFieldEnv = [&]() {
        if (!FieldEnv) {
          EnvStorage.emplace_back();
          EnvStorage.back().Binds = Binds;
          FieldEnv = &EnvStorage.back();
        }
        return FieldEnv;
      };

      size_t N = Shape.size();
      for (size_t I = 0; I < N; ++I) {
        DescId F = Shape[I];
        const Descriptor &FD = T.desc(F);
        bool Last = I + 1 == N;
        Word *Slot = &Pl[1 + I];

        if (FD.Kind == DescKind::Param) {
          DescBinding B = Binds[FD.A];
          if (Last) {
            V = *Slot;
            Patch = Slot;
            PatchObj = NewRef;
            PatchField = (uint32_t)(1 + I);
            D = B.D;
            Env = B.Env;
            goto tail;
          }
          *Slot = traceDesc(*Slot, B.D, B.Env);
          if (Graph && holdsRef(B.D, B.Env))
            edge(NewRef, (uint32_t)(1 + I), *Slot);
          continue;
        }
        if (IsSelf(F)) {
          if (Last) {
            V = *Slot;
            Patch = Slot;
            PatchObj = NewRef;
            PatchField = (uint32_t)(1 + I);
            goto tail; // Same D, same Env: the list-spine loop.
          }
          *Slot = traceDesc(*Slot, D, Env);
          if (Graph)
            edge(NewRef, (uint32_t)(1 + I), *Slot);
          continue;
        }
        if (FD.Ground) {
          if (Last) {
            V = *Slot;
            Patch = Slot;
            PatchObj = NewRef;
            PatchField = (uint32_t)(1 + I);
            D = F;
            Env = nullptr;
            goto tail;
          }
          *Slot = traceDesc(*Slot, F, nullptr);
          if (Graph && holdsRef(F, nullptr))
            edge(NewRef, (uint32_t)(1 + I), *Slot);
          continue;
        }
        // Open template field: needs the instantiated environment.
        if (Last) {
          V = *Slot;
          Patch = Slot;
          PatchObj = NewRef;
          PatchField = (uint32_t)(1 + I);
          D = F;
          Env = GetFieldEnv();
          goto tail;
        }
        *Slot = traceDesc(*Slot, F, GetFieldEnv());
        if (Graph)
          edge(NewRef, (uint32_t)(1 + I), *Slot);
      }
      return Result;
    tail:
      continue;
    }
    }
  }
}

Word TagFreeTracer::traceTg(Word V, const TypeGc *Tg) {
  Word Result = V;
  Word *Patch = &Result;
  // (PatchObj, PatchField): the payload slot Patch aims at once the tail
  // loop redirects it — see traceCompiled. Const-kind fields are never
  // traced, so they also record no edge (they hold no reference).
  Word PatchObj = 0;
  uint32_t PatchField = 0;
  for (;;) {
    St.add(StatId::GcTgSteps);
    switch (Tg->K) {
    case TypeGc::Kind::Const:
      *Patch = V;
      return Result;
    case TypeGc::Kind::Fun:
      *Patch = traceClosureValue(V, Tg, nullptr);
      if (Graph)
        edge(PatchObj, PatchField, *Patch);
      return Result;
    case TypeGc::Kind::Record: {
      if (V == 0) {
        *Patch = 0;
        return Result;
      }
      Word NewRef;
      // tryClaim is the parallel arbitration seam (a serial Space claims
      // unconditionally). Word-0 reads — discriminants, closure code
      // addresses — below this point are safe because only the claim
      // winner reaches them, and publish is what clobbers word 0.
      if (Sp.alreadyVisited(V, NewRef) || !Sp.tryClaim(V, NewRef)) {
        *Patch = NewRef;
        if (Graph)
          edge(PatchObj, PatchField, NewRef);
        return Result;
      }
      NewRef = Sp.visitNew(V, Tg->NumArgs);
      St.add(StatId::GcObjectsVisited);
      St.add(StatId::GcWordsVisited, Tg->NumArgs);
      visit(V, NewRef, CensusKind::Tuple, Tg->NumArgs);
      *Patch = NewRef;
      if (Graph)
        edge(PatchObj, PatchField, NewRef);
      Word *Pl = Sp.payload(NewRef);
      for (uint32_t I = 0; I < Tg->NumArgs; ++I)
        if (Tg->Args[I]->K != TypeGc::Kind::Const) {
          Pl[I] = traceTg(Pl[I], Tg->Args[I]);
          if (Graph)
            edge(NewRef, I, Pl[I]);
        }
      return Result;
    }
    case TypeGc::Kind::Ref: {
      if (V == 0) {
        *Patch = 0;
        return Result;
      }
      Word NewRef;
      // tryClaim is the parallel arbitration seam (a serial Space claims
      // unconditionally). Word-0 reads — discriminants, closure code
      // addresses — below this point are safe because only the claim
      // winner reaches them, and publish is what clobbers word 0.
      if (Sp.alreadyVisited(V, NewRef) || !Sp.tryClaim(V, NewRef)) {
        *Patch = NewRef;
        if (Graph)
          edge(PatchObj, PatchField, NewRef);
        return Result;
      }
      NewRef = Sp.visitNew(V, 1);
      St.add(StatId::GcObjectsVisited);
      St.add(StatId::GcWordsVisited, 1);
      visit(V, NewRef, CensusKind::Ref, 1);
      *Patch = NewRef;
      if (Graph)
        edge(PatchObj, PatchField, NewRef);
      Word *Pl = Sp.payload(NewRef);
      if (Tg->Args[0]->K != TypeGc::Kind::Const) {
        Pl[0] = traceTg(Pl[0], Tg->Args[0]);
        if (Graph)
          edge(NewRef, 0, Pl[0]);
      }
      return Result;
    }
    case TypeGc::Kind::Data: {
      if (V < ImmediateCtorLimit) {
        *Patch = V;
        return Result;
      }
      Word NewRef;
      // tryClaim is the parallel arbitration seam (a serial Space claims
      // unconditionally). Word-0 reads — discriminants, closure code
      // addresses — below this point are safe because only the claim
      // winner reaches them, and publish is what clobbers word 0.
      if (Sp.alreadyVisited(V, NewRef) || !Sp.tryClaim(V, NewRef)) {
        *Patch = NewRef;
        if (Graph)
          edge(PatchObj, PatchField, NewRef);
        return Result;
      }
      Word Disc = *reinterpret_cast<const Word *>(V);
      uint32_t NumFields = Tg->CtorFieldCounts[Disc];
      NewRef = Sp.visitNew(V, 1 + NumFields);
      St.add(StatId::GcObjectsVisited);
      St.add(StatId::GcWordsVisited, 1 + NumFields);
      visit(V, NewRef, CensusKind::Data, 1 + NumFields);
      *Patch = NewRef;
      if (Graph)
        edge(PatchObj, PatchField, NewRef);
      Word *Pl = Sp.payload(NewRef);
      const TypeGc *const *Fields = Tg->CtorFields[Disc];
      for (uint32_t I = 0; I + 1 < NumFields; ++I)
        if (Fields[I]->K != TypeGc::Kind::Const) {
          Pl[1 + I] = traceTg(Pl[1 + I], Fields[I]);
          if (Graph)
            edge(NewRef, 1 + I, Pl[1 + I]);
        }
      if (NumFields != 0) {
        const TypeGc *Last = Fields[NumFields - 1];
        if (Last == Tg) {
          V = Pl[NumFields];
          Patch = &Pl[NumFields];
          PatchObj = NewRef;
          PatchField = NumFields;
          continue;
        }
        if (Last->K != TypeGc::Kind::Const) {
          Pl[NumFields] = traceTg(Pl[NumFields], Last);
          if (Graph)
            edge(NewRef, NumFields, Pl[NumFields]);
        }
      }
      return Result;
    }
    }
  }
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

Word TagFreeTracer::traceClosureValue(Word V, const TypeGc *FunTg,
                                      Type *StaticFunTy) {
  if (V == 0)
    return 0; // Unpatched placeholder in a recursive closure group.
  Word NewRef;
  if (Sp.alreadyVisited(V, NewRef) || !Sp.tryClaim(V, NewRef))
    return NewRef;

  // Post-claim: the code-address read in word 0 is stable (see above).
  Word CodeAddr = *reinterpret_cast<const Word *>(V);
  FuncId L = (FuncId)Img.closureMetaAt((uint32_t)CodeAddr);
  const IrFunction &LF = Prog.fn(L);

  uint32_t PayloadWords;
  const std::vector<ClosureParamPath> *Paths;
  switch (Method) {
  case TraceMethod::Compiled: {
    const ClosureRoutine &CR = CM->closureRoutine(L);
    PayloadWords = CR.PayloadWords;
    Paths = &CR.ParamPaths;
    break;
  }
  case TraceMethod::Interpreted: {
    const ClosureDescriptor &CD = IM->closureDescriptor(L);
    PayloadWords = CD.PayloadWords;
    Paths = &CD.ParamPaths;
    break;
  }
  case TraceMethod::Appel: {
    const ClosureDescriptor &CD = AM->closureDescriptor(L);
    PayloadWords = CD.PayloadWords;
    Paths = &CD.ParamPaths;
    break;
  }
  }

  NewRef = Sp.visitNew(V, PayloadWords);
  St.add(StatId::GcObjectsVisited);
  St.add(StatId::GcWordsVisited, PayloadWords);
  visit(V, NewRef, CensusKind::Closure, PayloadWords);
  Word *Pl = Sp.payload(NewRef);

  // Recover the lambda's type parameters from its function-type routine
  // (paper Figure 4).
  std::vector<const TypeGc *> Binds;
  if (!LF.TypeParams.empty()) {
    if (!FunTg) {
      assert(StaticFunTy && "no function type available for extraction");
      TgEnv Empty;
      FunTg = Eng.eval(StaticFunTy, Empty);
    }
    for (const ClosureParamPath &P : *Paths)
      Binds.push_back(bindParam(P, FunTg));
  }
  TgEnv Env;
  Env.Params = &LF.TypeParams;
  Env.Binds = Binds.data();

  switch (Method) {
  case TraceMethod::Compiled: {
    const ClosureRoutine &CR = CM->closureRoutine(L);
    for (const FieldAction &A : CR.Fields) {
      St.add(StatId::GcCompiledActions);
      Pl[A.Offset] = traceCompiled(Pl[A.Offset], A.Routine);
      if (Graph)
        edge(NewRef, A.Offset, Pl[A.Offset]);
    }
    for (const OpenAction &A : CR.Open) {
      const TypeGc *Tg = Eng.eval(A.Ty, Env);
      Pl[A.Index] = traceTg(Pl[A.Index], Tg);
      if (Graph && Tg->K != TypeGc::Kind::Const)
        edge(NewRef, A.Index, Pl[A.Index]);
    }
    break;
  }
  case TraceMethod::Interpreted:
  case TraceMethod::Appel: {
    const ClosureDescriptor &CD = Method == TraceMethod::Interpreted
                                      ? IM->closureDescriptor(L)
                                      : AM->closureDescriptor(L);
    for (const FrameDescriptor::SlotDesc &F : CD.Fields) {
      Pl[F.Slot] = traceDesc(Pl[F.Slot], F.Desc, nullptr);
      if (Graph)
        edge(NewRef, F.Slot, Pl[F.Slot]);
    }
    for (const OpenAction &A : CD.Open) {
      const TypeGc *Tg = Eng.eval(A.Ty, Env);
      Pl[A.Index] = traceTg(Pl[A.Index], Tg);
      if (Graph && Tg->K != TypeGc::Kind::Const)
        edge(NewRef, A.Index, Pl[A.Index]);
    }
    break;
  }
  }
  return NewRef;
}

// The traced slots are the heap-graph roots: a dead or unboxed slot is
// never one, whatever its bits.
void TagFreeTracer::traceFrame(Word *Slots, const FrameRoutine &FR,
                               const TgEnv *Env, uint32_t Func) {
  for (const FrameRoutine::SlotAction &A : FR.Slots) {
    St.add(StatId::GcSlotsTraced);
    Slots[A.Slot] = traceCompiled(Slots[A.Slot], A.Routine);
    if (Graph)
      Graph->recordRoot(&Slots[A.Slot], Func, A.Slot);
  }
  for (const OpenAction &A : FR.Open) {
    St.add(StatId::GcSlotsTraced);
    assert(Env && "open slot without type parameter bindings");
    const TypeGc *Tg = Eng.eval(A.Ty, *Env);
    Slots[A.Index] = traceTg(Slots[A.Index], Tg);
    if (Graph && Tg->K != TypeGc::Kind::Const)
      Graph->recordRoot(&Slots[A.Index], Func, A.Index);
  }
}

void TagFreeTracer::traceFrame(Word *Slots, const FrameDescriptor &FD,
                               const TgEnv *Env, uint32_t Func) {
  for (const FrameDescriptor::SlotDesc &A : FD.Slots) {
    St.add(StatId::GcSlotsTraced);
    Slots[A.Slot] = traceDesc(Slots[A.Slot], A.Desc, nullptr);
    if (Graph)
      Graph->recordRoot(&Slots[A.Slot], Func, A.Slot);
  }
  for (const OpenAction &A : FD.Open) {
    St.add(StatId::GcSlotsTraced);
    assert(Env && "open slot without type parameter bindings");
    const TypeGc *Tg = Eng.eval(A.Ty, *Env);
    Slots[A.Index] = traceTg(Slots[A.Index], Tg);
    if (Graph && Tg->K != TypeGc::Kind::Const)
      Graph->recordRoot(&Slots[A.Index], Func, A.Index);
  }
}
