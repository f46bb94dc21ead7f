//===- analysis/Liveness.cpp ----------------------------------------------===//

#include "analysis/Liveness.h"
#include "analysis/Cfg.h"

#include <algorithm>
#include <vector>

using namespace tfgc;

namespace {

/// One dense slot bitset per instruction, 64 slots to a word, all in one
/// flat array: a fixpoint pass updates rows in place and allocates
/// nothing. Bits past the function's last slot stay zero, so rows compare
/// word by word.
class SlotRows {
public:
  SlotRows(size_t Rows, size_t Slots)
      : W((Slots + 63) / 64), Bits(Rows * W, 0) {}
  size_t words() const { return W; }
  uint64_t *row(size_t I) { return Bits.data() + I * W; }
  const uint64_t *row(size_t I) const { return Bits.data() + I * W; }

private:
  size_t W;
  std::vector<uint64_t> Bits;
};

bool testBit(const uint64_t *S, size_t I) {
  return (S[I >> 6] >> (I & 63)) & 1;
}
void setBit(uint64_t *S, size_t I) { S[I >> 6] |= (uint64_t)1 << (I & 63); }
void clearBit(uint64_t *S, size_t I) {
  S[I >> 6] &= ~((uint64_t)1 << (I & 63));
}

/// Every one of \p Slots slots (W words).
void setAll(uint64_t *S, size_t W, size_t Slots) {
  std::fill(S, S + W, ~(uint64_t)0);
  if (Slots & 63)
    S[W - 1] = ((uint64_t)1 << (Slots & 63)) - 1;
}

/// Copies \p Src into \p Dst; returns true if that changed \p Dst.
bool update(uint64_t *Dst, const uint64_t *Src, size_t W) {
  if (std::equal(Src, Src + W, Dst))
    return false;
  std::copy(Src, Src + W, Dst);
  return true;
}

struct FnDataflow {
  SlotRows LiveOut; ///< Live after each instruction.
  SlotRows InitIn;  ///< Definitely initialized before it.
};

FnDataflow solve(const IrFunction &F) {
  Cfg G(F);
  size_t N = F.Code.size();
  size_t Slots = F.numSlots();
  FnDataflow D{SlotRows(N, Slots), SlotRows(N, Slots)};
  const size_t W = D.LiveOut.words();
  std::vector<uint64_t> Out(W), In(W);

  // Backward liveness to a fixpoint.
  SlotRows LiveIn(N, Slots);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = N; I-- > 0;) {
      const Instr &Ins = F.Code[I];
      std::fill(Out.begin(), Out.end(), 0);
      for (uint32_t S : G.succs((uint32_t)I)) {
        const uint64_t *Succ = LiveIn.row(S);
        for (size_t K = 0; K < W; ++K)
          Out[K] |= Succ[K];
      }
      In = Out;
      if (Ins.hasDst())
        clearBit(In.data(), Ins.Dst);
      for (SlotIndex S : Ins.Srcs)
        setBit(In.data(), S);
      Changed |= update(D.LiveOut.row(I), Out.data(), W);
      Changed |= update(LiveIn.row(I), In.data(), W);
    }
  }

  // Forward definite-initialization to a fixpoint. Parameters (and the
  // closure self slot) are initialized at entry.
  SlotRows InitOut(N, Slots);
  for (size_t I = 0; I < N; ++I)
    setAll(InitOut.row(I), W, Slots); // "top" for the intersection.
  Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < N; ++I) {
      // Entry (no predecessors, or instruction 0, which can also be
      // reached from nothing) has the parameters initialized.
      if (G.preds((uint32_t)I).empty()) {
        std::fill(In.begin(), In.end(), 0);
      } else {
        setAll(In.data(), W, Slots);
        for (uint32_t P : G.preds((uint32_t)I)) {
          const uint64_t *Pred = InitOut.row(P);
          for (size_t K = 0; K < W; ++K)
            In[K] &= Pred[K];
        }
      }
      if (G.preds((uint32_t)I).empty() || I == 0)
        for (unsigned P = 0; P < F.NumParams; ++P)
          setBit(In.data(), P);
      Out = In;
      if (F.Code[I].hasDst())
        setBit(Out.data(), F.Code[I].Dst);
      Changed |= update(D.InitIn.row(I), In.data(), W);
      Changed |= update(InitOut.row(I), Out.data(), W);
    }
  }
  return D;
}

} // namespace

void tfgc::computeTraceSets(IrProgram &P, const LivenessOptions &Opts) {
  // Solve each function once, then fill the site trace sets.
  std::vector<FnDataflow> Flows;
  Flows.reserve(P.Functions.size());
  for (const IrFunction &F : P.Functions)
    Flows.push_back(solve(F));

  std::vector<uint64_t> Trace;
  for (CallSiteInfo &S : P.Sites) {
    const IrFunction &F = P.fn(S.Caller);
    const Instr &In = F.Code[S.InstrIdx];
    const FnDataflow &D = Flows[S.Caller];
    const size_t W = D.LiveOut.words();

    if (Opts.UseLiveness) {
      const uint64_t *Live = D.LiveOut.row(S.InstrIdx);
      Trace.assign(Live, Live + W);
      if (In.hasDst())
        clearBit(Trace.data(), In.Dst); // Written only after the call returns.
      // Allocation instructions read their operands *after* a potential
      // collection (the object is allocated first, then filled from the
      // slots), so the operands must be traced and updated. Under tasking
      // the same holds for call arguments: a task suspended at the call
      // re-executes it after the collection.
      if (S.Kind == SiteKind::Alloc || Opts.TraceCallArgs)
        for (SlotIndex Src : In.Srcs)
          setBit(Trace.data(), Src);
    } else {
      Trace.resize(W);
      setAll(Trace.data(), W, F.numSlots());
      if (In.hasDst())
        clearBit(Trace.data(), In.Dst);
    }
    // Never trace uninitialized slots: their contents are garbage (paper
    // section 1.1.1's critique of per-procedure descriptors).
    const uint64_t *Init = D.InitIn.row(S.InstrIdx);
    for (size_t K = 0; K < W; ++K)
      Trace[K] &= Init[K];

    S.TraceSlots.clear();
    for (size_t I = 0; I < F.numSlots(); ++I)
      if (testBit(Trace.data(), I))
        S.TraceSlots.push_back((SlotIndex)I);
  }
}
