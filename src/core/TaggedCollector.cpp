//===- core/TaggedCollector.cpp -------------------------------------------===//

#include "core/TaggedCollector.h"

#include "support/HeapGraph.h"

#include <vector>

using namespace tfgc;

template <class SpaceT>
Word TaggedCollector::traceWord(SpaceT &Sp, std::vector<Word> &ScanList,
                                Word W, Stats &S, CensusCounts *Census) {
  // Non-pointers pass through unchanged: small ints (low bit 1), unit/
  // bool immediates, and self-tagged floats (low bits 0b010 after the
  // rotate — runtime/Value.h). Boxed floats still arrive as Raw-kind
  // heap objects and are visited like any other pointer.
  if (!isTaggedPointer(W))
    return W;
  Word NewRef;
  // tryClaim is the parallel arbitration seam (serial Spaces claim
  // unconditionally). The header read below is pre-claim safe — headers
  // live at payload[-1] and are never clobbered by forwarding.
  if (Sp.alreadyVisited(W, NewRef) || !Sp.tryClaim(W, NewRef))
    return NewRef;
  const Word *Old = reinterpret_cast<const Word *>(W);
  Word Header = Old[-1];
  NewRef = Sp.visitNew(W, headerSize(Header));
  S.add(StatId::GcObjectsVisited);
  S.add(StatId::GcWordsVisited, headerSize(Header) + 1);
  CensusKind K = headerKind(Header) == ObjKind::Scan ? CensusKind::TaggedScan
                                                     : CensusKind::Raw;
  if (Census)
    Census->record(K, headerSize(Header) + 1);
  else
    Tel.census(K, headerSize(Header) + 1);
  if (Prof && !Census) [[unlikely]]
    Prof->recordVisit(W, NewRef, K, headerSize(Header) + 1);
  if (headerKind(Header) == ObjKind::Scan)
    ScanList.push_back(NewRef);
  return NewRef;
}

template <class SpaceT>
void TaggedCollector::drainScanList(SpaceT &Sp, std::vector<Word> &ScanList,
                                    Stats &S, CensusCounts *Census) {
  // Heap-graph edge capture is decided per collection (never during the
  // census-sink parallel path or the verify pass, which both re-scan).
  HeapGraph *const Graph = Prof && !Census ? Prof->capture() : nullptr;
  while (!ScanList.empty()) {
    Word Ref = ScanList.back();
    ScanList.pop_back();
    Word *Pl = Sp.payload(Ref);
    uint32_t Size = headerSize(Pl[-1]);
    for (uint32_t I = 0; I < Size; ++I) {
      Pl[I] = traceWord(Sp, ScanList, Pl[I], S, Census);
      if (Graph) [[unlikely]]
        if (isTaggedPointer(Pl[I]))
          Graph->recordEdge(Ref, I, Pl[I]);
    }
  }
}

template <class SpaceT>
void TaggedCollector::traceOneStack(TaskStack &Stack, SpaceT &Sp,
                                    std::vector<Word> &ScanList, Stats &S,
                                    CensusCounts *Census) {
  HeapGraph *const Graph = Prof && !Census ? Prof->capture() : nullptr;
  for (FrameInfo &Fr : Stack.Frames) {
    S.add(StatId::GcFramesTraced);
    Word *Slots = Stack.frameSlots(Fr);
    // No metadata: every slot of every frame is scanned, and every slot
    // holding a tagged pointer is a heap-graph root.
    for (uint32_t I = 0; I < Fr.NumSlots; ++I) {
      S.add(StatId::GcSlotsTraced);
      Slots[I] = traceWord(Sp, ScanList, Slots[I], S, Census);
      if (Graph) [[unlikely]]
        if (isTaggedPointer(Slots[I]))
          Graph->recordRoot(&Slots[I], Fr.FuncId, I);
    }
  }
}

void TaggedCollector::traceRoots(RootSet &Roots, Space &Sp) {
  // Parallel path: each worker drains a private scan list; concurrently
  // discovered shared objects are arbitrated by the heap's claim/publish
  // words (mark bitmap fetch-or under mark-sweep).
  if (traceStacksParallel(
          Roots, Sp,
          [this](TaskStack &Stack, Space &WSp, Stats &WSt,
                 CensusCounts &WCensus, unsigned) {
            dispatchSpace(WSp, [&](auto &S) {
              std::vector<Word> ScanList;
              traceOneStack(Stack, S, ScanList, WSt, &WCensus);
              drainScanList(S, ScanList, WSt, &WCensus);
            });
          }))
    return;

  dispatchSpace(Sp, [&](auto &S) {
    std::vector<Word> ScanList;
    for (TaskStack *Stack : Roots.Stacks)
      traceOneStack(*Stack, S, ScanList, St, nullptr);
    drainScanList(S, ScanList, St, nullptr);
  });
}

void TaggedCollector::traceRemset(Space &Sp) {
  // Remembered tenured slots are extra roots for a minor collection; the
  // header model needs no types, so each slot is retraced by its tag bit.
  dispatchSpace(Sp, [&](auto &S) {
    std::vector<Word> ScanList;
    for (const RemsetEntry &E : remset()) {
      St.add(StatId::GcSlotsTraced);
      *E.Slot = traceWord(S, ScanList, *E.Slot, St, nullptr);
    }
    drainScanList(S, ScanList, St, nullptr);
  });
}
