//===- runtime/GenHeap.h - Generational heap --------------------*- C++ -*-===//
///
/// \file
/// A two-generation heap driven by the collectors: a bump-allocated
/// nursery semispace pair plus a tenured bump space. Like the flat
/// semispace Heap, the heap knows nothing about object layouts — under
/// the tag-free model layout lives exclusively in the compiler-generated
/// GC metadata, so the heap only provides raw allocation, region tests,
/// and forwarding.
///
/// Organization:
///
///  * Every object is born in the nursery (the mutator never allocates
///    tenured directly — that invariant is what lets the VM skip write
///    barriers on initializing stores; see DESIGN.md section 6). When a
///    single request exceeds the nursery the collector grows the nursery
///    rather than falling back to tenured allocation.
///
///  * A *minor* collection evacuates live nursery objects either into the
///    nursery's other semispace (survivors stay young) or into the
///    tenured space (en-masse promotion); tenured objects do not move.
///
///  * A *major* collection evacuates the entire live graph — both
///    regions — into the idle half of a tenured pair, leaving the nursery
///    empty. The old tenured space becomes the idle half.
///
/// Like Heap's semispaces, every space is allocated unzeroed and reused
/// across collections; a space is reallocated only when it must grow
/// (DESIGN.md section 6, "Space lifecycle").
///
/// The mutator allocates from the nursery's BumpRegion (runtime/Carve.h):
/// tryAllocate() bumps it, and so does the sequential VM inline, without a
/// call (DESIGN.md section 9).
///
/// Forwarding without headers works exactly as in Heap: side bitmaps over
/// the nursery from-space and — during majors — the tenured space mark
/// objects whose word 0 has been overwritten with the forwarding address.
/// Each holds one bit per used word of its region, cleared at every
/// collection, so a major of a large, nearly empty tenured space clears
/// only what its objects span.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_RUNTIME_GENHEAP_H
#define TFGC_RUNTIME_GENHEAP_H

#include "runtime/Carve.h"
#include "runtime/Value.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <thread>
#include <vector>

namespace tfgc {

class GenHeap {
public:
  GenHeap(size_t TenuredBytes, size_t NurseryBytes);

  // -- Mutator interface ---------------------------------------------------
  /// Allocates \p Words words in the nursery; nullptr when the nursery is
  /// full (the caller collects, or grows the nursery for a request larger
  /// than its capacity).
  Word *tryAllocate(size_t Words) { return Nur.tryBump(Words); }

  /// The nursery's allocation region, [cursor, end). The sequential VM
  /// bumps it inline (vm/VmExec.inc) and calls tryAllocate() only on a
  /// miss; the region object stays put across minors, majors and nursery
  /// growth, only its bounds move.
  BumpRegion &nurseryRegion() { return Nur; }

  /// Carves a per-thread TLAB chunk off the nursery cursor (see
  /// Heap::refillTlab for the contract). The nursery is the only
  /// mutator-visible region, so this is the entire threaded-mode
  /// allocation slow path for the generational algorithm.
  bool refillTlab(size_t MinWords, size_t PreferredWords, Word *&OutTop,
                  Word *&OutEnd) {
    if (!carve(Nur.Cursor, Nur.End, Nur.End, MinWords,
               [PreferredWords](size_t) { return PreferredWords; }, OutTop,
               OutEnd))
      return false;
    std::atomic_ref<uint64_t>(Nur.BytesAllocated)
        .fetch_add((size_t)(OutEnd - OutTop) * sizeof(Word),
                   std::memory_order_relaxed);
    return true;
  }

  // -- Region tests ---------------------------------------------------------
  /// True if \p P points into the nursery from-space (the young
  /// generation). During a collection this still refers to the space being
  /// evacuated; the semispace flip happens at endMinor().
  bool inNursery(Word P) const {
    return P >= (Word)(uintptr_t)NurBase && P < (Word)(uintptr_t)Nur.End;
  }
  bool inTenured(Word P) const {
    return P >= (Word)(uintptr_t)TenBase && P < (Word)(uintptr_t)TenEnd;
  }
  bool contains(Word P) const { return inNursery(P) || inTenured(P); }

  // -- Minor collections ----------------------------------------------------
  /// Starts a minor collection: prepares the nursery to-space (with its
  /// evacuation reserve when parallel tracing is armed) and the nursery
  /// forwarding bitmap. Tenured is untouched.
  void beginMinor();

  /// Evacuates a surviving-but-not-promoted object: bump allocation in the
  /// nursery to-space. Survivors never exceed the from-space fill, so
  /// serial evacuation cannot overflow.
  Word *allocateInSurvivorSpace(size_t Words) {
    assert(MinorActive && "not in a minor collection");
    return evacuationBump(NurToAlloc, NurToLimit, Words, "nursery to-space");
  }

  /// Promotes an object: bump allocation in the tenured space. The
  /// collector only chooses a minor collection when the tenured free space
  /// covers the whole nursery fill, so serial promotion cannot overflow.
  Word *allocateInTenured(size_t Words) {
    assert(MinorActive && "not in a minor collection");
    return evacuationBump(TenAlloc, TenLimit, Words, "tenured space");
  }

  /// Ends the minor collection: the to-space (holding the survivors)
  /// becomes the nursery, the old from-space becomes the next to-space.
  /// A space that parallel evacuation spilled into its reserve comes out
  /// full, its end moved to the end of the spill; a full nursery makes
  /// the collector escalate to a major in the same pause.
  void endMinor();

  // -- Major collections ----------------------------------------------------
  /// Starts a major collection into the idle tenured half, with a capacity
  /// of \p NewTenuredCapacityWords (the caller sizes it to at least the
  /// live upper bound: nursery fill + tenured fill). The idle half is
  /// reallocated only if it holds fewer words than that plus the
  /// evacuation reserve. Both regions evacuate, so forwarding bitmaps
  /// cover the nursery and the tenured space.
  void beginMajor(size_t NewTenuredCapacityWords);

  /// Evacuates any live object (young or old) into the tenured to-space.
  Word *allocateInToSpace(size_t Words) {
    assert(MajorActive && "not in a major collection");
    return evacuationBump(TenToAlloc, TenToLimit, Words, "tenured to-space");
  }

  /// Ends the major collection: the tenured pair flips, so the to-space
  /// becomes the tenured space (full if parallel evacuation spilled into
  /// its reserve) and the old one the idle half, and the nursery is reset
  /// empty (every young survivor was evacuated old).
  void endMajor();

  // -- Forwarding (region-dispatching) --------------------------------------
  bool isForwarded(const Word *Obj) const {
    size_t Index;
    const std::vector<uint64_t> *Bits = forwardBitsFor(Obj, Index);
    if (!Bits || Bits->empty())
      return false;
    return ((*Bits)[Index >> 6] >> (Index & 63)) & 1;
  }
  Word forwardee(const Word *Obj) const {
    assert(isForwarded(Obj));
    return Obj[0];
  }
  void setForwarded(Word *Obj, Word NewAddr) {
    size_t Index;
    std::vector<uint64_t> *Bits =
        const_cast<std::vector<uint64_t> *>(forwardBitsFor(Obj, Index));
    assert(Bits && !Bits->empty() && "forwarding outside a collection");
    (*Bits)[Index >> 6] |= (uint64_t)1 << (Index & 63);
    Obj[0] = NewAddr;
    // Serial phases inside an armed parallel collection (remset scan)
    // must still satisfy later waitForwardee() spins.
    std::vector<uint64_t> *Pub = publishedBitsFor(Obj);
    if (Pub && !Pub->empty())
      (*Pub)[Index >> 6] |= (uint64_t)1 << (Index & 63);
  }

  // -- Parallel tracing (claim/publish; see Heap.h for the protocol) --------
  /// Arms parallel evacuation by \p Workers GC workers (< 2 disarms):
  /// published bitmaps and evacuation reserves from the next collection
  /// on. Legal between collections; armed before the first one, while
  /// tenured is still empty, every space gets its reserve on top of its
  /// capacity. A tenured space armed later takes its reserve off its own
  /// end, or comes out full if its objects leave no room for it.
  void setParallelTracing(unsigned Workers);
  bool parallelTracing() const { return GcWorkers != 0; }

  /// Lock-free read of the claim bit (parallel alreadyVisited fast path).
  bool isForwardedAtomic(const Word *Obj) const {
    size_t Index;
    const std::vector<uint64_t> *Bits = forwardBitsFor(Obj, Index);
    if (!Bits || Bits->empty())
      return false;
    std::atomic_ref<uint64_t> B(
        const_cast<uint64_t &>((*Bits)[Index >> 6]));
    return (B.load(std::memory_order_relaxed) >> (Index & 63)) & 1;
  }

  bool tryClaimForward(Word *Obj) {
    size_t Index;
    std::vector<uint64_t> *Bits =
        const_cast<std::vector<uint64_t> *>(forwardBitsFor(Obj, Index));
    assert(Bits && !Bits->empty() && "claiming outside a collection");
    uint64_t Bit = (uint64_t)1 << (Index & 63);
    std::atomic_ref<uint64_t> B((*Bits)[Index >> 6]);
    return !(B.fetch_or(Bit, std::memory_order_acq_rel) & Bit);
  }

  void publishForward(Word *Obj, Word NewAddr) {
    Obj[0] = NewAddr;
    size_t Index;
    forwardBitsFor(Obj, Index);
    std::vector<uint64_t> *Pub = publishedBitsFor(Obj);
    assert(Pub && !Pub->empty() && "publishing outside a collection");
    std::atomic_ref<uint64_t> B((*Pub)[Index >> 6]);
    B.fetch_or((uint64_t)1 << (Index & 63), std::memory_order_release);
  }

  Word waitForwardee(const Word *Obj) const {
    size_t Index;
    forwardBitsFor(Obj, Index);
    const std::vector<uint64_t> *Pub =
        const_cast<GenHeap *>(this)->publishedBitsFor(Obj);
    assert(Pub && !Pub->empty());
    uint64_t Bit = (uint64_t)1 << (Index & 63);
    std::atomic_ref<uint64_t> B(
        const_cast<uint64_t &>((*Pub)[Index >> 6]));
    while (!(B.load(std::memory_order_acquire) & Bit))
      std::this_thread::yield();
    return Obj[0];
  }

  /// GC workers' copy buffers over the three evacuation targets. Workers'
  /// buffers and the serial allocateIn*() must not interleave within one
  /// phase.
  CopyBuffer survivorBuffer() {
    assert(MinorActive && "not in a minor collection");
    return CopyBuffer(NurToAlloc, NurToEnd, NurToLimit, GcWorkers,
                      "nursery to-space");
  }
  CopyBuffer tenuredBuffer() {
    assert(MinorActive && "not in a minor collection");
    return CopyBuffer(TenAlloc, TenEnd, TenLimit, GcWorkers, "tenured space");
  }
  CopyBuffer toSpaceBuffer() {
    assert(MajorActive && "not in a major collection");
    return CopyBuffer(TenToAlloc, TenToEnd, TenToLimit, GcWorkers,
                      "tenured to-space");
  }

  /// Reallocates the nursery semispaces at \p MinWords or more. Only legal
  /// while the nursery is empty (after a major collection).
  void growNursery(size_t MinWords);

  // -- Accounting -----------------------------------------------------------
  /// The nursery's semispace size. A nursery that parallel evacuation
  /// spilled into its reserve reaches past it until the major that
  /// follows; capacityBytes() counts the spill.
  size_t nurseryCapacityWords() const { return NurCapacityWords; }
  size_t nurseryUsedWords() const { return (size_t)(Nur.Cursor - NurBase); }
  size_t nurseryFreeWords() const { return (size_t)(Nur.End - Nur.Cursor); }
  size_t tenuredCapacityWords() const { return TenCapacityWords; }
  size_t tenuredUsedWords() const { return (size_t)(TenAlloc - TenBase); }
  size_t tenuredFreeWords() const { return (size_t)(TenEnd - TenAlloc); }
  size_t capacityBytes() const {
    return ((size_t)(Nur.End - NurBase) + TenCapacityWords) * sizeof(Word);
  }
  size_t usedBytes() const {
    return (nurseryUsedWords() + tenuredUsedWords()) * sizeof(Word);
  }
  uint64_t bytesAllocatedTotal() const { return Nur.BytesAllocated; }
  /// Bytes of the forwarding bitmaps the current collection cleared.
  size_t forwardBitmapBytes() const {
    return (NurForwardBits.size() + TenForwardBits.size()) * 8;
  }
  bool collecting() const { return MinorActive || MajorActive; }

private:
  /// The forwarding bitmap covering \p Obj and the word index within it,
  /// or nullptr for an address outside both regions.
  const std::vector<uint64_t> *forwardBitsFor(const Word *Obj,
                                              size_t &Index) const {
    if (Obj >= NurBase && Obj < Nur.End) {
      Index = (size_t)(Obj - NurBase);
      return &NurForwardBits;
    }
    if (Obj >= TenBase && Obj < TenEnd) {
      Index = (size_t)(Obj - TenBase);
      return &TenForwardBits;
    }
    Index = 0;
    return nullptr;
  }

  /// Words of one nursery semispace: the capacity plus its evacuation
  /// reserve.
  size_t semispaceWords() const;
  /// (Re)allocates an empty current tenured space with its evacuation
  /// reserve.
  void allocateTenured();

  /// Published bitmap covering \p Obj (parallel collections only; empty
  /// vectors otherwise), or nullptr outside both regions.
  std::vector<uint64_t> *publishedBitsFor(const Word *Obj) {
    if (Obj >= NurBase && Obj < Nur.End)
      return &NurPublishedBits;
    if (Obj >= TenBase && Obj < TenEnd)
      return &TenPublishedBits;
    return nullptr;
  }

  /// Nursery semispace pair; NurCur indexes the current from-space. Each
  /// block holds semispaceWords(), evacuation reserve included.
  SpaceBlock NurSpaces[2];
  int NurCur = 0;
  Word *NurBase = nullptr;
  /// The nursery from-space's [cursor, end) and the lifetime allocation
  /// total.
  BumpRegion Nur;
  Word *NurToBase = nullptr, *NurToAlloc = nullptr, *NurToEnd = nullptr;
  Word *NurToLimit = nullptr; ///< End of the to-space's reserve.
  size_t NurCapacityWords = 0;

  /// Tenured pair; TenCur indexes the current tenured space. The other
  /// half is idle between majors and the to-space during one.
  SpaceBlock TenSpaces[2];
  int TenCur = 0;
  Word *TenBase = nullptr, *TenAlloc = nullptr, *TenEnd = nullptr;
  Word *TenLimit = nullptr; ///< End of tenured's reserve (promotion).
  Word *TenToBase = nullptr, *TenToAlloc = nullptr, *TenToEnd = nullptr;
  Word *TenToLimit = nullptr;
  size_t TenCapacityWords = 0;
  size_t TenToCapacityWords = 0;

  std::vector<uint64_t> NurForwardBits;
  std::vector<uint64_t> TenForwardBits;
  /// Sized alongside the forward bitmaps while parallel tracing is armed;
  /// empty otherwise.
  std::vector<uint64_t> NurPublishedBits;
  std::vector<uint64_t> TenPublishedBits;
  unsigned GcWorkers = 0; ///< Parallel evacuation workers; 0 = serial.
  bool MinorActive = false;
  bool MajorActive = false;
};

} // namespace tfgc

#endif // TFGC_RUNTIME_GENHEAP_H
