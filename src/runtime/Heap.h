//===- runtime/Heap.h - Semispace copying heap ------------------*- C++ -*-===//
///
/// \file
/// A semispace heap driven by the collectors. The heap knows nothing about
/// object layouts — under the tag-free model layout lives exclusively in
/// the compiler-generated GC metadata, so the heap only provides raw
/// allocation, space tests, and forwarding.
///
/// The two semispaces are allocated once, unzeroed, and flipped at every
/// collection: the old from-space becomes the idle half, and the next
/// collection copies into it. A half is reallocated only when a
/// collection needs more words than it holds (DESIGN.md section 6,
/// "Space lifecycle").
///
/// The mutator allocates from the current space's BumpRegion
/// (runtime/Carve.h): tryAllocate() bumps it, and so does the sequential
/// VM inline, without a call (DESIGN.md section 9). Either way the words
/// land in bytesAllocatedTotal().
///
/// Forwarding without headers: during a collection a side bitmap over
/// from-space marks objects whose word 0 has been overwritten with the
/// forwarding address. It holds one bit per *used* word — only
/// [base, cursor) holds objects — so clearing it costs what the live
/// allocation spans, not the capacity; its storage is kept for the next
/// collection. The bitmap is the documented substitution for "check
/// whether word 0 points into to-space" and is charged to the collector in
/// the space accounting.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_RUNTIME_HEAP_H
#define TFGC_RUNTIME_HEAP_H

#include "runtime/Carve.h"
#include "runtime/Value.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <thread>
#include <vector>

namespace tfgc {

class Heap {
public:
  explicit Heap(size_t CapacityBytes);

  // -- Mutator interface ---------------------------------------------------
  /// Allocates \p Words words; returns nullptr when the space is full.
  Word *tryAllocate(size_t Words) { return Mut.tryBump(Words); }

  /// The current space's allocation region, [cursor, end). The sequential
  /// VM bumps it inline (vm/VmExec.inc) and calls tryAllocate() only on a
  /// miss; the region object stays put across flips and growth, only its
  /// bounds move.
  BumpRegion &mutatorRegion() { return Mut; }

  /// Carves a TLAB chunk of at least \p MinWords (and preferably
  /// \p PreferredWords) off the shared allocation cursor (runtime/Carve.h),
  /// so concurrent mutator threads refill lock-free. On success sets
  /// [OutTop, OutEnd) and returns true; false when the remaining space
  /// can't fit \p MinWords. Chunk accounting lands in
  /// bytesAllocatedTotal() at carve time (TLAB-waste semantics; see
  /// sched/Tlab.h). Plain tryAllocate() and refillTlab() must not run
  /// concurrently — the collector routes all threaded-mode allocation
  /// through TLABs.
  bool refillTlab(size_t MinWords, size_t PreferredWords, Word *&OutTop,
                  Word *&OutEnd) {
    if (!carve(Mut.Cursor, Mut.End, Mut.End, MinWords,
               [PreferredWords](size_t) { return PreferredWords; }, OutTop,
               OutEnd))
      return false;
    std::atomic_ref<uint64_t>(Mut.BytesAllocated)
        .fetch_add((size_t)(OutEnd - OutTop) * sizeof(Word),
                   std::memory_order_relaxed);
    return true;
  }

  size_t capacityBytes() const { return CapacityWords * sizeof(Word); }
  size_t usedBytes() const {
    return (size_t)(Mut.Cursor - Base) * sizeof(Word);
  }
  size_t freeWords() const { return (size_t)(Mut.End - Mut.Cursor); }
  uint64_t bytesAllocatedTotal() const { return Mut.BytesAllocated; }

  bool contains(Word P) const {
    return P >= (Word)(uintptr_t)Base && P < (Word)(uintptr_t)Mut.End;
  }

  // -- Collector interface --------------------------------------------------
  /// Starts a collection into the idle semispace, with a capacity of
  /// \p NewCapacityWords (0 = keep the current capacity) plus the
  /// evacuation reserve when parallel tracing is armed. The idle half is
  /// reallocated only if it holds fewer words than that. From-space stays
  /// readable until endCollection().
  void beginCollection(size_t NewCapacityWords = 0);

  /// Allocates in to-space during a serial phase of a collection. Aborts
  /// on overflow (the caller sizes to-space to at least the live data).
  Word *allocateInToSpace(size_t Words) {
    assert(Collecting && "not collecting");
    return evacuationBump(ToAlloc, ToLimit, Words, "to-space");
  }

  bool isForwarded(const Word *Obj) const {
    size_t Index = Obj - Base;
    return (ForwardBits[Index >> 6] >> (Index & 63)) & 1;
  }
  Word forwardee(const Word *Obj) const {
    assert(isForwarded(Obj));
    return Obj[0];
  }
  void setForwarded(Word *Obj, Word NewAddr) {
    size_t Index = Obj - Base;
    ForwardBits[Index >> 6] |= (uint64_t)1 << (Index & 63);
    Obj[0] = NewAddr;
    // Keep the publish bitmap coherent when a serial phase (remset scan,
    // single-stack fallback) forwards objects inside an armed parallel
    // collection: a later waitForwardee() must not spin forever.
    if (!PublishedBits.empty())
      PublishedBits[Index >> 6] |= (uint64_t)1 << (Index & 63);
  }

  // -- Parallel tracing (claim/publish protocol) ----------------------------
  /// Arms parallel evacuation by \p Workers GC workers (< 2 disarms).
  /// beginCollection() then sizes a "published" bitmap and the to-space
  /// reserve (runtime/Carve.h), and forwarding splits into claim (atomic
  /// fetch-or on the forward bit; exactly one tracer wins an object) and
  /// publish (write the forwarding address into word 0, then release the
  /// published bit). Losers spin in waitForwardee() until the winner
  /// publishes. Word 0 of a claimed-but-unpublished object is unstable,
  /// which is why tracers must read discriminants/code addresses only
  /// *after* winning the claim (core/Tracer.cpp).
  void setParallelTracing(unsigned Workers) {
    GcWorkers = Workers < 2 ? 0 : Workers;
  }
  bool parallelTracing() const { return GcWorkers != 0; }

  /// Lock-free read of the claim bit (parallel alreadyVisited fast path;
  /// a racing claim is re-arbitrated by tryClaimForward).
  bool isForwardedAtomic(const Word *Obj) const {
    size_t Index = Obj - Base;
    std::atomic_ref<uint64_t> B(
        const_cast<uint64_t &>(ForwardBits[Index >> 6]));
    return (B.load(std::memory_order_relaxed) >> (Index & 63)) & 1;
  }

  /// Atomically claims \p Obj for forwarding. True = caller won and must
  /// copy + publishForward(); false = somebody else owns it (use
  /// waitForwardee()).
  bool tryClaimForward(Word *Obj) {
    size_t Index = Obj - Base;
    uint64_t Bit = (uint64_t)1 << (Index & 63);
    std::atomic_ref<uint64_t> B(ForwardBits[Index >> 6]);
    return !(B.fetch_or(Bit, std::memory_order_acq_rel) & Bit);
  }

  void publishForward(Word *Obj, Word NewAddr) {
    Obj[0] = NewAddr;
    size_t Index = Obj - Base;
    std::atomic_ref<uint64_t> B(PublishedBits[Index >> 6]);
    B.fetch_or((uint64_t)1 << (Index & 63), std::memory_order_release);
  }

  Word waitForwardee(const Word *Obj) const {
    size_t Index = Obj - Base;
    uint64_t Bit = (uint64_t)1 << (Index & 63);
    std::atomic_ref<uint64_t> B(
        const_cast<uint64_t &>(PublishedBits[Index >> 6]));
    while (!(B.load(std::memory_order_acquire) & Bit))
      std::this_thread::yield();
    return Obj[0];
  }

  /// A GC worker's copy buffer over to-space. Workers' buffers and the
  /// serial allocateInToSpace() must not interleave within one phase.
  CopyBuffer toSpaceBuffer() {
    assert(Collecting && "not collecting");
    return CopyBuffer(ToAlloc, ToEnd, ToLimit, GcWorkers, "to-space");
  }

  /// True while collecting and P points into from-space.
  bool inFromSpace(Word P) const {
    return P >= (Word)(uintptr_t)Base && P < (Word)(uintptr_t)Mut.End;
  }

  /// Flips the pair: to-space becomes the live space and from-space the
  /// idle half, every word of it free. A to-space that parallel
  /// evacuation spilled into its reserve comes out full: its capacity
  /// ends where the spill does.
  void endCollection();

  bool collecting() const { return Collecting; }
  size_t forwardBitmapBytes() const { return ForwardBits.size() * 8; }

  /// Census hook: words that survived the most recent collection (the
  /// to-space fill level recorded at endCollection). 0 before the first
  /// collection.
  uint64_t survivorWords() const { return LastSurvivorWords; }

private:
  /// The semispace pair; Cur indexes the current (from-) space. The
  /// other half is idle between collections and the to-space during one.
  SpaceBlock Spaces[2];
  int Cur = 0;
  Word *Base = nullptr;
  /// The current space's [cursor, end) and the lifetime allocation total.
  BumpRegion Mut;
  Word *ToBase = nullptr, *ToAlloc = nullptr, *ToEnd = nullptr;
  Word *ToLimit = nullptr; ///< End of to-space's evacuation reserve.
  size_t CapacityWords = 0;
  size_t ToCapacityWords = 0;
  std::vector<uint64_t> ForwardBits;
  /// Sized alongside ForwardBits while parallel tracing is armed; empty
  /// otherwise.
  std::vector<uint64_t> PublishedBits;
  unsigned GcWorkers = 0; ///< Parallel evacuation workers; 0 = serial.
  bool Collecting = false;
  uint64_t LastSurvivorWords = 0;
};

} // namespace tfgc

#endif // TFGC_RUNTIME_HEAP_H
