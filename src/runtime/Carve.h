//===- runtime/Carve.h - Chunks off a shared bump cursor --------*- C++ -*-===//
///
/// \file
/// Every allocation in the bump heaps goes through this file. A sequential
/// mutator bumps the heap's BumpRegion one object at a time. Every
/// concurrent allocation takes a chunk off a shared cursor through
/// carve(): mutator threads carve TLABs (sched/Tlab.h), whose windows are
/// BumpRegions too, and parallel GC workers carve copy buffers (CopyBuffer
/// below). Both then bump privately inside their chunk, so the cursor's
/// cache line moves between cores once per chunk instead of once per
/// object.
///
/// The cursors bump through SpaceBlocks: unzeroed blocks that the heaps
/// keep in pairs and flip at each collection instead of freeing
/// (DESIGN.md section 6, "Space lifecycle"). A word of a block is written
/// by whoever it is handed to before anything reads it, so no block needs
/// zeroing. AddressSanitizer builds poison every word no object occupies,
/// and the allocators here and in the heaps unpoison exactly what they hand
/// out, so a read of a from-space after its collection still reports.
/// carve() itself unpoisons nothing: a TLAB chunk stays poisoned and its
/// BumpRegion unpoisons each object, while a copy buffer, whose bump
/// does not, unpoisons its whole chunk.
///
/// A copy buffer strands whatever part of its chunk no object used, which
/// a serial evacuation never does, so a target that is nearly all live
/// could overflow. Three rules bound the stranded words (DESIGN.md
/// section 11):
///  * a buffer takes at most 1/(8K) of the room left for K workers, and at
///    most MaxCopyBufferWords, so buffers shrink as the target fills;
///  * a worker drops the unused end of its buffer only when the object
///    that did not fit is at most 1/32 of the buffer, so a dropped end is
///    under 1/32 of its buffer; a larger object gets a chunk of its own
///    and the buffer is kept;
///  * every evacuation target keeps evacuationReserveWords() past its
///    logical end, which covers the worst case. A collection that spills
///    into the reserve leaves the target full (the heaps extend its end
///    over the spill), and the collector reacts as it does to any full
///    space.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_RUNTIME_CARVE_H
#define TFGC_RUNTIME_CARVE_H

#include "runtime/Value.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>

namespace tfgc {

/// True in AddressSanitizer builds, which poison every word no object
/// occupies; the ASAN_* macros (and so the two helpers below) compile to
/// nothing in other builds, which the interface header decides by the
/// same condition.
inline constexpr bool PoisonsFreeWords =
#if __has_feature(address_sanitizer) || defined(__SANITIZE_ADDRESS__)
    true;
#else
    false;
#endif

inline void poisonWords(const Word *Begin, const Word *End) {
  ASAN_POISON_MEMORY_REGION(Begin, (size_t)(End - Begin) * sizeof(Word));
}
inline void unpoisonWords(const Word *Begin, size_t Words) {
  ASAN_UNPOISON_MEMORY_REGION(Begin, Words * sizeof(Word));
}

/// One block of a bump space. It is allocated without zeroing, so its pages
/// join the process only when an allocator first writes them, and it comes
/// back poisoned whole: it holds no object yet.
class SpaceBlock {
public:
  /// Reallocates the block at exactly \p Words, dropping what it held. The
  /// old block is released first, so the new one can take its memory.
  void allocate(size_t Words) {
    Mem.reset();
    Mem = std::make_unique_for_overwrite<Word[]>(Words);
    Size = Words;
    poison();
  }
  /// Reallocates only if the block holds fewer than \p Words.
  void reserve(size_t Words) {
    if (Size < Words)
      allocate(Words);
  }
  void release() {
    Mem.reset();
    Size = 0;
  }
  /// Marks every word free: the block's objects are dead or moved.
  void poison() const { poisonWords(begin(), begin() + Size); }

  Word *begin() const { return Mem.get(); }
  size_t words() const { return Size; }

private:
  std::unique_ptr<Word[]> Mem;
  size_t Size = 0;
};

/// A mutator allocation region. Each bump heap has one, the copying
/// heap's current semispace or the generational nursery: Heap::tryAllocate,
/// GenHeap::tryAllocate and the sequential VM's inline allocation
/// (vm/VmExec.inc) all take their words through tryBump(), and TLAB refills
/// carve() off the same cursor, so BytesAllocated counts every word the
/// mutator was handed. A TLAB (sched/Tlab.h) is a region too: an
/// OS-thread VM bumps its window inline the same way.
struct BumpRegion {
  Word *Cursor = nullptr;
  Word *End = nullptr;
  /// Bytes handed out over the heap's lifetime (TLAB chunks whole).
  uint64_t BytesAllocated = 0;

  /// Bumps \p Words off the region; nullptr when they do not fit, so an
  /// empty region (Cursor == End) misses every request. The check
  /// compares against the words left: computing `Cursor + Words` first
  /// would form a past-the-end pointer (UB) for an adversarially large
  /// \p Words.
  Word *tryBump(size_t Words) {
    if (Words > (size_t)(End - Cursor))
      return nullptr;
    Word *P = Cursor;
    Cursor += Words;
    BytesAllocated += Words * sizeof(Word);
    unpoisonWords(P, Words);
    return P;
  }
};

/// Carves a chunk off the shared bump cursor \p Cursor with one CAS,
/// retried only when another thread moved the cursor first. With `Left`
/// the room before \p End, the chunk holds
/// max(\p MinWords, min(Preferred(Left), Left)) words: it reaches past
/// \p End, into the reserve [End, Limit), only when \p MinWords alone
/// does not fit, and is then exactly MinWords long. On success sets
/// [OutTop, OutEnd) and returns true; returns false, leaving the cursor
/// alone, when the chunk would pass \p Limit. The chunk stays poisoned:
/// the caller unpoisons what it hands out.
template <typename PreferredFn>
bool carve(Word *&Cursor, Word *End, Word *Limit, size_t MinWords,
           PreferredFn Preferred, Word *&OutTop, Word *&OutEnd) {
  std::atomic_ref<Word *> A(Cursor);
  Word *Cur = A.load(std::memory_order_relaxed);
  for (;;) {
    size_t Left = Cur < End ? (size_t)(End - Cur) : 0;
    size_t Take = std::max(MinWords, std::min<size_t>(Preferred(Left), Left));
    if (Take > (size_t)(Limit - Cur))
      return false;
    if (A.compare_exchange_weak(Cur, Cur + Take, std::memory_order_relaxed)) {
      OutTop = Cur;
      OutEnd = Cur + Take;
      return true;
    }
  }
}

/// Upper bound on one copy buffer, in words.
inline constexpr size_t MaxCopyBufferWords = 256;
/// A worker drops its buffer's unused end only for an object of at most
/// 1/WasteDivisor of the buffer.
inline constexpr size_t WasteDivisor = 32;

/// Words a fresh copy buffer takes when \p Left words of room are left and
/// \p Workers workers evacuate: the K buffers in flight hold at most 1/8
/// of the room left, so what they can strand shrinks as the target fills.
inline size_t copyBufferWords(size_t Left, unsigned Workers) {
  return std::min(MaxCopyBufferWords, Left / (8 * (size_t)Workers));
}

/// Words past a target's logical end that parallel evacuation of at most
/// \p CapacityWords live words by at most \p Workers workers can need
/// (0 for serial evacuation, which strands nothing). Proof: let L ≤
/// CapacityWords be the live words copied and W the words carved but never
/// used. A dropped buffer end is under 1/32 of its buffer, the buffers
/// together are at most L + W words, and each worker's last buffer leaves
/// at most MaxCopyBufferWords unused, so W ≤ (L + W)/32 + K·Max, i.e.
/// W ≤ (L + 32·K·Max)/31. The cursor passes the logical end by
/// L + W − CapacityWords ≤ W.
inline size_t evacuationReserveWords(size_t CapacityWords, unsigned Workers) {
  if (Workers < 2)
    return 0;
  return (CapacityWords + WasteDivisor * Workers * MaxCopyBufferWords) /
             (WasteDivisor - 1) +
         1;
}

/// Reports an evacuation that would pass the end of \p Target's reserve
/// and aborts, in every build type.
[[noreturn]] void evacuationOverflow(const char *Target, size_t Words);

/// Serial evacuation bump: the single-threaded phases of a collection
/// (the serial tracer, the remembered-set scan after a parallel trace)
/// allocate in the target exactly, checked against its reserve.
inline Word *evacuationBump(Word *&Cursor, Word *Limit, size_t Words,
                            const char *Target) {
  if (Words > (size_t)(Limit - Cursor))
    evacuationOverflow(Target, Words);
  Word *P = Cursor;
  Cursor += Words;
  unpoisonWords(P, Words);
  return P;
}

/// A GC worker's private copy buffer over one evacuation target. Objects
/// bump-allocate inside a chunk carved off the target's shared cursor;
/// only a refill touches the cursor. An unused chunk end stays behind as
/// a hole, which is harmless: no code walks a heap linearly (a tag-free
/// object has no header to walk by).
class CopyBuffer {
public:
  /// \p Cursor, \p End and \p Limit are the target's shared cursor,
  /// logical end and reserve end; \p Target names it for the overflow
  /// report.
  CopyBuffer(Word *&Cursor, Word *End, Word *Limit, unsigned Workers,
             const char *Target)
      : Cursor(Cursor), TargetEnd(End), TargetLimit(Limit), Workers(Workers),
        Target(Target) {}

  Word *allocate(size_t Words) {
    if (Words <= (size_t)(End - Top)) {
      Word *P = Top;
      Top += Words;
      return P;
    }
    return refill(Words);
  }

private:
  Word *refill(size_t Words) {
    Word *ChunkTop, *ChunkEnd;
    if (Top != End && Words * WasteDivisor > Size) {
      // Too big to strand this buffer's end for: a chunk of its own.
      if (!carve(Cursor, TargetEnd, TargetLimit, Words,
                 [](size_t) { return (size_t)0; }, ChunkTop, ChunkEnd))
        evacuationOverflow(Target, Words);
      unpoisonWords(ChunkTop, Words);
      return ChunkTop;
    }
    if (!carve(
            Cursor, TargetEnd, TargetLimit, Words,
            [this](size_t Left) { return copyBufferWords(Left, Workers); },
            ChunkTop, ChunkEnd))
      evacuationOverflow(Target, Words);
    Size = (size_t)(ChunkEnd - ChunkTop);
    unpoisonWords(ChunkTop, Size);
    Top = ChunkTop + Words;
    End = ChunkEnd;
    return ChunkTop;
  }

  Word *&Cursor;
  Word *TargetEnd, *TargetLimit;
  unsigned Workers;
  const char *Target;
  Word *Top = nullptr, *End = nullptr;
  size_t Size = 0; ///< Words in the current chunk.
};

} // namespace tfgc

#endif // TFGC_RUNTIME_CARVE_H
