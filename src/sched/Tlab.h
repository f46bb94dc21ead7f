//===- sched/Tlab.h - Thread-local allocation buffer ------------*- C++ -*-===//
///
/// \file
/// A thread-local allocation buffer: a private [Top, End) window carved
/// out of a shared bump space so the mutator allocation fast path is two
/// thread-local pointer updates with no shared-memory traffic. Refill
/// (Heap::refillTlab / GenHeap::refillTlab) claims the next chunk off the
/// shared cursor through carve() (runtime/Carve.h), so the whole
/// allocation path is lock-free for the copying and generational heaps.
///
/// Invariants (DESIGN.md section 11):
///  * A TLAB window is owned by exactly one mutator thread and is never
///    read by another thread while the owner runs — collections reset
///    every TLAB at the rendezvous, while the world is stopped.
///  * Shared-cursor accounting counts whole chunks at carve time, so
///    `heap.used_bytes` / `heap.bytes_allocated_total` include the
///    unused tails of live TLABs (standard TLAB-waste semantics).
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SCHED_TLAB_H
#define TFGC_SCHED_TLAB_H

#include "runtime/Value.h"

#include <cstddef>
#include <cstdint>

namespace tfgc {

class FlightRing;

struct Tlab {
  /// Default refill request: big enough to amortize the CAS, small enough
  /// that per-thread waste stays a fraction of any test-sized nursery.
  static constexpr size_t ChunkWords = 256;

  Word *Top = nullptr;
  Word *End = nullptr;
  uint64_t Refills = 0;
  uint64_t AllocatedWords = 0;
  /// The owning task's flight-recorder ring (null when not recording):
  /// the refill slow path stamps a TlabRefill event with the bytes carved
  /// so a thread's allocation pressure shows on its timeline.
  FlightRing *Flight = nullptr;

  /// Fast path: thread-local bump, no atomics. Returns nullptr when the
  /// window can't fit \p Words (caller refills or collects).
  Word *bump(size_t Words) {
    if (Words > (size_t)(End - Top))
      return nullptr;
    Word *P = Top;
    Top += Words;
    AllocatedWords += Words;
    return P;
  }

  /// Drops the window. Called (a) while the world is stopped, before a
  /// collection moves the space under it, and (b) when the owning thread
  /// finishes.
  void reset() { Top = End = nullptr; }
};

} // namespace tfgc

#endif // TFGC_SCHED_TLAB_H
