//===- sched/Tlab.h - Thread-local allocation buffer ------------*- C++ -*-===//
///
/// \file
/// A thread-local allocation buffer: a private BumpRegion window carved
/// out of a shared bump space. An OS-thread VM's inline allocation region
/// is this window, so a hit is the sequential VM's inline bump
/// (vm/VmExec.inc): no call, no atomic, no shared-memory traffic. Only a
/// miss leaves the handler: Vm::allocate tests the stop flag, then
/// Collector::refillTlab claims the next chunk off the shared cursor
/// (Heap::refillTlab / GenHeap::refillTlab, through carve() in
/// runtime/Carve.h), so the whole allocation path is lock-free for the
/// copying and generational heaps.
///
/// Invariants (DESIGN.md section 11):
///  * A TLAB window is owned by exactly one mutator thread and is never
///    read by another thread while the owner runs — collections reset
///    every TLAB at the rendezvous, while the world is stopped.
///  * Shared-cursor accounting counts whole chunks at carve time, so
///    `heap.used_bytes` / `heap.bytes_allocated_total` include the
///    unused tails of live TLABs (standard TLAB-waste semantics). The
///    window's own byte count holds only what its objects took
///    (`task.<i>.tlab_alloc_words`).
///  * A refilled chunk stays poisoned under AddressSanitizer; the window's
///    tryBump unpoisons each object, so a read past a thread's newest
///    object reports.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SCHED_TLAB_H
#define TFGC_SCHED_TLAB_H

#include "runtime/Carve.h"

#include <cstddef>
#include <cstdint>

namespace tfgc {

class FlightRing;

struct Tlab {
  /// Default refill request: big enough to amortize the CAS, small enough
  /// that per-thread waste stays a fraction of any test-sized nursery.
  static constexpr size_t ChunkWords = 256;

  /// The current chunk, [Cursor, End), and the bytes bumped off every
  /// chunk this TLAB held. Empty until the first refill.
  BumpRegion Window;
  uint64_t Refills = 0;
  /// The owning task's flight-recorder ring (null when not recording):
  /// the refill slow path stamps a TlabRefill event with the bytes carved
  /// so a thread's allocation pressure shows on its timeline.
  FlightRing *Flight = nullptr;

  /// Drops the window. Called while the world is stopped, before a
  /// collection moves the space under it.
  void reset() { Window.Cursor = Window.End = nullptr; }
};

} // namespace tfgc

#endif // TFGC_SCHED_TLAB_H
