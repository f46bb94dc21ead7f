//===- sched/WorkSteal.h - Chase-Lev work-stealing deque --------*- C++ -*-===//
///
/// \file
/// A growable single-owner work-stealing deque (Chase & Lev, SPAA'05) used
/// by the parallel trace phase: each GC worker owns one deque of stack
/// indices, pushes and pops at the bottom, and steals from the top of
/// other workers' deques when its own runs dry.
///
/// Memory-ordering note: the orderings here are deliberately *stronger*
/// than the minimal set proven sufficient by Le et al. (PPoPP'13). That
/// proof leans on standalone atomic_thread_fence, which ThreadSanitizer
/// does not model — the fence-based variant reports false races that
/// would make the TSan CI leg useless. Indices use seq_cst, slots are
/// atomic with relaxed access (slot cells are genuinely racy when a
/// steal and a wrapping push collide; the Top CAS arbitrates). The deque
/// carries coarse GC work units, not mutator-path operations, so the
/// stronger orderings cost nothing measurable.
///
/// Retired ring buffers are retained until deque destruction instead of
/// being freed on growth, which makes a racing steal's buffer pointer
/// valid for the whole collection (the classic Chase-Lev reclamation
/// dodge; a deque's rings total at most twice the peak element count).
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SCHED_WORKSTEAL_H
#define TFGC_SCHED_WORKSTEAL_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace tfgc {

template <typename T> class WorkStealDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "deque elements are copied through atomic slots");

  struct Ring {
    int64_t Cap;
    std::unique_ptr<std::atomic<T>[]> Slots;
    explicit Ring(int64_t C) : Cap(C), Slots(new std::atomic<T>[C]) {}
    T get(int64_t I) const {
      return Slots[I & (Cap - 1)].load(std::memory_order_relaxed);
    }
    void put(int64_t I, T V) {
      Slots[I & (Cap - 1)].store(V, std::memory_order_relaxed);
    }
  };

public:
  explicit WorkStealDeque(int64_t InitialCap = 64) {
    Rings.push_back(std::make_unique<Ring>(InitialCap));
    Buf.store(Rings.back().get(), std::memory_order_relaxed);
  }

  /// Owner only.
  void push(T V) {
    int64_t B = Bottom.load(std::memory_order_relaxed);
    int64_t Tp = Top.load(std::memory_order_acquire);
    Ring *R = Buf.load(std::memory_order_relaxed);
    if (B - Tp >= R->Cap) {
      R = grow(R, Tp, B);
    }
    R->put(B, V);
    Bottom.store(B + 1, std::memory_order_seq_cst);
  }

  /// Owner only. Returns false when the deque is empty (or the last
  /// element was lost to a concurrent steal).
  bool pop(T &Out) {
    int64_t B = Bottom.load(std::memory_order_relaxed) - 1;
    Ring *R = Buf.load(std::memory_order_relaxed);
    Bottom.store(B, std::memory_order_seq_cst);
    int64_t Tp = Top.load(std::memory_order_seq_cst);
    if (Tp > B) {
      Bottom.store(B + 1, std::memory_order_seq_cst);
      return false;
    }
    Out = R->get(B);
    if (Tp == B) {
      // Last element: race the thieves for it.
      bool Won = Top.compare_exchange_strong(Tp, Tp + 1,
                                             std::memory_order_seq_cst);
      Bottom.store(B + 1, std::memory_order_seq_cst);
      return Won;
    }
    return true;
  }

  /// Any thread. Returns false when empty or the steal lost a race.
  bool steal(T &Out) {
    int64_t Tp = Top.load(std::memory_order_seq_cst);
    int64_t B = Bottom.load(std::memory_order_seq_cst);
    if (Tp >= B)
      return false;
    Ring *R = Buf.load(std::memory_order_acquire);
    T V = R->get(Tp);
    if (!Top.compare_exchange_strong(Tp, Tp + 1, std::memory_order_seq_cst))
      return false;
    Out = V;
    return true;
  }

  /// Racy size estimate — only good for "is there plausibly work here"
  /// steal-target selection and end-of-phase termination rechecks.
  bool emptyApprox() const {
    return Top.load(std::memory_order_seq_cst) >=
           Bottom.load(std::memory_order_seq_cst);
  }

private:
  Ring *grow(Ring *Old, int64_t Tp, int64_t B) {
    auto Fresh = std::make_unique<Ring>(Old->Cap * 2);
    for (int64_t I = Tp; I < B; ++I)
      Fresh->put(I, Old->get(I));
    Ring *R = Fresh.get();
    Rings.push_back(std::move(Fresh));
    Buf.store(R, std::memory_order_release);
    return R;
  }

  std::atomic<int64_t> Top{0};
  std::atomic<int64_t> Bottom{0};
  std::atomic<Ring *> Buf{nullptr};
  /// All rings ever used, retained so thieves never chase freed memory.
  /// Owner-only mutation (grow); thieves reach rings through Buf.
  std::vector<std::unique_ptr<Ring>> Rings;
};

} // namespace tfgc

#endif // TFGC_SCHED_WORKSTEAL_H
