//===- sched/Safepoint.h - Stop-the-world rendezvous ------------*- C++ -*-===//
///
/// \file
/// The handshake that stops real OS-thread mutators for a collection
/// (paper section 4, with std::thread standing in for Ada tasks). The
/// protocol has three verbs:
///
///   requestStop   a mutator exhausted the heap: arm the stop flag (the
///                 word every VM reads at its call checks, its fuel poll
///                 and its allocation slow path) and stamp the request
///                 time;
///   park          a mutator reached a GC point (its stack walkable, the
///                 pending site recorded): count it in and sleep. The
///                 *last* mutator to park owns the pause — it runs the
///                 collection thunk under the coordinator lock, advances
///                 the epoch and wakes everyone;
///   threadFinished a mutator's task completed: leave the rendezvous set,
///                 and — if every remaining mutator is already parked —
///                 run the pending collection on their behalf before
///                 exiting (otherwise they would wait forever on a
///                 thread that is gone).
///
/// The flag belongs to the runtime (GcCoordinator::stopFlag), so it exists
/// before the VMs that cache its address; the coordinator only stores it.
/// VMs read it with relaxed loads — the checks are on the interpreter hot
/// path and synchronization happens on the mutex when a mutator actually
/// parks. A stale read is benign in both directions: missing the flag
/// delays the park to the next check; seeing a completed stop just
/// bounces off the lock (park returns without waiting when no stop is
/// armed).
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SCHED_SAFEPOINT_H
#define TFGC_SCHED_SAFEPOINT_H

#include "support/FlightRecorder.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>

namespace tfgc {

class SafepointCoordinator {
public:
  /// The collection thunk, run with the world stopped and the coordinator
  /// lock held: \p NeedWords is the largest payload demand among the
  /// requesters this cycle, \p StopDelayNs the request-to-world-stop
  /// latency (the slowest mutator's park delay).
  using CollectFn = std::function<void(size_t NeedWords, uint64_t StopDelayNs)>;

  /// What park() tells the parking thread about its own handshake slot.
  struct ParkInfo {
    uint64_t DelayNs;  ///< Request-to-this-park latency (time-to-safepoint).
    uint64_t Epoch;    ///< Handshake id (the epoch this stop completes).
    bool LastParker;   ///< This park completed the rendezvous.
  };
  using ParkedFn = std::function<void(const ParkInfo &)>;
  using ResumedFn = std::function<void(uint64_t Epoch)>;
  using HandoffFn = std::function<void(uint64_t Epoch, uint64_t DelayNs)>;

  /// \p StopFlag is the runtime's stop flag, which this coordinator sets
  /// while a stop is armed.
  SafepointCoordinator(unsigned LiveThreads, std::atomic<bool> &StopFlag)
      : StopRequested(StopFlag), Live(LiveThreads) {}

  /// Attaches the flight recorder's GC ring (nullptr disables). Arm
  /// events are recorded under the coordinator lock, which is what makes
  /// the GC ring single-producer-at-a-time.
  void setFlightRing(FlightRing *R) { Flight = R; }

  /// Arms the stop (first caller per cycle) and raises the word demand.
  /// Returns true when this call armed it — the caller owns the
  /// task.gc_requests increment, so requests are counted once per
  /// handshake cycle exactly like the cooperative scheduler counts them.
  bool requestStop(size_t NeedWords) {
    std::lock_guard<std::mutex> Lock(M);
    bool Armed = false;
    if (!StopArmed) {
      StopArmed = true;
      StopRequested.store(true, std::memory_order_relaxed);
      RequestTime = std::chrono::steady_clock::now();
      Armed = true;
      if (Flight) [[unlikely]]
        Flight->record(FlightEventType::SafepointArm,
                       (uint32_t)Epoch.load(std::memory_order_relaxed),
                       NeedWords);
    }
    if (NeedWords > Need)
      Need = NeedWords;
    return Armed;
  }

  /// Parks the calling mutator at a GC point. \p OnParked runs under the
  /// lock with this thread's request-to-park delay, the handshake epoch,
  /// and whether this park completed the rendezvous (per-task
  /// time-to-safepoint and last-parker attribution); the last thread to
  /// park runs \p Collect and advances the epoch. \p OnResumed (optional)
  /// runs once the handshake this thread parked in has completed — on
  /// every parked thread, the pause owner included — so park/resume
  /// events pair up per epoch. Returns immediately when no stop is armed
  /// (the poll raced with a completing handshake).
  void park(const ParkedFn &OnParked, const CollectFn &Collect,
            const ResumedFn &OnResumed = {}) {
    std::unique_lock<std::mutex> Lock(M);
    if (!StopArmed)
      return;
    uint64_t DelayNs = sinceRequestNs();
    uint64_t MyEpoch = Epoch.load(std::memory_order_relaxed);
    ++Parked;
    bool Last = Parked == Live;
    if (OnParked)
      OnParked({DelayNs, MyEpoch, Last});
    if (Last) {
      Collect(Need, DelayNs);
      finishStop();
      Lock.unlock();
      CV.notify_all();
      if (OnResumed)
        OnResumed(MyEpoch);
      return;
    }
    CV.wait(Lock, [&] {
      return Epoch.load(std::memory_order_relaxed) != MyEpoch;
    });
    if (OnResumed)
      OnResumed(MyEpoch);
  }

  /// Removes the calling mutator from the rendezvous set (its task is
  /// done; its roots must already be out of the root set). If its exit
  /// completes a pending rendezvous, the collection runs here, on the
  /// exiting thread, so the parked mutators are not stranded; \p OnHandoff
  /// (optional) is told about it under the lock before the collection.
  void threadFinished(const CollectFn &Collect,
                      const HandoffFn &OnHandoff = {}) {
    std::unique_lock<std::mutex> Lock(M);
    --Live;
    if (!StopArmed)
      return;
    if (Live > 0 && Parked == Live) {
      uint64_t DelayNs = sinceRequestNs();
      if (OnHandoff)
        OnHandoff(Epoch.load(std::memory_order_relaxed), DelayNs);
      Collect(Need, DelayNs);
      finishStop();
      Lock.unlock();
      CV.notify_all();
    } else if (Live == 0) {
      // Unreachable in practice — the requester always parks before its
      // task can finish — but don't leave a stop armed with nobody to
      // serve it.
      StopArmed = false;
      StopRequested.store(false, std::memory_order_relaxed);
      Need = 0;
    }
  }

  /// Completed world stops. Strictly monotone, advanced only inside the
  /// pause; the stress test asserts it never goes backwards and ends
  /// equal to the number of armed requests (no lost handshakes).
  uint64_t epoch() const { return Epoch.load(std::memory_order_relaxed); }

private:
  uint64_t sinceRequestNs() const {
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - RequestTime)
        .count();
  }

  /// Lock held. Resets the cycle and publishes the new epoch (the CV
  /// predicate the parked mutators wake on).
  void finishStop() {
    StopArmed = false;
    StopRequested.store(false, std::memory_order_relaxed);
    Need = 0;
    Parked = 0;
    Epoch.fetch_add(1, std::memory_order_relaxed);
  }

  std::mutex M;
  std::condition_variable CV;
  /// The armed flag under the lock; StopRequested mirrors it for the
  /// VMs' lock-free reads.
  bool StopArmed = false;
  std::atomic<bool> &StopRequested;
  size_t Need = 0;
  unsigned Live;
  unsigned Parked = 0;
  std::chrono::steady_clock::time_point RequestTime;
  std::atomic<uint64_t> Epoch{0};
  FlightRing *Flight = nullptr;
};

} // namespace tfgc

#endif // TFGC_SCHED_SAFEPOINT_H
