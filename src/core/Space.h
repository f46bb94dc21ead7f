//===- core/Space.h - Copying vs mark-sweep policy --------------*- C++ -*-===//
///
/// \file
/// The tracing engines are generic over the underlying collection
/// algorithm (the paper supports both copying and mark/sweep). A Space
/// answers "was this object visited already?" and performs the visit
/// (copy+forward, or mark).
///
/// Every concrete space is final and names itself with a SpaceKind. The
/// tracers dispatch on that kind once per trace call (dispatchSpace) and
/// run a loop instantiated for the concrete class, so the per-object
/// calls — alreadyVisited, tryClaim, visitNew — are direct and inline:
///
///   alreadyVisited(Ref, NewRef)  true (and NewRef set) when Ref was
///                                visited already
///   tryClaim(Ref, NewRef)        parallel first-visit arbitration, called
///                                between alreadyVisited and visitNew.
///                                Serial spaces claim unconditionally.
///                                Parallel spaces race atomically: true =
///                                the caller won and must visitNew + scan;
///                                false = another worker owns the object
///                                and NewRef is its final reference (a
///                                copying space may spin until the winner
///                                publishes). Word 0 of an object is only
///                                stable for the claim winner, so tracers
///                                read discriminants and closure code
///                                addresses after a successful tryClaim
///                                (DESIGN.md section 11).
///   visitNew(Ref, PayloadWords)  first visit: copies (copying) or marks
///                                (mark-sweep) the object and returns its
///                                new reference
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_CORE_SPACE_H
#define TFGC_CORE_SPACE_H

#include "runtime/GenHeap.h"
#include "runtime/Heap.h"
#include "runtime/MarkSweepHeap.h"

#include <cstring>
#include <functional>
#include <memory>
#include <unordered_set>

namespace tfgc {

enum class SpaceKind : uint8_t {
  Copying,
  ParCopying,
  Mark,
  ParMark,
  GenMinor,
  ParGenMinor,
  GenMajor,
  ParGenMajor,
  Check,
};

class Space {
public:
  virtual ~Space() = default;

  SpaceKind kind() const { return Kind; }

  /// A thread-private sibling policy for one GC worker (shares the heap,
  /// owns its own survival counters), or nullptr when this policy cannot
  /// trace in parallel (CheckSpace; any space whose heap is not armed).
  virtual std::unique_ptr<Space> makeWorkerSpace() { return nullptr; }

  /// Folds a worker sibling's counters back into this base space after
  /// the workers join (still inside the pause).
  virtual void mergeWorker(Space &Worker) { (void)Worker; }

  /// The payload to scan/patch after visitNew (the to-space copy under
  /// copying collection).
  Word *payload(Word Ref) const { return reinterpret_cast<Word *>(Ref); }

protected:
  explicit Space(SpaceKind Kind) : Kind(Kind) {}

private:
  const SpaceKind Kind;
};

/// Copies an object's payload. Most objects are a few words, where an
/// inline copy beats a call to memcpy.
inline void copyPayload(Word *To, const Word *From, size_t Words) {
  switch (Words) {
  case 4:
    To[3] = From[3];
    [[fallthrough]];
  case 3:
    To[2] = From[2];
    [[fallthrough]];
  case 2:
    To[1] = From[1];
    [[fallthrough]];
  case 1:
    To[0] = From[0];
    [[fallthrough]];
  case 0:
    return;
  default:
    std::memcpy(To, From, Words * sizeof(Word));
  }
}

/// Parallel sibling of CopyingSpace: claim with an atomic fetch-or on the
/// forward bitmap, copy into the worker's own to-space copy buffer
/// (runtime/Carve.h), then publish the forwarding address
/// (runtime/Heap.h claim/publish protocol).
class ParCopyingSpace final : public Space {
public:
  ParCopyingSpace(Heap &H, bool TaggedHeaders)
      : Space(SpaceKind::ParCopying), H(H), Buf(H.toSpaceBuffer()),
        TaggedHeaders(TaggedHeaders) {}

  bool alreadyVisited(Word Ref, Word &NewRef) {
    Word *Obj = reinterpret_cast<Word *>(Ref);
    if (!H.isForwardedAtomic(Obj))
      return false;
    NewRef = H.waitForwardee(Obj);
    return true;
  }

  bool tryClaim(Word Ref, Word &NewRef) {
    Word *Obj = reinterpret_cast<Word *>(Ref);
    if (H.tryClaimForward(Obj))
      return true;
    NewRef = H.waitForwardee(Obj);
    return false;
  }

  Word visitNew(Word Ref, size_t PayloadWords) {
    Word *Old = reinterpret_cast<Word *>(Ref);
    Word *New;
    if (TaggedHeaders) {
      Word *Alloc = Buf.allocate(PayloadWords + 1);
      Alloc[0] = Old[-1];
      New = Alloc + 1;
    } else {
      New = Buf.allocate(PayloadWords);
    }
    copyPayload(New, Old, PayloadWords);
    H.publishForward(Old, (Word)(uintptr_t)New);
    return (Word)(uintptr_t)New;
  }

private:
  Heap &H;
  CopyBuffer Buf;
  bool TaggedHeaders;
};

/// Semispace policy. With \p TaggedHeaders, objects carry a header at
/// payload[-1] that is copied along.
class CopyingSpace final : public Space {
public:
  CopyingSpace(Heap &H, bool TaggedHeaders)
      : Space(SpaceKind::Copying), H(H), TaggedHeaders(TaggedHeaders) {}

  bool alreadyVisited(Word Ref, Word &NewRef) {
    Word *Obj = reinterpret_cast<Word *>(Ref);
    if (!H.isForwarded(Obj))
      return false;
    NewRef = H.forwardee(Obj);
    return true;
  }

  /// Serial: the caller always wins the claim.
  bool tryClaim(Word, Word &) { return true; }

  Word visitNew(Word Ref, size_t PayloadWords) {
    Word *Old = reinterpret_cast<Word *>(Ref);
    Word *New;
    if (TaggedHeaders) {
      Word *Alloc = H.allocateInToSpace(PayloadWords + 1);
      Alloc[0] = Old[-1];
      New = Alloc + 1;
    } else {
      New = H.allocateInToSpace(PayloadWords);
    }
    copyPayload(New, Old, PayloadWords);
    H.setForwarded(Old, (Word)(uintptr_t)New);
    return (Word)(uintptr_t)New;
  }

  std::unique_ptr<Space> makeWorkerSpace() override {
    if (!H.parallelTracing())
      return nullptr;
    return std::make_unique<ParCopyingSpace>(H, TaggedHeaders);
  }

private:
  Heap &H;
  bool TaggedHeaders;
};

/// Parallel sibling of MarkSpace. Non-moving, so there is no publish
/// protocol: the atomic mark claim *is* the whole arbitration, and losers
/// keep the unchanged reference without waiting.
class ParMarkSpace final : public Space {
public:
  ParMarkSpace(MarkSweepHeap &H, bool TaggedHeaders)
      : Space(SpaceKind::ParMark), H(H), TaggedHeaders(TaggedHeaders) {}

  bool alreadyVisited(Word Ref, Word &NewRef) {
    if (!H.isMarkedAtomic(block(Ref)))
      return false;
    NewRef = Ref;
    return true;
  }

  bool tryClaim(Word Ref, Word &NewRef) {
    NewRef = Ref;
    return H.tryMarkAtomic(block(Ref));
  }

  Word visitNew(Word Ref, size_t PayloadWords) {
    // Already marked by the winning tryClaim.
    (void)PayloadWords;
    return Ref;
  }

private:
  const Word *block(Word Ref) const {
    return reinterpret_cast<const Word *>(Ref) - (TaggedHeaders ? 1 : 0);
  }

  MarkSweepHeap &H;
  bool TaggedHeaders;
};

/// Non-moving policy. Marks are recorded against block addresses, which
/// under the tagged model sit one header word before the payload.
class MarkSpace final : public Space {
public:
  MarkSpace(MarkSweepHeap &H, bool TaggedHeaders)
      : Space(SpaceKind::Mark), H(H), TaggedHeaders(TaggedHeaders) {}

  bool alreadyVisited(Word Ref, Word &NewRef) {
    if (!H.isMarked(block(Ref)))
      return false;
    NewRef = Ref;
    return true;
  }

  /// Serial: the caller always wins the claim.
  bool tryClaim(Word, Word &) { return true; }

  Word visitNew(Word Ref, size_t PayloadWords) {
    (void)PayloadWords;
    H.tryMark(block(Ref));
    return Ref;
  }

  std::unique_ptr<Space> makeWorkerSpace() override {
    return std::make_unique<ParMarkSpace>(H, TaggedHeaders);
  }

private:
  const Word *block(Word Ref) const {
    return reinterpret_cast<const Word *>(Ref) - (TaggedHeaders ? 1 : 0);
  }

  MarkSweepHeap &H;
  bool TaggedHeaders;
};

/// Parallel sibling of GenMinorSpace: thread-private survival counters,
/// a private copy buffer over the evacuation target, claim/publish
/// forwarding.
class ParGenMinorSpace final : public Space {
public:
  ParGenMinorSpace(GenHeap &H, bool TaggedHeaders, bool Promote)
      : Space(SpaceKind::ParGenMinor), H(H),
        Buf(Promote ? H.tenuredBuffer() : H.survivorBuffer()),
        TaggedHeaders(TaggedHeaders), Promote(Promote) {}

  bool alreadyVisited(Word Ref, Word &NewRef) {
    if (!H.inNursery(Ref)) {
      NewRef = Ref;
      return true;
    }
    Word *Obj = reinterpret_cast<Word *>(Ref);
    if (!H.isForwardedAtomic(Obj))
      return false;
    NewRef = H.waitForwardee(Obj);
    return true;
  }

  bool tryClaim(Word Ref, Word &NewRef) {
    Word *Obj = reinterpret_cast<Word *>(Ref);
    if (H.tryClaimForward(Obj))
      return true;
    NewRef = H.waitForwardee(Obj);
    return false;
  }

  Word visitNew(Word Ref, size_t PayloadWords) {
    Word *Old = reinterpret_cast<Word *>(Ref);
    size_t Total = PayloadWords + (TaggedHeaders ? 1 : 0);
    Word *Alloc = Buf.allocate(Total);
    Word *New;
    if (TaggedHeaders) {
      Alloc[0] = Old[-1];
      New = Alloc + 1;
    } else {
      New = Alloc;
    }
    copyPayload(New, Old, PayloadWords);
    H.publishForward(Old, (Word)(uintptr_t)New);
    if (Promote) {
      ++PromotedObjs;
      PromotedWords += Total;
    } else {
      ++SurvivorObjs;
      SurvivorWords += Total;
    }
    return (Word)(uintptr_t)New;
  }

  uint64_t promotedObjects() const { return PromotedObjs; }
  uint64_t promotedWords() const { return PromotedWords; }
  uint64_t survivorObjects() const { return SurvivorObjs; }
  uint64_t survivorWords() const { return SurvivorWords; }

private:
  GenHeap &H;
  CopyBuffer Buf;
  bool TaggedHeaders;
  bool Promote;
  uint64_t PromotedObjs = 0, PromotedWords = 0;
  uint64_t SurvivorObjs = 0, SurvivorWords = 0;
};

/// Minor-collection policy over a generational heap: only nursery objects
/// move. Tenured references short-circuit as already-visited (tenured is
/// not scanned during a minor — old→young edges arrive via the remembered
/// set instead). Survivors evacuate either to the nursery to-space or,
/// when \p Promote is set (en-masse promotion), to the tenured space.
class GenMinorSpace final : public Space {
public:
  GenMinorSpace(GenHeap &H, bool TaggedHeaders, bool Promote)
      : Space(SpaceKind::GenMinor), H(H), TaggedHeaders(TaggedHeaders),
        Promote(Promote) {}

  bool alreadyVisited(Word Ref, Word &NewRef) {
    if (!H.inNursery(Ref)) {
      // Old (or immortal/global) objects stay put and are not rescanned.
      NewRef = Ref;
      return true;
    }
    Word *Obj = reinterpret_cast<Word *>(Ref);
    if (!H.isForwarded(Obj))
      return false;
    NewRef = H.forwardee(Obj);
    return true;
  }

  /// Serial: the caller always wins the claim.
  bool tryClaim(Word, Word &) { return true; }

  Word visitNew(Word Ref, size_t PayloadWords) {
    Word *Old = reinterpret_cast<Word *>(Ref);
    size_t Total = PayloadWords + (TaggedHeaders ? 1 : 0);
    Word *Alloc = Promote ? H.allocateInTenured(Total)
                          : H.allocateInSurvivorSpace(Total);
    Word *New;
    if (TaggedHeaders) {
      Alloc[0] = Old[-1];
      New = Alloc + 1;
    } else {
      New = Alloc;
    }
    copyPayload(New, Old, PayloadWords);
    H.setForwarded(Old, (Word)(uintptr_t)New);
    if (Promote) {
      ++PromotedObjs;
      PromotedWords += Total;
    } else {
      ++SurvivorObjs;
      SurvivorWords += Total;
    }
    return (Word)(uintptr_t)New;
  }

  uint64_t promotedObjects() const { return PromotedObjs; }
  uint64_t promotedWords() const { return PromotedWords; }
  uint64_t survivorObjects() const { return SurvivorObjs; }
  uint64_t survivorWords() const { return SurvivorWords; }

  std::unique_ptr<Space> makeWorkerSpace() override {
    if (!H.parallelTracing())
      return nullptr;
    return std::make_unique<ParGenMinorSpace>(H, TaggedHeaders, Promote);
  }
  void mergeWorker(Space &Worker) override {
    auto &P = static_cast<ParGenMinorSpace &>(Worker);
    PromotedObjs += P.promotedObjects();
    PromotedWords += P.promotedWords();
    SurvivorObjs += P.survivorObjects();
    SurvivorWords += P.survivorWords();
  }

private:
  GenHeap &H;
  bool TaggedHeaders;
  bool Promote;
  uint64_t PromotedObjs = 0, PromotedWords = 0;
  uint64_t SurvivorObjs = 0, SurvivorWords = 0;
};

/// Parallel sibling of GenMajorSpace: a private copy buffer over the
/// tenured to-space, claim/publish forwarding.
class ParGenMajorSpace final : public Space {
public:
  ParGenMajorSpace(GenHeap &H, bool TaggedHeaders)
      : Space(SpaceKind::ParGenMajor), H(H), Buf(H.toSpaceBuffer()),
        TaggedHeaders(TaggedHeaders) {}

  bool alreadyVisited(Word Ref, Word &NewRef) {
    Word *Obj = reinterpret_cast<Word *>(Ref);
    if (!H.isForwardedAtomic(Obj))
      return false;
    NewRef = H.waitForwardee(Obj);
    return true;
  }

  bool tryClaim(Word Ref, Word &NewRef) {
    Word *Obj = reinterpret_cast<Word *>(Ref);
    if (H.tryClaimForward(Obj))
      return true;
    NewRef = H.waitForwardee(Obj);
    return false;
  }

  Word visitNew(Word Ref, size_t PayloadWords) {
    Word *Old = reinterpret_cast<Word *>(Ref);
    size_t Total = PayloadWords + (TaggedHeaders ? 1 : 0);
    bool Young = H.inNursery(Ref);
    Word *Alloc = Buf.allocate(Total);
    Word *New;
    if (TaggedHeaders) {
      Alloc[0] = Old[-1];
      New = Alloc + 1;
    } else {
      New = Alloc;
    }
    copyPayload(New, Old, PayloadWords);
    H.publishForward(Old, (Word)(uintptr_t)New);
    if (Young) {
      ++YoungEvacObjs;
      YoungEvacWords += Total;
    }
    return (Word)(uintptr_t)New;
  }

  uint64_t youngEvacuatedObjects() const { return YoungEvacObjs; }
  uint64_t youngEvacuatedWords() const { return YoungEvacWords; }

private:
  GenHeap &H;
  CopyBuffer Buf;
  bool TaggedHeaders;
  uint64_t YoungEvacObjs = 0, YoungEvacWords = 0;
};

/// Major-collection policy over a generational heap: the entire live
/// graph — young and old — evacuates into the idle tenured half.
/// Young objects evacuated here count as promotions (they leave the
/// nursery for good).
class GenMajorSpace final : public Space {
public:
  GenMajorSpace(GenHeap &H, bool TaggedHeaders)
      : Space(SpaceKind::GenMajor), H(H), TaggedHeaders(TaggedHeaders) {}

  bool alreadyVisited(Word Ref, Word &NewRef) {
    Word *Obj = reinterpret_cast<Word *>(Ref);
    if (!H.isForwarded(Obj))
      return false;
    NewRef = H.forwardee(Obj);
    return true;
  }

  /// Serial: the caller always wins the claim.
  bool tryClaim(Word, Word &) { return true; }

  Word visitNew(Word Ref, size_t PayloadWords) {
    Word *Old = reinterpret_cast<Word *>(Ref);
    size_t Total = PayloadWords + (TaggedHeaders ? 1 : 0);
    bool Young = H.inNursery(Ref);
    Word *Alloc = H.allocateInToSpace(Total);
    Word *New;
    if (TaggedHeaders) {
      Alloc[0] = Old[-1];
      New = Alloc + 1;
    } else {
      New = Alloc;
    }
    copyPayload(New, Old, PayloadWords);
    H.setForwarded(Old, (Word)(uintptr_t)New);
    if (Young) {
      ++YoungEvacObjs;
      YoungEvacWords += Total;
    }
    return (Word)(uintptr_t)New;
  }

  uint64_t youngEvacuatedObjects() const { return YoungEvacObjs; }
  uint64_t youngEvacuatedWords() const { return YoungEvacWords; }

  std::unique_ptr<Space> makeWorkerSpace() override {
    if (!H.parallelTracing())
      return nullptr;
    return std::make_unique<ParGenMajorSpace>(H, TaggedHeaders);
  }
  void mergeWorker(Space &Worker) override {
    auto &P = static_cast<ParGenMajorSpace &>(Worker);
    YoungEvacObjs += P.youngEvacuatedObjects();
    YoungEvacWords += P.youngEvacuatedWords();
  }

private:
  GenHeap &H;
  bool TaggedHeaders;
  uint64_t YoungEvacObjs = 0, YoungEvacWords = 0;
};

/// Read-only verification policy: visits the reachable graph without
/// moving or marking anything, validating that every reference lands
/// inside the live heap. Used after a collection to catch collector bugs
/// (a pointer the tracer failed to forward would point into the dead
/// from-space, which no longer exists).
class CheckSpace final : public Space {
public:
  /// \p InBounds answers whether a payload address lies in the live heap.
  CheckSpace(std::function<bool(Word)> InBounds, bool TaggedHeaders)
      : Space(SpaceKind::Check), InBounds(std::move(InBounds)),
        TaggedHeaders(TaggedHeaders) {}

  bool alreadyVisited(Word Ref, Word &NewRef) {
    if (!Visited.count(Ref))
      return false;
    NewRef = Ref;
    return true;
  }

  /// Serial: the caller always wins the claim.
  bool tryClaim(Word, Word &) { return true; }

  Word visitNew(Word Ref, size_t PayloadWords) {
    Word First = TaggedHeaders ? Ref - sizeof(Word) : Ref;
    Word Last = Ref + (PayloadWords ? PayloadWords - 1 : 0) * sizeof(Word);
    if (!InBounds(First) || !InBounds(Last))
      ++Violations;
    Visited.insert(Ref);
    return Ref;
  }

  uint64_t violations() const { return Violations; }

private:
  std::function<bool(Word)> InBounds;
  bool TaggedHeaders;
  std::unordered_set<Word> Visited;
  uint64_t Violations = 0;
};

/// Calls \p Fn with \p Sp as its concrete space: the one dispatch a
/// trace call pays, after which every per-object call is direct.
template <class FnT> decltype(auto) dispatchSpace(Space &Sp, FnT &&Fn) {
  switch (Sp.kind()) {
  case SpaceKind::Copying:
    return Fn(static_cast<CopyingSpace &>(Sp));
  case SpaceKind::ParCopying:
    return Fn(static_cast<ParCopyingSpace &>(Sp));
  case SpaceKind::Mark:
    return Fn(static_cast<MarkSpace &>(Sp));
  case SpaceKind::ParMark:
    return Fn(static_cast<ParMarkSpace &>(Sp));
  case SpaceKind::GenMinor:
    return Fn(static_cast<GenMinorSpace &>(Sp));
  case SpaceKind::ParGenMinor:
    return Fn(static_cast<ParGenMinorSpace &>(Sp));
  case SpaceKind::GenMajor:
    return Fn(static_cast<GenMajorSpace &>(Sp));
  case SpaceKind::ParGenMajor:
    return Fn(static_cast<ParGenMajorSpace &>(Sp));
  case SpaceKind::Check:
    return Fn(static_cast<CheckSpace &>(Sp));
  }
  __builtin_unreachable();
}

} // namespace tfgc

#endif // TFGC_CORE_SPACE_H
