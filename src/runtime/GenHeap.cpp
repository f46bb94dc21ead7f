//===- runtime/GenHeap.cpp ------------------------------------------------===//

#include "runtime/GenHeap.h"

using namespace tfgc;

namespace {

size_t clampWords(size_t Bytes) {
  size_t Words = Bytes / sizeof(Word);
  return Words < 64 ? 64 : Words;
}

} // namespace

GenHeap::GenHeap(size_t TenuredBytes, size_t NurseryBytes) {
  NurCapacityWords = clampWords(NurseryBytes);
  NurSpaces[0].allocate(semispaceWords());
  NurSpaces[1].allocate(semispaceWords());
  NurBase = Nur.Cursor = NurSpaces[0].begin();
  Nur.End = NurBase + NurCapacityWords;

  TenCapacityWords = clampWords(TenuredBytes);
  allocateTenured();
}

size_t GenHeap::semispaceWords() const {
  return NurCapacityWords +
         evacuationReserveWords(NurCapacityWords, GcWorkers);
}

void GenHeap::allocateTenured() {
  size_t Reserve = evacuationReserveWords(TenCapacityWords, GcWorkers);
  TenSpaces[TenCur].allocate(TenCapacityWords + Reserve);
  TenBase = TenAlloc = TenSpaces[TenCur].begin();
  TenEnd = TenBase + TenCapacityWords;
  TenLimit = TenEnd + Reserve;
}

void GenHeap::setParallelTracing(unsigned Workers) {
  assert(!collecting() && "cannot arm mid-collection");
  if (Workers < 2)
    Workers = 0;
  if (Workers == GcWorkers)
    return;
  GcWorkers = Workers;
  // Give every space that holds nothing yet its evacuation reserve now.
  // Tenured only fills through collections, so it is empty before the
  // first one; a nursery semispace that already holds objects gets its
  // reserve in beginMinor(), when it next becomes the to-space. The old
  // spaces are released before any new one is allocated, the largest
  // first, so the new ones can take the old ones' memory instead of
  // growing the process.
  bool NurseryEmpty = nurseryUsedWords() == 0;
  bool TenuredEmpty = tenuredUsedWords() == 0;
  NurSpaces[1 - NurCur].release();
  if (NurseryEmpty)
    NurSpaces[NurCur].release();
  if (TenuredEmpty) {
    allocateTenured();
  } else {
    // Objects cannot move outside a collection, so a tenured space that
    // holds some takes its reserve off its own end. One already fuller
    // than that is full, which makes the next collection a major, and the
    // major's tenured to-space has a reserve of its own.
    size_t Reserve = std::min(evacuationReserveWords(TenCapacityWords, Workers),
                              (size_t)(TenLimit - TenBase));
    if ((size_t)(TenLimit - TenEnd) < Reserve) {
      TenEnd = std::max(TenAlloc, TenLimit - Reserve);
      TenCapacityWords = (size_t)(TenEnd - TenBase);
    }
  }
  NurSpaces[1 - NurCur].allocate(semispaceWords());
  if (NurseryEmpty) {
    NurSpaces[NurCur].allocate(semispaceWords());
    NurBase = Nur.Cursor = NurSpaces[NurCur].begin();
    Nur.End = NurBase + NurCapacityWords;
  }
}

void GenHeap::beginMinor() {
  assert(!collecting() && "collection already in progress");
  SpaceBlock &To = NurSpaces[1 - NurCur];
  To.reserve(semispaceWords());
  NurToBase = NurToAlloc = To.begin();
  NurToEnd = NurToBase + NurCapacityWords;
  NurToLimit = NurToBase + To.words();
  // Only the used words of a region can hold an object to forward.
  NurForwardBits.assign((nurseryUsedWords() + 63) / 64, 0);
  if (GcWorkers)
    NurPublishedBits.assign(NurForwardBits.size(), 0);
  MinorActive = true;
}

void GenHeap::endMinor() {
  assert(MinorActive);
  // The to-space (survivors) becomes the nursery; the old from-space goes
  // idle, every word free, as the next collection's to-space. Survivors
  // or promotions that spilled into a reserve leave that space full.
  NurSpaces[NurCur].poison();
  NurCur = 1 - NurCur;
  NurBase = NurSpaces[NurCur].begin();
  Nur.Cursor = NurToAlloc;
  Nur.End = std::max(NurBase + NurCapacityWords, Nur.Cursor);
  NurToBase = NurToAlloc = NurToEnd = NurToLimit = nullptr;
  if (TenAlloc > TenEnd) {
    TenEnd = TenAlloc;
    TenCapacityWords = (size_t)(TenEnd - TenBase);
  }
  NurForwardBits.clear();
  NurPublishedBits.clear();
  MinorActive = false;
}

void GenHeap::beginMajor(size_t NewTenuredCapacityWords) {
  assert(!collecting() && "collection already in progress");
  TenToCapacityWords =
      NewTenuredCapacityWords < 64 ? 64 : NewTenuredCapacityWords;
  size_t Reserve = evacuationReserveWords(TenToCapacityWords, GcWorkers);
  SpaceBlock &To = TenSpaces[1 - TenCur];
  To.reserve(TenToCapacityWords + Reserve);
  TenToBase = TenToAlloc = To.begin();
  TenToEnd = TenToBase + TenToCapacityWords;
  TenToLimit = TenToEnd + Reserve;
  NurForwardBits.assign((nurseryUsedWords() + 63) / 64, 0);
  TenForwardBits.assign((tenuredUsedWords() + 63) / 64, 0);
  if (GcWorkers) {
    NurPublishedBits.assign(NurForwardBits.size(), 0);
    TenPublishedBits.assign(TenForwardBits.size(), 0);
  }
  MajorActive = true;
}

void GenHeap::endMajor() {
  assert(MajorActive);
  TenSpaces[TenCur].poison();
  TenCur = 1 - TenCur;
  TenBase = TenSpaces[TenCur].begin();
  TenAlloc = TenToAlloc;
  // A spill into the reserve leaves tenured full; the rest of the reserve
  // stays behind the new end for the next minors' promotions.
  TenCapacityWords =
      std::max(TenToCapacityWords, (size_t)(TenToAlloc - TenToBase));
  TenEnd = TenBase + TenCapacityWords;
  TenLimit = TenToLimit;
  TenToBase = TenToAlloc = TenToEnd = TenToLimit = nullptr;
  TenToCapacityWords = 0;
  // Every young survivor was evacuated into the tenured to-space, so the
  // nursery restarts empty.
  NurSpaces[NurCur].poison();
  Nur.Cursor = NurBase;
  Nur.End = NurBase + NurCapacityWords;
  NurForwardBits.clear();
  TenForwardBits.clear();
  NurPublishedBits.clear();
  TenPublishedBits.clear();
  MajorActive = false;
}

void GenHeap::growNursery(size_t MinWords) {
  assert(!collecting() && "cannot resize the nursery mid-collection");
  assert(nurseryUsedWords() == 0 && "nursery must be empty to grow");
  size_t NewWords = NurCapacityWords;
  while (NewWords < MinWords)
    NewWords *= 2;
  NurCapacityWords = NewWords;
  NurSpaces[0].allocate(semispaceWords());
  NurSpaces[1].allocate(semispaceWords());
  NurCur = 0;
  NurBase = Nur.Cursor = NurSpaces[0].begin();
  Nur.End = NurBase + NurCapacityWords;
}
