//===- runtime/Heap.cpp ---------------------------------------------------===//

#include "runtime/Heap.h"

using namespace tfgc;

Heap::Heap(size_t CapacityBytes) {
  CapacityWords = CapacityBytes / sizeof(Word);
  if (CapacityWords < 64)
    CapacityWords = 64;
  Space = std::make_unique<Word[]>(CapacityWords);
  Base = Alloc = Space.get();
  End = Base + CapacityWords;
}

void Heap::beginCollection(size_t NewCapacityWords) {
  assert(!Collecting && "collection already in progress");
  ToCapacityWords = NewCapacityWords ? NewCapacityWords : CapacityWords;
  size_t Reserve = evacuationReserveWords(ToCapacityWords, GcWorkers);
  ToSpace = std::make_unique<Word[]>(ToCapacityWords + Reserve);
  ToBase = ToAlloc = ToSpace.get();
  ToEnd = ToBase + ToCapacityWords;
  ToLimit = ToEnd + Reserve;
  ForwardBits.assign((CapacityWords + 63) / 64, 0);
  if (GcWorkers)
    PublishedBits.assign(ForwardBits.size(), 0);
  Collecting = true;
}

void Heap::endCollection() {
  assert(Collecting);
  LastSurvivorWords = (uint64_t)(ToAlloc - ToBase);
  Space = std::move(ToSpace);
  Base = Space.get();
  Alloc = ToAlloc;
  // A parallel evacuation that spilled into the reserve leaves the space
  // full: the spill joins the capacity, so contains() covers it.
  CapacityWords = std::max(ToCapacityWords, (size_t)LastSurvivorWords);
  End = Base + CapacityWords;
  ForwardBits.clear();
  ForwardBits.shrink_to_fit();
  PublishedBits.clear();
  PublishedBits.shrink_to_fit();
  Collecting = false;
}
