//===- runtime/Heap.cpp ---------------------------------------------------===//

#include "runtime/Heap.h"

using namespace tfgc;

Heap::Heap(size_t CapacityBytes) {
  CapacityWords = CapacityBytes / sizeof(Word);
  if (CapacityWords < 64)
    CapacityWords = 64;
  Spaces[Cur].allocate(CapacityWords);
  Base = Mut.Cursor = Spaces[Cur].begin();
  Mut.End = Base + CapacityWords;
}

void Heap::beginCollection(size_t NewCapacityWords) {
  assert(!Collecting && "collection already in progress");
  ToCapacityWords = NewCapacityWords ? NewCapacityWords : CapacityWords;
  size_t Reserve = evacuationReserveWords(ToCapacityWords, GcWorkers);
  SpaceBlock &To = Spaces[1 - Cur];
  To.reserve(ToCapacityWords + Reserve);
  ToBase = ToAlloc = To.begin();
  ToEnd = ToBase + ToCapacityWords;
  ToLimit = ToEnd + Reserve;
  // Only the used words [Base, cursor) can hold an object to forward, so
  // the bitmap covers those, not the whole capacity.
  ForwardBits.assign(((size_t)(Mut.Cursor - Base) + 63) / 64, 0);
  if (GcWorkers)
    PublishedBits.assign(ForwardBits.size(), 0);
  Collecting = true;
}

void Heap::endCollection() {
  assert(Collecting);
  LastSurvivorWords = (uint64_t)(ToAlloc - ToBase);
  Spaces[Cur].poison();
  Cur = 1 - Cur;
  Base = Spaces[Cur].begin();
  Mut.Cursor = ToAlloc;
  // A parallel evacuation that spilled into the reserve leaves the space
  // full: the spill joins the capacity, so contains() covers it.
  CapacityWords = std::max(ToCapacityWords, (size_t)LastSurvivorWords);
  Mut.End = Base + CapacityWords;
  ForwardBits.clear();
  PublishedBits.clear();
  Collecting = false;
}
