//===- tests/runtime_test.cpp - Heap, mark-sweep, support utilities ------===//

#include "runtime/GenHeap.h"
#include "runtime/Heap.h"
#include "runtime/MarkSweepHeap.h"
#include "runtime/Value.h"
#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace tfgc;

namespace {

/// Blocks held until the end of a test, one the size of each space a heap
/// may just have freed, so the allocator cannot hand that memory back as
/// the heap's next space: a to-space base that repeats is one the heap
/// kept.
struct Pins {
  std::vector<std::unique_ptr<Word[]>> Blocks;
  void take(size_t Words) { Blocks.push_back(std::make_unique<Word[]>(Words)); }
};

/// Moves the two-word object \p Obj as a copying collection into a
/// to-space of \p Capacity words (0 = the current capacity) would, and
/// returns the to-space base, where the object lands.
Word *collectOne(Heap &H, Word *&Obj, size_t Capacity, Pins &P) {
  size_t FromWords = H.capacityBytes() / sizeof(Word);
  H.beginCollection(Capacity);
  Word *New = H.allocateInToSpace(2);
  std::memcpy(New, Obj, 2 * sizeof(Word));
  H.setForwarded(Obj, (Word)(uintptr_t)New);
  H.endCollection();
  P.take(FromWords);
  Obj = New;
  return New;
}

/// The same over a major collection of \p H.
Word *majorOne(GenHeap &H, Word *&Obj, size_t Capacity, Pins &P) {
  size_t FromWords = H.tenuredCapacityWords();
  H.beginMajor(Capacity);
  Word *New = H.allocateInToSpace(2);
  std::memcpy(New, Obj, 2 * sizeof(Word));
  H.setForwarded(Obj, (Word)(uintptr_t)New);
  H.endMajor();
  P.take(FromWords);
  Obj = New;
  return New;
}

TEST(Heap, AllocateUntilFull) {
  Heap H(1024); // 128 words
  size_t Allocated = 0;
  while (Word *P = H.tryAllocate(8)) {
    (void)P;
    Allocated += 8;
  }
  EXPECT_EQ(Allocated, 128u);
  EXPECT_EQ(H.freeWords(), 0u);
}

TEST(Heap, ForwardingRoundTrip) {
  Heap H(4096);
  Word *A = H.tryAllocate(3);
  A[0] = 11;
  A[1] = 22;
  A[2] = 33;
  H.beginCollection();
  EXPECT_FALSE(H.isForwarded(A));
  Word *New = H.allocateInToSpace(3);
  std::memcpy(New, A, 3 * sizeof(Word));
  H.setForwarded(A, (Word)(uintptr_t)New);
  EXPECT_TRUE(H.isForwarded(A));
  EXPECT_EQ(H.forwardee(A), (Word)(uintptr_t)New);
  H.endCollection();
  EXPECT_EQ(New[2], 33u);
  EXPECT_EQ(H.usedBytes(), 3 * sizeof(Word));
}

TEST(Heap, GrowthViaCollection) {
  Heap H(512);
  H.beginCollection(1024 / 8);
  H.endCollection();
  EXPECT_EQ(H.capacityBytes(), 1024u);
}

TEST(Heap, ContainsTracksCurrentSpace) {
  Heap H(1024);
  Word *A = H.tryAllocate(4);
  EXPECT_TRUE(H.contains((Word)(uintptr_t)A));
  EXPECT_FALSE(H.contains(0));
}

TEST(Heap, HugeRequestDoesNotOverflow) {
  // Regression: the old check computed `Alloc + Words > End`, forming a
  // past-the-end pointer (UB) that a sufficiently large request could
  // wrap around, turning an OOM into a bogus success.
  Heap H(1024);
  EXPECT_EQ(H.tryAllocate(SIZE_MAX), nullptr);
  EXPECT_EQ(H.tryAllocate(SIZE_MAX / sizeof(Word)), nullptr);
  EXPECT_NE(H.tryAllocate(8), nullptr);
}

TEST(Heap, FlipReusesTheSemispacePair) {
  Heap H(512);
  Word *Obj = H.tryAllocate(2);
  Obj[0] = 5;
  Obj[1] = 6;
  Word *First = Obj; // The constructor's space.
  Pins P;
  Word *Second = collectOne(H, Obj, 0, P);
  EXPECT_NE(Second, First);
  // At a fixed capacity every collection copies into the other half.
  for (int I = 0; I < 3; ++I) {
    SCOPED_TRACE(I);
    EXPECT_EQ(collectOne(H, Obj, 0, P), I % 2 ? Second : First);
  }
  EXPECT_EQ(Obj[0], 5u);
  EXPECT_EQ(Obj[1], 6u);
  EXPECT_EQ(H.usedBytes(), 2 * sizeof(Word));
  EXPECT_EQ(H.capacityBytes(), 512u);
}

TEST(Heap, GrowthReallocatesOnlyTheSpaceThatMustGrow) {
  Heap H(512); // 64 words
  Word *Obj = H.tryAllocate(2);
  Obj[0] = 5;
  Obj[1] = 6;
  Word *A = Obj;
  Pins P;
  Word *B = collectOne(H, Obj, 0, P);
  EXPECT_NE(B, A);
  EXPECT_EQ(collectOne(H, Obj, 0, P), A);
  // Growing to 128 words: the idle half B is too small and is replaced;
  // from-space A keeps the live object until the flip.
  Word *C = collectOne(H, Obj, 128, P);
  EXPECT_NE(C, A);
  EXPECT_EQ(H.capacityBytes(), 128 * sizeof(Word));
  // Now A is the idle half, still 64 words: it must grow too.
  Word *D = collectOne(H, Obj, 0, P);
  EXPECT_NE(D, C);
  // Both halves hold 128 words, so the pair flips again, and a half that
  // holds more than a collection asks for is kept.
  EXPECT_EQ(collectOne(H, Obj, 0, P), C);
  EXPECT_EQ(collectOne(H, Obj, 0, P), D);
  EXPECT_EQ(collectOne(H, Obj, 64, P), C);
  EXPECT_EQ(H.capacityBytes(), 64 * sizeof(Word));
  // Armed parallel evacuation asks for a reserve on top of the capacity,
  // more than a 128-word half holds: the idle half D is replaced.
  H.setParallelTracing(2);
  ASSERT_GT(64 + evacuationReserveWords(64, 2), 128u);
  Word *E = collectOne(H, Obj, 64, P);
  EXPECT_NE(E, D);
  EXPECT_NE(E, C);
  EXPECT_EQ(Obj[0], 5u);
  EXPECT_EQ(Obj[1], 6u);
}

TEST(Heap, ForwardBitmapCoversOnlyTheUsedWords) {
  // Only [base, cursor) holds objects, so a 32 MiB heap holding 1 KiB
  // clears a 16-byte bitmap at a collection, not one bit per word of its
  // capacity (512 KiB).
  Heap H(32 << 20);
  ASSERT_NE(H.tryAllocate(128), nullptr);
  H.beginCollection();
  EXPECT_EQ(H.forwardBitmapBytes(), 16u);
  H.endCollection();
  // Nothing survived: the next collection's bitmap is empty.
  H.beginCollection();
  EXPECT_EQ(H.forwardBitmapBytes(), 0u);
  H.endCollection();
}

TEST(HeapDeathTest, ReadingASpaceAfterItsCollectionReports) {
  // The heaps reuse their spaces instead of freeing them, so a read of a
  // from-space after its collection would see stale words silently; the
  // poisoning keeps it an AddressSanitizer report.
  if (!PoisonsFreeWords)
    GTEST_SKIP() << "free words are poisoned only under AddressSanitizer";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Pins P;
  Heap H(512);
  Word *Obj = H.tryAllocate(2);
  Obj[0] = 5;
  Obj[1] = 6;
  volatile Word *Old = Obj;
  Word *New = collectOne(H, Obj, 0, P);
  EXPECT_EQ(New[1], 6u);
  EXPECT_DEATH((void)Old[1], "use-after-poison");
  // The free tail after the survivor is poisoned too.
  volatile Word *Tail = New + 2;
  EXPECT_DEATH((void)*Tail, "use-after-poison");

  GenHeap G(1024, 512);
  Word *Young = G.tryAllocate(2);
  Young[0] = 7;
  Young[1] = 8;
  volatile Word *OldYoung = Young;
  G.beginMinor();
  Word *Ten = G.allocateInTenured(2);
  std::memcpy(Ten, Young, 2 * sizeof(Word));
  G.setForwarded(Young, (Word)(uintptr_t)Ten);
  G.endMinor();
  EXPECT_DEATH((void)OldYoung[0], "use-after-poison");
  volatile Word *OldTen = Ten;
  majorOne(G, Ten, 64, P);
  EXPECT_EQ(Ten[1], 8u);
  EXPECT_DEATH((void)OldTen[1], "use-after-poison");
}

TEST(MarkSweep, AllocateSweepReuse) {
  MarkSweepHeap H(1024);
  Word *A = H.tryAllocate(4);
  Word *B = H.tryAllocate(4);
  ASSERT_TRUE(A && B);
  H.beginMark();
  EXPECT_TRUE(H.tryMark(A));
  EXPECT_FALSE(H.tryMark(A)); // Second mark reports already-visited.
  size_t Reclaimed = H.sweep();
  EXPECT_EQ(Reclaimed, 4 * sizeof(Word)); // B freed.
  Word *C = H.tryAllocate(4);             // Reuses B's block.
  EXPECT_EQ(C, B);
}

TEST(MarkSweep, CanAllocateMatchesTryAllocate) {
  MarkSweepHeap H(64 * 8);
  while (H.canAllocate(8))
    ASSERT_NE(H.tryAllocate(8), nullptr);
  EXPECT_EQ(H.tryAllocate(8), nullptr);
}

TEST(MarkSweep, SegmentsGrow) {
  MarkSweepHeap H(64 * 8);
  size_t Cap = H.capacityBytes();
  H.addSegment();
  EXPECT_EQ(H.capacityBytes(), 2 * Cap);
  EXPECT_TRUE(H.canAllocate(8));
}

TEST(MarkSweep, LargeBlocksUseOverflowList) {
  MarkSweepHeap H(4096);
  Word *Big = H.tryAllocate(100); // > MaxBin
  ASSERT_TRUE(Big);
  H.beginMark();
  size_t Reclaimed = H.sweep();
  EXPECT_EQ(Reclaimed, 100 * sizeof(Word));
  Word *Again = H.tryAllocate(100);
  EXPECT_EQ(Again, Big);
}

TEST(MarkSweep, BinnedFreeListsReusePerSize) {
  MarkSweepHeap H(4096);
  Word *A4 = H.tryAllocate(4);
  Word *A8 = H.tryAllocate(8);
  Word *Keep = H.tryAllocate(4);
  ASSERT_TRUE(A4 && A8 && Keep);
  H.beginMark();
  EXPECT_TRUE(H.tryMark(Keep));
  EXPECT_EQ(H.sweep(), 12 * sizeof(Word));
  // Freed blocks return to their size bins; matching requests reuse the
  // exact blocks instead of bumping fresh space.
  EXPECT_EQ(H.tryAllocate(8), A8);
  EXPECT_EQ(H.tryAllocate(4), A4);
  EXPECT_EQ(H.numBlocks(), 3u);
}

TEST(MarkSweep, SegmentGrowthMidMark) {
  MarkSweepHeap H(64 * sizeof(Word));
  Word *A = H.tryAllocate(8);
  Word *B = H.tryAllocate(8);
  ASSERT_TRUE(A && B);
  H.beginMark();
  EXPECT_TRUE(H.tryMark(A));
  // Growing in the middle of a mark phase must keep existing mark bits
  // and bring the new segment up with a clean bitmap.
  H.addSegment();
  EXPECT_EQ(H.numSegments(), 2u);
  Word *C = H.tryAllocate(8); // Lands in the new segment.
  ASSERT_TRUE(C);
  EXPECT_TRUE(H.isMarked(A));
  EXPECT_FALSE(H.isMarked(C));
  EXPECT_TRUE(H.tryMark(C));
  EXPECT_EQ(H.sweep(), 8 * sizeof(Word)); // Only B collected.
  EXPECT_TRUE(H.contains((Word)(uintptr_t)A));
  EXPECT_TRUE(H.contains((Word)(uintptr_t)C));
}

TEST(MarkSweep, MarkBitsIdempotentAndClearedBySweep) {
  MarkSweepHeap H(1024);
  Word *A = H.tryAllocate(4);
  ASSERT_TRUE(A);
  H.beginMark();
  EXPECT_FALSE(H.isMarked(A));
  EXPECT_TRUE(H.tryMark(A));
  EXPECT_TRUE(H.isMarked(A));
  EXPECT_FALSE(H.tryMark(A)); // Re-mark keeps the bit, reports visited.
  EXPECT_TRUE(H.isMarked(A));
  EXPECT_EQ(H.sweep(), 0u); // A survives; bitmap is wiped for next cycle.
  EXPECT_FALSE(H.isMarked(A));
  H.beginMark();
  EXPECT_TRUE(H.tryMark(A)); // Second cycle behaves identically.
  EXPECT_EQ(H.sweep(), 0u);
}

TEST(MarkSweep, HugeRequestDoesNotOverflow) {
  MarkSweepHeap H(1024);
  EXPECT_FALSE(H.canAllocate(SIZE_MAX));
  EXPECT_EQ(H.tryAllocate(SIZE_MAX), nullptr);
  EXPECT_EQ(H.tryAllocate(SIZE_MAX / sizeof(Word)), nullptr);
  EXPECT_NE(H.tryAllocate(8), nullptr);
}

TEST(GenHeap, NurseryAllocationAndRegions) {
  GenHeap H(4096, 1024); // 512 tenured words, 128 nursery words
  EXPECT_EQ(H.nurseryCapacityWords(), 128u);
  Word *A = H.tryAllocate(8);
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(H.inNursery((Word)(uintptr_t)A));
  EXPECT_FALSE(H.inTenured((Word)(uintptr_t)A));
  EXPECT_TRUE(H.contains((Word)(uintptr_t)A));
  EXPECT_EQ(H.tryAllocate(SIZE_MAX), nullptr); // overflow-safe, like Heap
  size_t Allocated = 8;
  while (H.tryAllocate(8))
    Allocated += 8;
  EXPECT_EQ(Allocated, 128u);
}

TEST(GenHeap, MinorSurvivalAndPromotion) {
  GenHeap H(4096, 1024);
  Word *A = H.tryAllocate(4);
  A[0] = 7;
  H.beginMinor();
  EXPECT_FALSE(H.isForwarded(A));
  Word *Survivor = H.allocateInSurvivorSpace(4);
  std::memcpy(Survivor, A, 4 * sizeof(Word));
  H.setForwarded(A, (Word)(uintptr_t)Survivor);
  EXPECT_TRUE(H.isForwarded(A));
  EXPECT_EQ(H.forwardee(A), (Word)(uintptr_t)Survivor);
  H.endMinor();
  // After the flip the survivor copy is the live nursery object.
  EXPECT_TRUE(H.inNursery((Word)(uintptr_t)Survivor));
  EXPECT_EQ(H.nurseryUsedWords(), 4u);
  EXPECT_EQ(Survivor[0], 7u);

  // Promote it during the next minor: it moves to tenured.
  H.beginMinor();
  Word *Old = H.allocateInTenured(4);
  std::memcpy(Old, Survivor, 4 * sizeof(Word));
  H.setForwarded(Survivor, (Word)(uintptr_t)Old);
  H.endMinor();
  EXPECT_TRUE(H.inTenured((Word)(uintptr_t)Old));
  EXPECT_EQ(H.nurseryUsedWords(), 0u);
  EXPECT_EQ(H.tenuredUsedWords(), 4u);
}

TEST(GenHeap, MajorEvacuatesBothRegionsAndEmptiesNursery) {
  GenHeap H(4096, 1024);
  Word *Young = H.tryAllocate(4);
  Young[0] = 1;
  H.beginMinor();
  Word *Old = H.allocateInTenured(4);
  std::memcpy(Old, Young, 4 * sizeof(Word));
  H.setForwarded(Young, (Word)(uintptr_t)Old);
  H.endMinor();
  Word *Young2 = H.tryAllocate(6);
  Young2[0] = 2;

  H.beginMajor(256);
  Word *NewOld = H.allocateInToSpace(4);
  std::memcpy(NewOld, Old, 4 * sizeof(Word));
  H.setForwarded(Old, (Word)(uintptr_t)NewOld);
  Word *NewYoung = H.allocateInToSpace(6);
  std::memcpy(NewYoung, Young2, 6 * sizeof(Word));
  H.setForwarded(Young2, (Word)(uintptr_t)NewYoung);
  H.endMajor();

  EXPECT_EQ(H.nurseryUsedWords(), 0u);
  EXPECT_EQ(H.tenuredUsedWords(), 10u);
  EXPECT_EQ(H.tenuredCapacityWords(), 256u);
  EXPECT_TRUE(H.inTenured((Word)(uintptr_t)NewOld));
  EXPECT_TRUE(H.inTenured((Word)(uintptr_t)NewYoung));
  EXPECT_EQ(NewOld[0], 1u);
  EXPECT_EQ(NewYoung[0], 2u);
}

TEST(GenHeap, GrowNurseryDoubles) {
  GenHeap H(4096, 1024);
  EXPECT_EQ(H.nurseryCapacityWords(), 128u);
  H.growNursery(300);
  EXPECT_GE(H.nurseryCapacityWords(), 300u);
  EXPECT_EQ(H.nurseryUsedWords(), 0u);
  Word *P = H.tryAllocate(300);
  EXPECT_NE(P, nullptr);
}

TEST(GenHeap, MajorsFlipTheTenuredPair) {
  GenHeap H(1024, 512); // 128 tenured words, 64 nursery words
  Word *Young = H.tryAllocate(2);
  Young[0] = 7;
  Young[1] = 8;
  H.beginMinor();
  Word *Obj = H.allocateInTenured(2);
  std::memcpy(Obj, Young, 2 * sizeof(Word));
  H.setForwarded(Young, (Word)(uintptr_t)Obj);
  H.endMinor();
  Word *First = Obj; // The constructor's tenured space.
  Pins P;
  Word *Second = majorOne(H, Obj, 64, P);
  EXPECT_NE(Second, First);
  // Each major copies into the other half; the 128-word constructor
  // space is kept for a 64-word capacity.
  for (int I = 0; I < 3; ++I) {
    SCOPED_TRACE(I);
    EXPECT_EQ(majorOne(H, Obj, 64, P), I % 2 ? Second : First);
  }
  EXPECT_EQ(H.tenuredCapacityWords(), 64u);
  EXPECT_EQ(H.tenuredUsedWords(), 2u);
  EXPECT_EQ(H.nurseryUsedWords(), 0u);
  EXPECT_EQ(Obj[0], 7u);
  EXPECT_EQ(Obj[1], 8u);
}

TEST(GenHeap, ForwardBitmapsCoverOnlyTheUsedWords) {
  // A 32 MiB tenured space holding 1 KiB: a major clears bitmaps over the
  // used words of both regions, 128 tenured and 64 nursery words, not
  // 512 KiB over the tenured capacity.
  GenHeap H(32 << 20, 4096); // 512 nursery words
  ASSERT_NE(H.tryAllocate(128), nullptr);
  H.beginMinor();
  EXPECT_EQ(H.forwardBitmapBytes(), 16u); // The nursery's alone.
  Word *Old = H.allocateInTenured(128);
  ASSERT_NE(Old, nullptr);
  H.endMinor();
  ASSERT_NE(H.tryAllocate(64), nullptr);
  H.beginMajor(256);
  EXPECT_EQ(H.forwardBitmapBytes(), 16u + 8u);
  H.endMajor();
}

TEST(Value, TagRoundTrip) {
  for (int64_t V : {0ll, 1ll, -1ll, 123456789ll, -987654321ll,
                    (1ll << 62) - 1, -(1ll << 62)}) {
    EXPECT_EQ(untagInt(tagInt(V)), V);
    EXPECT_TRUE(isTaggedImmediate(tagInt(V)));
  }
}

TEST(Value, TaggedComparisonIsOrderPreserving) {
  EXPECT_LT((int64_t)tagInt(-5), (int64_t)tagInt(3));
  EXPECT_LT((int64_t)tagInt(3), (int64_t)tagInt(4));
}

TEST(Value, Headers) {
  Word H = makeHeader(17, ObjKind::Raw);
  EXPECT_EQ(headerSize(H), 17u);
  EXPECT_EQ(headerKind(H), ObjKind::Raw);
}

TEST(Value, FloatBits) {
  for (double D : {0.0, 1.5, -2.25, 1e100}) {
    EXPECT_EQ(wordToFloat(floatToWord(D)), D);
  }
}

TEST(Arena, AlignmentAndReuse) {
  Arena A(64);
  void *P1 = A.allocate(1, 1);
  void *P16 = A.allocate(16, 16);
  EXPECT_EQ((uintptr_t)P16 % 16, 0u);
  (void)P1;
  size_t Before = A.bytesAllocated();
  A.allocate(1000, 8); // Forces a new block.
  EXPECT_GT(A.bytesAllocated(), Before);
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
}

TEST(Arena, MakeConstructs) {
  Arena A;
  struct Pod {
    int X;
    int Y;
  };
  Pod *P = A.make<Pod>(Pod{1, 2});
  EXPECT_EQ(P->X, 1);
  EXPECT_EQ(P->Y, 2);
}

TEST(Stats, Accumulation) {
  Stats S;
  S.add("a");
  S.add("a", 4);
  S.max("m", 10);
  S.max("m", 3);
  S.set("s", 7);
  EXPECT_EQ(S.get("a"), 5u);
  EXPECT_EQ(S.get("m"), 10u);
  EXPECT_EQ(S.get("s"), 7u);
  EXPECT_EQ(S.get("missing"), 0u);
  EXPECT_NE(S.render().find("a = 5"), std::string::npos);
}

TEST(Stats, StringShimSharesSlotsWithIds) {
  // Fixed names resolve to the exact slot the StatId overloads use, so
  // mixed-API code observes one counter, not two.
  Stats S;
  S.add(StatId::GcCollections, 3);
  S.add("gc.collections", 2);
  EXPECT_EQ(S.get(StatId::GcCollections), 5u);
  EXPECT_EQ(S.get("gc.collections"), 5u);
  S.max("vm.steps", 9);
  S.max(StatId::VmSteps, 4);
  EXPECT_EQ(S.get(StatId::VmSteps), 9u);
  S.set(StatId::HeapUsedBytes, 42);
  EXPECT_EQ(S.get("heap.used_bytes"), 42u);
  EXPECT_TRUE(S.has("heap.used_bytes"));
  EXPECT_FALSE(S.has(StatId::VmTagOps));
}

TEST(Stats, EveryFixedNameRoundTrips) {
  Stats S;
  for (size_t I = 0; I < Stats::NumFixed; ++I) {
    StatId Id = (StatId)I;
    std::string Name(Stats::name(Id));
    EXPECT_EQ(Stats::idForName(Name), Id) << Name;
    S.set(Name, I + 1);
    EXPECT_EQ(S.get(Id), I + 1) << Name;
  }
  EXPECT_EQ(Stats::idForName("no.such.counter"), StatId::NumIds);
}

TEST(Stats, RenderMergesFixedAndDynamicInNameOrder) {
  Stats S;
  S.add("aaa.dynamic", 1);        // Sorts before every fixed name.
  S.add(StatId::GcCollections, 2); // "gc.collections"
  S.add("gz.dynamic", 3);          // Between gc.* and heap.*.
  S.add(StatId::VmSteps, 4);       // "vm.steps"
  S.add("zz.dynamic", 5);          // After every fixed name.
  std::string R = S.render();
  size_t P0 = R.find("aaa.dynamic = 1");
  size_t P1 = R.find("gc.collections = 2");
  size_t P2 = R.find("gz.dynamic = 3");
  size_t P3 = R.find("vm.steps = 4");
  size_t P4 = R.find("zz.dynamic = 5");
  ASSERT_NE(P0, std::string::npos);
  ASSERT_NE(P4, std::string::npos);
  EXPECT_TRUE(P0 < P1 && P1 < P2 && P2 < P3 && P3 < P4);
  // Untouched counters do not render; an explicit zero does.
  EXPECT_EQ(R.find("gc.tg_nodes"), std::string::npos);
  S.set(StatId::GcTgNodes, 0);
  EXPECT_NE(S.render().find("gc.tg_nodes = 0"), std::string::npos);
}

TEST(Stats, DynamicNamesInterleaveTightlyWithFixedNames) {
  // The dynamic-name fallback must merge correctly even when dynamic keys
  // sort immediately adjacent to fixed names — the tightest case for the
  // two-finger merge in render(). The telemetry layer publishes exactly
  // such keys (gc.census_*, gc.phase_*) between fixed gc.* counters.
  Stats S;
  S.add(StatId::GcPauseNsP50, 10);     // fixed "gc.pause_ns_p50"
  S.add("gc.pause_ns_p50x", 11);       // dynamic, immediately after it
  S.add("gc.pause_ns_p5", 9);          // dynamic, prefix sorting before it
  S.add(StatId::GcPauseNsTotal, 12);   // fixed "gc.pause_ns_total"
  S.add("gc.census_data_objects", 7);  // dynamic, between fixed gc.* names
  S.add("gc.phase_root_scan_ns", 8);   // dynamic, between fixed gc.* names
  S.add(StatId::GcCollections, 1);     // fixed "gc.collections"
  S.add(StatId::GcPtrReversalSteps, 13); // fixed "gc.ptr_reversal_steps"

  // all() returns every counter once, fixed and dynamic alike.
  auto All = S.all();
  EXPECT_EQ(All.size(), 8u);
  EXPECT_EQ(All.at("gc.pause_ns_p50"), 10u);
  EXPECT_EQ(All.at("gc.pause_ns_p50x"), 11u);
  EXPECT_EQ(All.at("gc.pause_ns_p5"), 9u);
  EXPECT_EQ(All.at("gc.census_data_objects"), 7u);

  // render() emits them in one globally sorted sequence.
  std::string R = S.render();
  std::vector<std::string> Expected = {
      "gc.census_data_objects = 7", "gc.collections = 1",
      "gc.pause_ns_p5 = 9",         "gc.pause_ns_p50 = 10",
      "gc.pause_ns_p50x = 11",      "gc.pause_ns_total = 12",
      "gc.phase_root_scan_ns = 8",  "gc.ptr_reversal_steps = 13"};
  size_t Last = 0;
  for (const std::string &Line : Expected) {
    size_t P = R.find(Line);
    ASSERT_NE(P, std::string::npos) << Line << "\n" << R;
    EXPECT_GE(P, Last) << "out of order: " << Line << "\n" << R;
    Last = P;
  }
}

TEST(Stats, DynamicNameMatchingFixedNameSharesTheSlot) {
  // A dynamic-looking name that exactly equals a fixed name must resolve
  // to the fixed slot, never create a shadow dynamic counter.
  Stats S;
  S.add("gc.pause_ns_p90", 4);
  S.add(StatId::GcPauseNsP90, 2);
  EXPECT_EQ(S.get(StatId::GcPauseNsP90), 6u);
  auto All = S.all();
  EXPECT_EQ(All.size(), 1u);
  EXPECT_EQ(All.at("gc.pause_ns_p90"), 6u);
}

TEST(Stats, ClearResetsEverything) {
  Stats S;
  S.add(StatId::VmCalls, 7);
  S.add("custom.counter", 1);
  S.clear();
  EXPECT_EQ(S.get(StatId::VmCalls), 0u);
  EXPECT_FALSE(S.has(StatId::VmCalls));
  EXPECT_FALSE(S.has("custom.counter"));
  EXPECT_TRUE(S.render().empty());
}

TEST(Diagnostics, RenderAndCount) {
  DiagnosticEngine D;
  D.error(SourceLoc(3, 14), "bad thing");
  D.warning(SourceLoc(), "heads up");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  std::string R = D.render();
  EXPECT_NE(R.find("error: 3:14: bad thing"), std::string::npos);
  EXPECT_NE(R.find("warning: heads up"), std::string::npos);
  D.clear();
  EXPECT_FALSE(D.hasErrors());
}

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  Rng C(43);
  EXPECT_NE(A.next(), C.next());
}

TEST(Rng, RangeBounds) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = R.range(-3, 5);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 5);
  }
}

} // namespace
