//===- tests/threads_test.cpp - OS-thread tasking + safepoints -----------===//
///
/// Exercises the sched/ subsystem end to end: the Chase-Lev deque, TLAB
/// and copy-buffer carving primitives in isolation, parallel evacuation
/// into exactly full heap targets, then the ThreadedRuntime against the
/// cooperative scheduler (the logical-semantics reference) across every
/// strategy x algorithm and every evacuation target, and finally a
/// full-rate handshake stress with a live /metrics scraper hammering the
/// introspection server while four mutator threads allocate as fast as
/// they can.

#include "TestUtil.h"
#include "runtime/Carve.h"
#include "sched/ThreadedTasking.h"
#include "sched/WorkSteal.h"
#include "support/Rng.h"
#include "workloads/Programs.h"

#include <arpa/inet.h>
#include <atomic>
#include <functional>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

//===----------------------------------------------------------------------===//
// WorkStealDeque
//===----------------------------------------------------------------------===//

TEST(WorkStealDeque, OwnerPushPopIsLifo) {
  WorkStealDeque<uint32_t> D;
  for (uint32_t I = 0; I < 10; ++I)
    D.push(I);
  uint32_t V;
  for (uint32_t I = 10; I-- > 0;) {
    ASSERT_TRUE(D.pop(V));
    EXPECT_EQ(V, I);
  }
  EXPECT_FALSE(D.pop(V));
  EXPECT_TRUE(D.emptyApprox());
}

TEST(WorkStealDeque, GrowthPreservesElements) {
  // Push past the initial ring capacity so grow() copies live elements
  // into a doubled ring mid-stream.
  WorkStealDeque<uint32_t> D(8);
  const uint32_t N = 1000;
  for (uint32_t I = 0; I < N; ++I)
    D.push(I);
  std::vector<bool> Seen(N, false);
  uint32_t V;
  while (D.pop(V)) {
    ASSERT_LT(V, N);
    EXPECT_FALSE(Seen[V]) << "duplicate " << V;
    Seen[V] = true;
  }
  for (uint32_t I = 0; I < N; ++I)
    EXPECT_TRUE(Seen[I]) << "lost " << I;
}

TEST(WorkStealDeque, ConcurrentStealsLoseNothingDuplicateNothing) {
  // One owner interleaves pushes with pops while three thieves steal from
  // the top. Every element must be consumed by exactly one thread.
  constexpr uint32_t N = 50000;
  constexpr int Thieves = 3;
  WorkStealDeque<uint32_t> D(16);
  std::vector<std::atomic<uint32_t>> Claims(N);
  for (auto &C : Claims)
    C.store(0, std::memory_order_relaxed);
  std::atomic<bool> OwnerDone{false};

  auto Claim = [&](uint32_t V) {
    ASSERT_LT(V, N);
    Claims[V].fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> Ts;
  for (int T = 0; T < Thieves; ++T)
    Ts.emplace_back([&] {
      uint32_t V;
      while (!OwnerDone.load(std::memory_order_acquire) || !D.emptyApprox())
        if (D.steal(V))
          Claim(V);
    });

  // Owner: push in bursts, pop some of its own so the last-element CAS
  // race (pop vs steal at Tp == B) gets exercised constantly.
  uint32_t V;
  for (uint32_t I = 0; I < N; ++I) {
    D.push(I);
    if ((I & 7) == 0 && D.pop(V))
      Claim(V);
  }
  while (D.pop(V))
    Claim(V);
  OwnerDone.store(true, std::memory_order_release);
  for (auto &T : Ts)
    T.join();

  for (uint32_t I = 0; I < N; ++I)
    EXPECT_EQ(Claims[I].load(), 1u) << "element " << I;
}

//===----------------------------------------------------------------------===//
// Tlab
//===----------------------------------------------------------------------===//

TEST(Tlab, BumpAccountsAndRefusesOverflow) {
  // The window is the OS-thread VM's inline allocation region: the bump
  // here is the one EXEC_ALLOC takes.
  Word Backing[64] = {};
  Tlab T;
  T.Window.Cursor = Backing;
  T.Window.End = Backing + 64;
  EXPECT_EQ(T.Window.tryBump(10), Backing);
  EXPECT_EQ(T.Window.tryBump(54), Backing + 10);
  EXPECT_EQ(T.Window.BytesAllocated, 64 * sizeof(Word));
  // Window exhausted: the inline bump refuses, leaving state untouched for
  // the refill slow path.
  EXPECT_EQ(T.Window.tryBump(1), nullptr);
  EXPECT_EQ(T.Window.BytesAllocated, 64 * sizeof(Word));
  // A collection drops the window; the byte count, which
  // task.<i>.tlab_alloc_words reports, outlives it.
  T.reset();
  EXPECT_EQ(T.Window.Cursor, nullptr);
  EXPECT_EQ(T.Window.End, nullptr);
  EXPECT_EQ(T.Window.tryBump(1), nullptr);
  EXPECT_EQ(T.Window.BytesAllocated, 64 * sizeof(Word));
}

//===----------------------------------------------------------------------===//
// Carving and copy buffers (runtime/Carve.h)
//===----------------------------------------------------------------------===//

TEST(Threads, CarveKeepsTlabSizing) {
  // A TLAB carve has no reserve (Limit == End): it takes the preferred
  // chunk, or what is left if at least the minimum fits, else nothing.
  Word Backing[100] = {};
  Word *Cursor = Backing, *End = Backing + 100;
  auto Pref = [](size_t) { return (size_t)64; };
  Word *Top, *ChunkEnd;
  ASSERT_TRUE(carve(Cursor, End, End, 8, Pref, Top, ChunkEnd));
  EXPECT_EQ(Top, Backing);
  EXPECT_EQ(ChunkEnd, Backing + 64);
  ASSERT_TRUE(carve(Cursor, End, End, 8, Pref, Top, ChunkEnd));
  EXPECT_EQ(ChunkEnd - Top, 36);
  EXPECT_FALSE(carve(Cursor, End, End, 1, Pref, Top, ChunkEnd));
  EXPECT_EQ(Cursor, End);
}

TEST(Threads, CarveShrinksChunksNearTheEndAndStopsAtTheReserve) {
  // One worker of two carving copy buffers for 4-word objects: chunks
  // start at the cap, shrink with the room left, turn exact when the
  // room is under one object, go past the logical end into the reserve
  // only by one object, and fail without moving the cursor at its end.
  constexpr size_t Capacity = 10000;
  const size_t Reserve = evacuationReserveWords(Capacity, 2);
  std::vector<Word> Backing(Capacity + Reserve);
  Word *Cursor = Backing.data(), *End = Cursor + Capacity;
  Word *Limit = End + Reserve;
  auto Pref = [](size_t Left) { return copyBufferWords(Left, 2); };
  size_t Prev = MaxCopyBufferWords;
  bool SawShrunk = false, SawExact = false;
  Word *Top, *ChunkEnd;
  while (Cursor < End) {
    size_t Left = (size_t)(End - Cursor);
    ASSERT_TRUE(carve(Cursor, End, Limit, 4, Pref, Top, ChunkEnd));
    size_t Size = (size_t)(ChunkEnd - Top);
    EXPECT_LE(Size, Prev);
    EXPECT_LE(Size, std::max<size_t>(4, Left / 16));
    SawShrunk |= Size > 4 && Size < MaxCopyBufferWords;
    SawExact |= Size == 4;
    Prev = Size;
  }
  EXPECT_TRUE(SawShrunk);
  EXPECT_TRUE(SawExact);
  EXPECT_LE(Cursor, End + 3);
  while (carve(Cursor, End, Limit, 4, Pref, Top, ChunkEnd))
    EXPECT_EQ(ChunkEnd - Top, 4);
  EXPECT_LE(Cursor, Limit);
  EXPECT_LT((size_t)(Limit - Cursor), 4u);
}

/// One evacuated object: where it landed and how big it is. Every word
/// holds the object's id, so an overlap shows as a clobbered word.
struct Evacuated {
  Word *At;
  size_t Words;
  Word Id;
};

/// \p Workers threads evacuate exactly \p LiveWords words of objects
/// (mostly 2-6 words, now and then one too big to strand a buffer for)
/// through their own copy buffer from \p MakeBuffer, the way a parallel
/// trace does; returns every object.
std::vector<Evacuated>
evacuateInParallel(unsigned Workers, size_t LiveWords,
                   const std::function<CopyBuffer()> &MakeBuffer) {
  std::atomic<size_t> Budget{LiveWords};
  std::vector<std::vector<Evacuated>> PerWorker(Workers);
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W < Workers; ++W)
    Ts.emplace_back([&, W] {
      CopyBuffer Buf = MakeBuffer();
      Rng R(W + 1);
      for (Word Seq = 0;; ++Seq) {
        size_t Want = R.range(0, 49) == 0 ? (size_t)R.range(9, 300)
                                          : (size_t)R.range(2, 6);
        size_t Old = Budget.load(std::memory_order_relaxed), N;
        do {
          if (Old == 0)
            return;
          N = std::min(Want, Old);
        } while (!Budget.compare_exchange_weak(Old, Old - N,
                                               std::memory_order_relaxed));
        Word *P = Buf.allocate(N);
        Word Id = ((Word)W << 48) | Seq;
        for (size_t I = 0; I < N; ++I)
          P[I] = Id;
        PerWorker[W].push_back({P, N, Id});
      }
    });
  for (std::thread &T : Ts)
    T.join();
  std::vector<Evacuated> All;
  for (auto &V : PerWorker)
    All.insert(All.end(), V.begin(), V.end());
  return All;
}

/// The objects are disjoint (no word clobbered) and inside \p In.
void expectDisjointAndInside(const std::vector<Evacuated> &Objs,
                             const std::function<bool(Word)> &In,
                             const char *What) {
  for (const Evacuated &O : Objs) {
    for (size_t I = 0; I < O.Words; ++I)
      ASSERT_EQ(O.At[I], O.Id) << What << ": overlapping objects";
    ASSERT_TRUE(In((Word)(uintptr_t)O.At)) << What;
    ASSERT_TRUE(In((Word)(uintptr_t)(O.At + O.Words - 1))) << What;
  }
}

TEST(Threads, ConcurrentCarvesFillExactlyFullTargetsWithinTheReserve) {
  // The worst case for copy buffers: every word of the evacuation target
  // is live. Each of the four targets, at 2 and 4 workers, takes exactly
  // its capacity in live objects; the stranded buffer ends must fit the
  // reserve (an overflow aborts), the objects must not overlap, and a
  // spill must leave the space full and inside its region test.
  for (unsigned K : {2u, 4u}) {
    SCOPED_TRACE(K);
    {
      Heap H(1 << 17);
      H.setParallelTracing(K);
      size_t Cap = H.capacityBytes() / sizeof(Word);
      H.beginCollection();
      auto Objs =
          evacuateInParallel(K, Cap, [&] { return H.toSpaceBuffer(); });
      H.endCollection();
      expectDisjointAndInside(
          Objs, [&](Word P) { return H.contains(P); }, "to-space");
      EXPECT_GE(H.usedBytes(), Cap * sizeof(Word));
      EXPECT_LE(H.usedBytes(), H.capacityBytes());
    }
    {
      GenHeap H(1 << 17, 1 << 16);
      H.setParallelTracing(K);
      size_t Cap = H.nurseryCapacityWords();
      H.beginMinor();
      auto Objs =
          evacuateInParallel(K, Cap, [&] { return H.survivorBuffer(); });
      H.endMinor();
      expectDisjointAndInside(
          Objs, [&](Word P) { return H.inNursery(P); }, "nursery to-space");
      EXPECT_GE(H.nurseryUsedWords(), Cap);
      if (H.nurseryUsedWords() > Cap) {
        EXPECT_EQ(H.nurseryFreeWords(), 0u);
      }
      EXPECT_EQ(H.capacityBytes(),
                (std::max(Cap, H.nurseryUsedWords()) +
                 H.tenuredCapacityWords()) *
                    sizeof(Word));
    }
    {
      GenHeap H(1 << 17, 1 << 16);
      H.setParallelTracing(K);
      size_t Cap = H.tenuredFreeWords();
      H.beginMinor();
      auto Objs =
          evacuateInParallel(K, Cap, [&] { return H.tenuredBuffer(); });
      H.endMinor();
      expectDisjointAndInside(
          Objs, [&](Word P) { return H.inTenured(P); }, "tenured space");
      EXPECT_EQ(H.tenuredFreeWords(), 0u);
      EXPECT_GE(H.tenuredUsedWords(), Cap);
    }
    {
      // Armed only after a serial promotion: tenured cannot move, so its
      // reserve comes off its own end.
      GenHeap H(1 << 17, 1 << 16);
      const size_t Before = H.tenuredCapacityWords();
      H.beginMinor();
      H.allocateInTenured(1000);
      H.endMinor();
      H.setParallelTracing(K);
      EXPECT_LT(H.tenuredCapacityWords(), Before);
      size_t Cap = H.tenuredFreeWords();
      H.beginMinor();
      auto Objs =
          evacuateInParallel(K, Cap, [&] { return H.tenuredBuffer(); });
      H.endMinor();
      expectDisjointAndInside(
          Objs, [&](Word P) { return H.inTenured(P); },
          "tenured space armed late");
      EXPECT_EQ(H.tenuredFreeWords(), 0u);
      EXPECT_LE(H.tenuredCapacityWords(), Before);
    }
    {
      GenHeap H(1 << 17, 1 << 16);
      H.setParallelTracing(K);
      const size_t Cap = 20000;
      H.beginMajor(Cap);
      auto Objs =
          evacuateInParallel(K, Cap, [&] { return H.toSpaceBuffer(); });
      H.endMajor();
      expectDisjointAndInside(
          Objs, [&](Word P) { return H.inTenured(P); }, "tenured to-space");
      EXPECT_EQ(H.tenuredFreeWords(), 0u);
      EXPECT_EQ(H.tenuredCapacityWords(), H.tenuredUsedWords());
    }
  }
}

//===----------------------------------------------------------------------===//
// ThreadedRuntime vs the cooperative reference
//===----------------------------------------------------------------------===//

struct TWorld : SessionRun {
  std::unique_ptr<ThreadedRuntime> Rt;
};

/// An OS-thread run assembled as tfgc --threads=N assembles it (N-way
/// parallel tracer) whose tasks the test spawns itself.
TWorld makeThreaded(const std::string &Source, const CliOptions &O) {
  TWorld W{openSession(Source, O), nullptr};
  W.Rt = std::make_unique<ThreadedRuntime>(W.P->Prog, W.P->Image, *W.P->Types,
                                           W.S->collector(),
                                           W.S->taskingOptions());
  return W;
}

TWorld makeThreaded(const std::string &Source, GcStrategy S, GcAlgorithm A,
                    size_t HeapBytes, unsigned GcThreads, bool Verify,
                    size_t NurseryBytes = 0) {
  CliOptions O = sessionOptions(S, A, HeapBytes, NurseryBytes);
  O.Threads = GcThreads;
  O.Verify = Verify;
  return makeThreaded(Source, O);
}

/// Per-task values of \p Source's worker, one task per argument list, on
/// the cooperative scheduler over a roomy heap: the logical reference.
std::vector<std::string>
cooperativeValues(const std::string &Source, size_t HeapBytes,
                  const std::vector<std::vector<int64_t>> &Args) {
  CliOptions O = sessionOptions(GcStrategy::CompiledTagFree,
                                GcAlgorithm::Copying, HeapBytes);
  O.Threads = 1;
  SessionRun Run = openSession(Source, O);
  CompiledProgram &P = *Run.P;
  TaskingRuntime Rt(P.Prog, P.Image, *P.Types, Run.S->collector(),
                    Run.S->taskingOptions());
  FuncId Worker = findFunction(P.Prog, "worker");
  EXPECT_NE(Worker, InvalidFunc);
  for (const std::vector<int64_t> &A : Args)
    Rt.spawnInt(Worker, A);
  EXPECT_TRUE(Rt.runAll());
  std::vector<std::string> Values;
  for (const TaskResult &R : Rt.results())
    Values.push_back(R.Value);
  return Values;
}

TEST(Threads, ResultsMatchCooperativeAllStrategiesAllAlgorithms) {
  // Expected values from the cooperative scheduler on a roomy heap.
  const std::vector<std::string> Expected = cooperativeValues(
      wl::taskWorker(), 1 << 20, {{1, 40}, {2, 40}, {3, 40}, {4, 40}});

  // Four real threads on a tight heap: every strategy x algorithm must
  // reproduce the same per-task values with census verification on, and
  // every armed GC request must account for exactly one handshake.
  for (GcStrategy S : AllStrategies) {
    for (GcAlgorithm A : AllAlgorithms) {
      TWorld W = makeThreaded(wl::taskWorker(), S, A, 1 << 13, 4, true);
      FuncId Worker = findFunction(W.P->Prog, "worker");
      ASSERT_NE(Worker, InvalidFunc);
      for (int64_t Seed = 1; Seed <= 4; ++Seed)
        W.Rt->spawnInt(Worker, {Seed, 40});
      ASSERT_TRUE(W.Rt->runAll())
          << gcStrategyName(S) << "/" << gcAlgorithmName(A);
      for (size_t I = 0; I < 4; ++I)
        EXPECT_EQ(W.Rt->results()[I].Value, Expected[I])
            << gcStrategyName(S) << "/" << gcAlgorithmName(A) << " task "
            << I;

      // No lost handshakes: armed request == world stop == epoch, and
      // the tight heap forced at least one.
      uint64_t Requests = W.stats().get(StatId::TaskGcRequests);
      uint64_t Stops = W.stats().get(StatId::TaskWorldStops);
      EXPECT_GT(Stops, 0u) << gcStrategyName(S) << "/" << gcAlgorithmName(A);
      EXPECT_EQ(Requests, Stops)
          << gcStrategyName(S) << "/" << gcAlgorithmName(A);
      EXPECT_EQ(W.Rt->gcEpochs(), Stops)
          << gcStrategyName(S) << "/" << gcAlgorithmName(A);
      EXPECT_EQ(W.stats().get("sched.handshake_epochs"), Stops);

      // Census verification ran after every collection and found the
      // heap intact.
      EXPECT_GT(W.stats().get(StatId::GcVerifyPasses), 0u);
      EXPECT_EQ(W.stats().get(StatId::GcVerifyViolations), 0u)
          << gcStrategyName(S) << "/" << gcAlgorithmName(A);
    }
  }
}

/// Each task keeps everything its spine of small trees holds; with
/// \p g > 0 each step also builds and checks a garbage tree of depth g.
/// With g = 0 every collection evacuates an all-live heap, so its target
/// fills as far as the collector's sizing lets it.
const char *ForestSource = R"(
datatype tree = Leaf | Node of tree * int * tree;

fun make (d : int) (v : int) : tree =
  if d = 0 then Leaf else Node(make (d - 1) (2 * v), v, make (d - 1) (2 * v + 1));

fun check (t : tree) : int =
  case t of Leaf => 0 | Node(l, v, r) => (v + check l + check r) mod 1000003;

fun grow (i : int) (g : int) (t : tree) : tree =
  if i = 0 then t else grow (i - 1) g (Node(t, check (make g i), make 3 i));

fun worker (s : int) (n : int) (g : int) : int = check (grow n g (make 4 s));
worker 1 1 0
)";

/// What the collections of one run did: minors and majors, the longest
/// run of minors in a row (the fourth minor after a promotion or a major
/// promotes), and the fullest to-space a copying collection evacuated
/// into: survivor words over the capacity the heap had before it (a
/// collection that then grows the heap copies again into a bigger one).
struct EvacuationLog : GcEventSink {
  explicit EvacuationLog(size_t HeapBytes) : CapacityBytes(HeapBytes) {}
  size_t CapacityBytes;
  uint64_t Minor = 0, Major = 0;
  unsigned MinorRun = 0, LongestMinorRun = 0;
  double FullestToSpace = 0;
  void onGcEvent(const GcEvent &E) override {
    MinorRun = E.Kind == GcEventKind::Minor ? MinorRun + 1 : 0;
    LongestMinorRun = std::max(LongestMinorRun, MinorRun);
    if (E.Kind == GcEventKind::Minor)
      ++Minor;
    else if (E.Kind == GcEventKind::Major)
      ++Major;
    else
      FullestToSpace = std::max(FullestToSpace,
                                (double)(E.LiveWordsAfter * sizeof(Word)) /
                                    (double)CapacityBytes);
    CapacityBytes = E.HeapCapacityBytesAfter;
  }
};

TEST(Threads, ParallelEvacuationIntoNearlyAllLiveTargets) {
  // Every evacuation target, nearly all live, at 2 and 4 GC workers under
  // every strategy, with verification after every collection: copy
  // buffers strand space a serial trace never does, and a target that is
  // nearly all live is where that could overflow it.
  constexpr int Iters = 300;
  auto Reference = [&](int64_t G) {
    return cooperativeValues(
        ForestSource, 8 << 20,
        {{1, Iters, G}, {2, Iters, G}, {3, Iters, G}, {4, Iters, G}});
  };
  const std::vector<std::string> Expected[] = {Reference(0), Reference(3)};

  enum class Target { ToSpace, Minor, PromotingMinor, Major };
  struct Config {
    Target T;
    const char *Name;
    GcAlgorithm A;
    size_t HeapBytes, NurseryBytes;
    int64_t Garbage;
  };
  const Config Configs[] = {
      // The heap fills with live data before each collection and grows
      // only when a collection frees too little.
      {Target::ToSpace, "copying to-space", GcAlgorithm::Copying, 32 << 10,
       0, 0},
      // Plenty of tenured space: a full nursery of live data evacuates
      // into the survivor space.
      {Target::Minor, "non-promoting minor", GcAlgorithm::Generational,
       4 << 20, 16 << 10, 0},
      // Garbage lets minors run four in a row; tenured starts just over
      // two nurseries, so the second promotion nearly fills it.
      {Target::PromotingMinor, "promoting minor", GcAlgorithm::Generational,
       (16 + 33) << 10, 16 << 10, 3},
      // A tenured space no bigger than the nursery: majors.
      {Target::Major, "major", GcAlgorithm::Generational, 32 << 10, 16 << 10,
       0},
  };
  for (const Config &C : Configs) {
    for (unsigned K : {2u, 4u}) {
      for (GcStrategy S : AllStrategies) {
        std::string Ctx = std::string(C.Name) + ", " + std::to_string(K) +
                          " workers, " + gcStrategyName(S);
        TWorld W = makeThreaded(ForestSource, S, C.A, C.HeapBytes, K, true,
                                C.NurseryBytes);
        EvacuationLog Log(C.HeapBytes);
        W.S->collector().telemetry().setEventSink(&Log);
        FuncId Worker = findFunction(W.P->Prog, "worker");
        for (int64_t Seed = 1; Seed <= (int64_t)K; ++Seed)
          W.Rt->spawnInt(Worker, {Seed, Iters, C.Garbage});
        ASSERT_TRUE(W.Rt->runAll()) << Ctx;
        for (size_t I = 0; I < K; ++I)
          EXPECT_EQ(W.Rt->results()[I].Value, Expected[C.Garbage != 0][I])
              << Ctx << " task " << I;

        EXPECT_GT(W.stats().get(StatId::GcParallelTraces), 0u) << Ctx;
        EXPECT_GT(W.stats().get(StatId::GcVerifyPasses), 0u) << Ctx;
        EXPECT_EQ(W.stats().get(StatId::GcVerifyViolations), 0u) << Ctx;
        W.S->collector().publishTelemetryStats();
        EXPECT_GT(W.S->collector().telemetry().censusObjectsTotal(), 0u) << Ctx;
        if (C.A == GcAlgorithm::Generational) {
          uint64_t Allocated = W.stats().get(StatId::HeapObjectsAllocated);
          uint64_t Promoted = W.stats().get("gc.promoted_objects");
          uint64_t Dead = W.stats().get("gc.young_dead_objects");
          uint64_t Resident = W.stats().get("gc.nursery_resident_objects");
          EXPECT_EQ(Allocated, Promoted + Dead + Resident) << Ctx;
        }
        switch (C.T) {
        case Target::ToSpace:
          EXPECT_GT(W.stats().get(StatId::GcHeapGrowths), 0u) << Ctx;
          EXPECT_GE(Log.FullestToSpace, 0.9) << Ctx;
          break;
        case Target::Minor:
          EXPECT_GT(Log.Minor, 0u) << Ctx;
          break;
        case Target::PromotingMinor:
          EXPECT_GE(Log.LongestMinorRun, 4u) << Ctx;
          break;
        case Target::Major:
          EXPECT_GT(Log.Major, 0u) << Ctx;
          break;
        }
      }
    }
  }
}

TEST(Threads, PerTaskTlabAndStopDelayStats) {
  TWorld W = makeThreaded(wl::taskWorker(), GcStrategy::CompiledTagFree,
                          GcAlgorithm::Generational, 1 << 13, 4, false);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  for (int64_t Seed = 1; Seed <= 4; ++Seed)
    W.Rt->spawnInt(Worker, {Seed, 40});
  ASSERT_TRUE(W.Rt->runAll());
  ASSERT_GT(W.stats().get(StatId::TaskWorldStops), 0u);

  uint64_t Delays = 0;
  for (int I = 0; I < 4; ++I) {
    std::string Base = "task." + std::to_string(I);
    EXPECT_GT(W.stats().get(Base + ".mutator_steps"), 0u) << Base;
    // Every thread allocates through its TLAB, so each one refilled at
    // least once and the words it bumped are accounted.
    EXPECT_GT(W.stats().get(Base + ".tlab_refills"), 0u) << Base;
    EXPECT_GT(W.stats().get(Base + ".tlab_alloc_words"), 0u) << Base;
    Delays += W.stats().get(Base + ".world_stop_delays");
    uint64_t P50 = W.stats().get(Base + ".world_stop_delay_ns_p50");
    uint64_t P90 = W.stats().get(Base + ".world_stop_delay_ns_p90");
    uint64_t P99 = W.stats().get(Base + ".world_stop_delay_ns_p99");
    EXPECT_LE(P50, P90) << Base;
    EXPECT_LE(P90, P99) << Base;
  }
  // Each handshake parks every still-live task; the triggering thread
  // records a delay too (request-to-collection time), so the histogram
  // counts at least one entry per stop.
  EXPECT_GE(Delays, W.stats().get(StatId::TaskWorldStops));
}

std::string example(const std::string &Name) {
  std::string Source = slurp(std::string(TFGC_EXAMPLES_DIR) + "/" + Name);
  EXPECT_FALSE(Source.empty()) << Name;
  return Source;
}

TEST(Threads, AllocationOnlyPolicyChecksOnTlabMissesOnly) {
  // An OS-thread VM bumps its TLAB inline, so under the allocation-only
  // policy it tests the stop flag only on the slow path: a refill or a
  // park, not every object. A 256-word window holds dozens of objects.
  for (GcAlgorithm A : {GcAlgorithm::Copying, GcAlgorithm::Generational}) {
    CliOptions O =
        sessionOptions(GcStrategy::CompiledTagFree, A, 1 << 16);
    O.Threads = 4;
    SessionRun Run = openSession(wl::taskWorker(), O);
    ASSERT_TRUE(Run);
    TaskingOptions TO = Run.S->taskingOptions();
    TO.Policy = SuspendChecks::AtAllocation;
    ThreadedRuntime Rt(Run.P->Prog, Run.P->Image, *Run.P->Types,
                       Run.S->collector(), TO);
    FuncId Worker = findFunction(Run.P->Prog, "worker");
    for (int64_t Seed = 1; Seed <= 4; ++Seed)
      Rt.spawnInt(Worker, {Seed, 40});
    ASSERT_TRUE(Rt.runAll()) << gcAlgorithmName(A);
    uint64_t Checks = Run.stats().get(StatId::TaskSuspendChecks);
    uint64_t Objects = Run.stats().get(StatId::HeapObjectsAllocated);
    EXPECT_GT(Checks, 0u) << gcAlgorithmName(A);
    EXPECT_LT(Checks, Objects / 10) << gcAlgorithmName(A);
  }
}

TEST(Threads, TlabWordsAreExactlyTheTasksAllocation) {
  // Each of four threads runs main once, so their windows together hand
  // out exactly four times what one cooperative task allocates: a window
  // counts the words its objects took, headers included, never a chunk.
  const std::string Source = example("generational_churn.mml");
  for (GcStrategy S : {GcStrategy::CompiledTagFree, GcStrategy::Tagged}) {
    CliOptions O =
        sessionOptions(S, GcAlgorithm::Generational, 1 << 20, 8 << 10);
    O.Threads = 1;
    SessionRun Coop = runSession(Source, O);
    ASSERT_TRUE(Coop);
    uint64_t Words =
        Coop.stats().get(StatId::HeapBytesAllocatedTotal) / sizeof(Word);
    ASSERT_GT(Words, 0u);
    O.Threads = 4;
    SessionRun Threaded = runSession(Source, O);
    ASSERT_TRUE(Threaded);
    uint64_t TlabWords = 0;
    for (int I = 0; I < 4; ++I)
      TlabWords += Threaded.stats().get("task." + std::to_string(I) +
                                        ".tlab_alloc_words");
    EXPECT_EQ(TlabWords, 4 * Words) << gcStrategyName(S);
  }
}

/// Reads the young-object census inside every collection's pause, as an
/// epoch fold would. gc.young_dead_objects is cumulative, so it never
/// decreases and never passes the objects allocated so far. A collection
/// that misses objects a parked VM bumped inline but has not counted sees
/// fewer young objects than it then finds live, and the count wraps.
struct YoungCensusLog : GcEventSink {
  Collector *Col = nullptr;
  uint64_t Collections = 0, Violations = 0, LastDead = 0;
  void onGcEvent(const GcEvent &) override {
    ++Collections;
    Col->publishTelemetryStats();
    uint64_t Dead = Col->stats().get("gc.young_dead_objects");
    if (Dead < LastDead ||
        Dead > Col->stats().get(StatId::HeapObjectsAllocated))
      ++Violations;
    LastDead = Dead;
  }
};

TEST(Threads, YoungCensusHoldsAtEveryCollection) {
  // Four threads on an 8 KiB nursery: each minor runs while three VMs sit
  // parked at call checks or allocations with objects they bumped inline.
  // Every park must have flushed those objects into heap.objects_allocated
  // before the collection reads it.
  const std::string Source = example("generational_churn.mml");
  for (GcStrategy S : {GcStrategy::CompiledTagFree, GcStrategy::Tagged}) {
    CliOptions O =
        sessionOptions(S, GcAlgorithm::Generational, 1 << 20, 8 << 10);
    O.Threads = 4;
    YoungCensusLog Log;
    SessionRun Run = runSession(Source, O, [&](Session &Sn) {
      Log.Col = &Sn.collector();
      Sn.collector().telemetry().setEventSink(&Log);
    });
    ASSERT_TRUE(Run);
    EXPECT_GT(Log.Collections, 20u) << gcStrategyName(S);
    EXPECT_EQ(Log.Violations, 0u) << gcStrategyName(S);
    EXPECT_EQ(Run.stats().get(StatId::HeapObjectsAllocated),
              Run.stats().get("gc.promoted_objects") +
                  Run.stats().get("gc.young_dead_objects") +
                  Run.stats().get("gc.nursery_resident_objects"))
        << gcStrategyName(S);
  }
}

TEST(Threads, ParallelTraceEngagesWithFourStacks) {
  // Four parked stacks and a 4-way tracer: the parallel path must engage
  // (gc.parallel_traces), spin up more than one worker at least once,
  // and the logical results stay correct.
  TWorld W = makeThreaded(wl::taskWorker(), GcStrategy::CompiledTagFree,
                          GcAlgorithm::Copying, 1 << 13, 4, false);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  for (int64_t Seed = 1; Seed <= 4; ++Seed)
    W.Rt->spawnInt(Worker, {Seed, 40});
  ASSERT_TRUE(W.Rt->runAll());
  ASSERT_GT(W.stats().get(StatId::GcCollections), 0u);
  EXPECT_GT(W.stats().get(StatId::GcParallelTraces), 0u);
  uint64_t Workers = W.stats().get(StatId::GcParallelWorkers);
  EXPECT_GE(Workers, 2u);
  EXPECT_LE(Workers, 4u);
}

TEST(Threads, FinishingThreadsHandOffPendingCollections) {
  // Tasks of very different lengths: short tasks exit while long ones
  // still allocate, shrinking the rendezvous population mid-run. A
  // request armed while an exiting thread is the last unparked one must
  // still complete (threadFinished runs the collection).
  TWorld W = makeThreaded(wl::taskWorker(), GcStrategy::CompiledTagFree,
                          GcAlgorithm::Generational, 1 << 13, 4, true);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  for (int64_t N : {5, 15, 30, 45})
    W.Rt->spawnInt(Worker, {N, N});
  ASSERT_TRUE(W.Rt->runAll());
  EXPECT_EQ(W.stats().get(StatId::TaskGcRequests),
            W.stats().get(StatId::TaskWorldStops));
  EXPECT_EQ(W.stats().get(StatId::GcVerifyViolations), 0u);
}

//===----------------------------------------------------------------------===//
// Handshake stress under a live /metrics scraper
//===----------------------------------------------------------------------===//

/// Minimal HTTP/1.1 client: one request, reads to EOF (the server closes).
std::string httpGet(uint16_t Port, const std::string &Target) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return {};
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, (sockaddr *)&Addr, sizeof(Addr)) != 0) {
    ::close(Fd);
    return {};
  }
  std::string Req = "GET " + Target +
                    " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  (void)!::send(Fd, Req.data(), Req.size(), 0);
  std::string Resp;
  char Buf[4096];
  ssize_t N;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Resp.append(Buf, (size_t)N);
  ::close(Fd);
  return Resp;
}

/// Parses `name value` out of a Prometheus exposition; -1 when absent.
int64_t metricValue(const std::string &Body, const std::string &Name) {
  size_t Pos = 0;
  while ((Pos = Body.find(Name, Pos)) != std::string::npos) {
    size_t After = Pos + Name.size();
    bool AtLineStart = Pos == 0 || Body[Pos - 1] == '\n';
    if (AtLineStart && After < Body.size() && Body[After] == ' ')
      return std::atoll(Body.c_str() + After + 1);
    Pos = After;
  }
  return -1;
}

TEST(Threads, HandshakeStressUnderLiveMetricsScraper) {
  // Four mutator threads allocating flat out on a tight heap (hundreds
  // of handshakes), while a scraper thread GETs /metrics every ~2ms.
  // Epoch folds happen inside each pause; every scrape must observe a
  // coherent snapshot with monotone epoch and collection counters.
  CliOptions O = sessionOptions(GcStrategy::CompiledTagFree,
                                GcAlgorithm::Generational, 1 << 13);
  O.Threads = 4;
  O.Verify = true;
  O.ServePort = 0; // Epoch 1 is folded before any mutator runs.
  TWorld W = makeThreaded(wl::taskWorker(), O);
  ASSERT_TRUE(W);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  for (int64_t Seed = 1; Seed <= 4; ++Seed)
    W.Rt->spawnInt(Worker, {Seed, 45});
  uint16_t Port = W.S->servePort();

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Scrapes{0};
  std::atomic<bool> Monotone{true};
  std::thread Scraper([&] {
    int64_t LastSeq = -1, LastCollections = -1;
    while (!Stop.load(std::memory_order_acquire)) {
      std::string Body = httpGet(Port, "/metrics");
      if (!Body.empty() && Body.find("200") != std::string::npos) {
        int64_t Seq = metricValue(Body, "tfgc_epoch_seq");
        int64_t Col = metricValue(Body, "tfgc_gc_collections");
        if (Seq < LastSeq || Col < LastCollections)
          Monotone.store(false, std::memory_order_relaxed);
        LastSeq = std::max(LastSeq, Seq);
        LastCollections = std::max(LastCollections, Col);
        Scrapes.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  ASSERT_TRUE(W.Rt->runAll());
  ASSERT_TRUE(W.S->finish()); // The final RunEnd epoch.
  Stop.store(true, std::memory_order_release);
  Scraper.join();

  EXPECT_GT(Scrapes.load(), 0u);
  EXPECT_TRUE(Monotone.load()) << "epoch or collection counter regressed";

  // No lost handshakes across hundreds of cycles, heap verified after
  // every one of them.
  uint64_t Stops = W.stats().get(StatId::TaskWorldStops);
  EXPECT_GT(Stops, 0u);
  EXPECT_EQ(W.stats().get(StatId::TaskGcRequests), Stops);
  EXPECT_EQ(W.Rt->gcEpochs(), Stops);
  EXPECT_EQ(W.stats().get(StatId::GcVerifyViolations), 0u);

  // The final fold published the run's last word: the served exposition
  // agrees with the in-process stats.
  std::string Body = httpGet(Port, "/metrics");
  EXPECT_EQ(metricValue(Body, "tfgc_gc_collections"),
            (int64_t)W.stats().get(StatId::GcCollections));
}

} // namespace
