//===- tests/heap_graph_test.cpp - Heap-graph + lifetime tests ------------===//
///
/// Covers the typed heap-graph capture (support/HeapGraph.h) and the
/// profiler's lifetime tracking: graph/census agreement for every
/// strategy and algorithm under post-GC verification, age-histogram
/// totals, survival-curve monotonicity, promotion attribution summing
/// exactly to gc.promoted_words, the minor-collection capture skip, the
/// every-N gate, dumps unchanged by --retainers, and differential leak
/// attribution ranking a planted unbounded cache as suspect #1.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "support/HeapGraph.h"
#include "support/HeapProfile.h"
#include "workloads/Programs.h"

#include <string>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

/// An unbounded memo cache: the cons onto !cache in memo() is the
/// planted leak (mirrors examples/programs/leaky_cache.mml); scratch
/// data churns and dies young.
const char *LeakySrc = R"(
fun scratch (n : int) : int list =
  if n = 0 then [] else (n * 7) mod 93 :: scratch (n - 1);
fun sum (xs : int list) : int =
  case xs of Nil => 0 | Cons(x, r) => x + sum r;
val cache = ref ([] : int list);
fun memo (key : int) : int =
  let val answer = (key + sum (scratch 10)) mod 1000000007 in
    (cache := answer :: !cache; answer)
  end;
fun serve (i : int) (acc : int) : int =
  if i = 0 then acc
  else serve (i - 1) ((acc + memo i) mod 1000000007);
serve 400 0 + sum (!cache)
)";

struct GraphRun {
  SessionRun Run;
  std::vector<std::string> SinkChunks;
  HeapProfiler &prof() { return Run.S->profiler(); }
  HeapGraph &graph() { return Run.S->graph(); }
  Stats &stats() { return Run.stats(); }
};

/// Runs \p Source with the profiler attached as --heap-profile attaches
/// it and (optionally) a sink on its heap graph, gated by
/// --heap-dump-every=\p Every, by default under stress so collections are
/// frequent.
std::unique_ptr<GraphRun>
runGraphed(const std::string &Source, GcStrategy S, GcAlgorithm A,
           size_t HeapBytes = 1 << 14, bool Verify = false,
           bool WithSink = true, uint64_t Every = 1,
           size_t NurseryBytes = 0, bool Stress = true,
           unsigned Retainers = 0) {
  CliOptions O = sessionOptions(S, A, HeapBytes, NurseryBytes);
  O.Stress = Stress;
  O.Verify = Verify;
  O.HeapProfile = true;
  O.Retainers = Retainers;
  O.HeapDumpEvery = Every;
  auto R = std::make_unique<GraphRun>();
  R->Run = runSession(Source, O, [&](Session &Sn) {
    // Sink-only destination: no file needed, chunks land in SinkChunks.
    if (WithSink)
      Sn.graph().setChunkSink([RP = R.get()](const std::string &Chunk) {
        RP->SinkChunks.push_back(Chunk);
      });
  });
  if (!R->Run)
    return nullptr;
  return R;
}

/// A framed chunk without its length word and with its first node's
/// address zeroed — the one absolute address in a chunk (later nodes are
/// address deltas, edges and roots node indices). That address is where
/// malloc put the space the run's last evacuation filled, which any
/// allocation earlier in the run can move.
std::string withoutBaseAddress(const std::string &Chunk) {
  size_t At = 12; // "TFGH", version, flags, reserved, u32 body length.
  auto Varint = [&] {
    uint64_t V = 0;
    for (unsigned Shift = 0;; Shift += 7) {
      uint8_t B = (uint8_t)Chunk.at(At++);
      V |= (uint64_t)(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return V;
    }
  };
  auto Str = [&] { At += Varint(); };
  Varint(); // seq
  ++At;     // kind
  Varint(); // covered bytes
  for (uint64_t I = 0, N = Varint(); I < N; ++I) {
    Str(); // func
    Varint();
    Varint();
    Str(); // type
  }
  for (uint64_t I = 0, N = Varint(); I < N; ++I)
    Str();
  if (Varint() == 0)
    return Chunk.substr(0, 8) + Chunk.substr(12);
  size_t Addr = At;
  Varint();
  return Chunk.substr(0, 8) + Chunk.substr(12, Addr - 12) + '\0' +
         Chunk.substr(At);
}

uint64_t byKindObjects(
    const std::array<HeapProfiler::Tally, NumCensusKinds> &ByKind) {
  uint64_t N = 0;
  for (const HeapProfiler::Tally &T : ByKind)
    N += T.Objects;
  return N;
}

uint64_t byKindWords(
    const std::array<HeapProfiler::Tally, NumCensusKinds> &ByKind) {
  uint64_t N = 0;
  for (const HeapProfiler::Tally &T : ByKind)
    N += T.Words;
  return N;
}

} // namespace

TEST(HeapGraph, GraphInvariantsEveryStrategyAndAlgorithmUnderVerify) {
  // The core guarantee: a captured graph is a faithful census — its
  // node records sum, per reconstructed kind, to exactly the tallies the
  // profiler counted during the same trace, and the per-site retained
  // table covers every live object once. Verify is on, so the pass that
  // re-runs the tracers must not leak nodes or edges into the capture.
  for (GcStrategy S : AllStrategies)
    for (GcAlgorithm A : AllAlgorithms) {
      std::string Label = std::string(gcStrategyName(S)) + "/" +
                          gcAlgorithmName(A);
      auto R = runGraphed(LeakySrc, S, A, 1 << 14, /*Verify=*/true,
                          /*WithSink=*/true, /*Every=*/1,
                          A == GcAlgorithm::Generational ? 1 << 12 : 0);
      ASSERT_TRUE(R) << Label;
      EXPECT_EQ(R->stats().get(StatId::GcVerifyViolations), 0u) << Label;
      ASSERT_GT(R->graph().chunksWritten(), 0u) << Label;
      EXPECT_EQ(R->graph().chunksWritten(), R->SinkChunks.size()) << Label;

      const HeapGraph::CaptureInfo &Cap = R->graph().lastCapture();
      ASSERT_TRUE(Cap.Valid) << Label;
      EXPECT_NE(Cap.Kind, GcEventKind::Minor) << Label;
      ASSERT_GT(Cap.Nodes, 0u) << Label;
      EXPECT_EQ(byKindObjects(Cap.ByKind), Cap.Nodes) << Label;

      // Retained rows: live tallies partition the node set, the ranking
      // is by retained size descending, and no site retains more than
      // the whole captured heap.
      uint64_t RowObjects = 0, RowWords = 0, PrevRetained = ~0ull;
      for (const SiteRetainedRow &Row : Cap.Retained) {
        RowObjects += Row.LiveObjects;
        RowWords += Row.LiveWords;
        EXPECT_LE(Row.RetainedBytes, PrevRetained) << Label;
        EXPECT_LE(Row.RetainedBytes,
                  byKindWords(Cap.ByKind) * sizeof(Word))
            << Label;
        PrevRetained = Row.RetainedBytes;
      }
      EXPECT_EQ(RowObjects, Cap.Nodes) << Label;
      EXPECT_EQ(RowWords, byKindWords(Cap.ByKind)) << Label;

      // Full-heap algorithms: the last collection is the last capture,
      // so the graph-derived census must equal the snapshot's census.
      if (A != GcAlgorithm::Generational) {
        const HeapProfiler::Snapshot &Snap = R->prof().snapshot();
        ASSERT_TRUE(Snap.Valid) << Label;
        EXPECT_EQ(Cap.Nodes, Snap.Objects) << Label;
        for (size_t I = 0; I < NumCensusKinds; ++I) {
          EXPECT_EQ(Cap.ByKind[I].Objects, Snap.ByKind[I].Objects)
              << Label << " kind " << censusKindName((CensusKind)I);
          EXPECT_EQ(Cap.ByKind[I].Words, Snap.ByKind[I].Words)
              << Label << " kind " << censusKindName((CensusKind)I);
        }
        // A rooted object graph has root references, and every non-root
        // node was reached over a recorded edge: edges + roots >= nodes.
        EXPECT_GE(Cap.Edges + Cap.RootRefs, Cap.Nodes) << Label;
        EXPECT_GT(Cap.RootRefs, 0u) << Label;
      }
    }
}

TEST(HeapGraph, AgeHistogramTotalsMatchObjectsUnderVerify) {
  // Every object visited by a collection contributes exactly one age
  // observation — across semispace flips, grow-loop retraces, and the
  // verify pass (which must contribute none).
  for (GcStrategy S : AllStrategies)
    for (GcAlgorithm A : AllAlgorithms) {
      std::string Label = std::string(gcStrategyName(S)) + "/" +
                          gcAlgorithmName(A);
      auto R = runGraphed(LeakySrc, S, A, 1 << 14, /*Verify=*/true,
                          /*WithSink=*/false, /*Every=*/1,
                          A == GcAlgorithm::Generational ? 1 << 12 : 0);
      ASSERT_TRUE(R) << Label;
      const HeapProfiler::Snapshot &Snap = R->prof().snapshot();
      ASSERT_TRUE(Snap.Valid) << Label;
      EXPECT_EQ(Snap.AgeObservations, Snap.Objects) << Label;
      uint64_t HistSum = 0;
      for (uint64_t H : Snap.AgeHist)
        HistSum += H;
      EXPECT_EQ(HistSum, Snap.Objects) << Label;
      // Every visited object has, by definition, survived the collection
      // observing it: the age-0 bucket is always empty. (The final
      // snapshot itself may be empty — a generational run can end on a
      // minor whose nursery promoted everything.)
      EXPECT_EQ(Snap.AgeHist[0], 0u) << Label;
      // Aging is cumulative across the run: under constant stress the
      // scratch conses survive a few collections before dying, so the
      // death-age histogram has mass above age 0 regardless of what the
      // final snapshot happened to see.
      uint64_t AgedDeaths = 0;
      for (const HeapProfiler::SiteLifetime &L : R->prof().lifetimes())
        for (size_t B = 1; B < L.DeathHist.size(); ++B)
          AgedDeaths += L.DeathHist[B];
      EXPECT_GT(AgedDeaths, 0u) << Label;
    }
}

TEST(HeapGraph, SurvivalCurvesMonotoneEveryStrategyAndAlgorithm) {
  // An object that survived 8 collections survived 4, 2, and 1: each
  // site's survival curve is monotone non-increasing by construction,
  // and no site reports more survivors than allocations.
  for (GcStrategy S : AllStrategies)
    for (GcAlgorithm A : AllAlgorithms) {
      std::string Label = std::string(gcStrategyName(S)) + "/" +
                          gcAlgorithmName(A);
      auto R = runGraphed(LeakySrc, S, A, 1 << 14, /*Verify=*/true,
                          /*WithSink=*/false, /*Every=*/1,
                          A == GcAlgorithm::Generational ? 1 << 12 : 0);
      ASSERT_TRUE(R) << Label;
      bool AnySurvivor = false;
      for (uint32_t I = 0; I <= R->prof().numSites(); ++I) {
        const HeapProfiler::SiteLifetime &L = R->prof().lifetime(I);
        for (size_t K = 1; K < L.Survived.size(); ++K)
          EXPECT_LE(L.Survived[K], L.Survived[K - 1])
              << Label << " site " << I;
        if (I < R->prof().numSites())
          EXPECT_LE(L.Survived[0], R->prof().allocCount(I))
              << Label << " site " << I;
        AnySurvivor = AnySurvivor || L.Survived[0] > 0;
      }
      // The immortal cache guarantees survivors under constant stress.
      EXPECT_TRUE(AnySurvivor) << Label;
    }
}

TEST(HeapGraph, PromotionAttributionSumsToPromotedWords) {
  // Generational: the per-site promoted-words attribution is exact —
  // summed over sites it reproduces the collector's gc.promoted_words
  // counter, for every type-reconstruction strategy.
  for (GcStrategy S : AllStrategies) {
    auto R = runGraphed(LeakySrc, S, GcAlgorithm::Generational, 1 << 14,
                        /*Verify=*/true, /*WithSink=*/false,
                        /*Every=*/1, /*NurseryBytes=*/1 << 12);
    ASSERT_TRUE(R) << gcStrategyName(S);
    EXPECT_GT(R->stats().get(StatId::GcPromotedWords), 0u) << gcStrategyName(S);
    EXPECT_EQ(R->prof().promotedWordsAttributed(),
              R->stats().get(StatId::GcPromotedWords))
        << gcStrategyName(S);
  }
}

TEST(HeapGraph, DeathAccountingBalancesAllocations) {
  // Cumulative per-site conservation: everything allocated either died
  // (in some collection) or is still alive (survived or never visited).
  auto R = runGraphed(LeakySrc, GcStrategy::CompiledTagFree,
                      GcAlgorithm::Copying, 1 << 14, /*Verify=*/true,
                      /*WithSink=*/false);
  ASSERT_TRUE(R);
  uint64_t Deaths = 0;
  for (const HeapProfiler::SiteLifetime &L : R->prof().lifetimes())
    Deaths += L.Deaths;
  EXPECT_GT(Deaths, 0u); // scratch lists die young
  EXPECT_LE(Deaths, R->prof().allocTotal());
  for (uint32_t I = 0; I < R->prof().numSites(); ++I)
    EXPECT_LE(R->prof().lifetime(I).Deaths, R->prof().allocCount(I))
        << "site " << I;
}

TEST(HeapGraph, LeakSuspectRankedFirstByRetainedGrowth) {
  // Differential leak attribution: across captures the planted cache
  // cons site (in memo) grows monotonically; ranked by retained-size
  // delta it must come out #1. No stress here — under stress every
  // allocation collects and consecutive-capture deltas are one-object
  // noise; natural collections bracket many memo conses per capture.
  auto R = runGraphed(LeakySrc, GcStrategy::CompiledTagFree,
                      GcAlgorithm::Copying, 1 << 13, /*Verify=*/false,
                      /*WithSink=*/true, /*Every=*/1,
                      /*NurseryBytes=*/0, /*Stress=*/false);
  ASSERT_TRUE(R);
  ASSERT_GT(R->graph().chunksWritten(), 1u); // deltas need two captures
  std::vector<SiteRetainedRow> Ranked = R->graph().rankedDeltas();
  ASSERT_FALSE(Ranked.empty());
  EXPECT_GT(Ranked.front().GrowthBytes, 0);
  ASSERT_LT(Ranked.front().Site, R->prof().numSites());
  EXPECT_EQ(R->prof().site(Ranked.front().Site).Func, "memo");
}

TEST(HeapGraph, MinorCollectionsAreNotCaptured) {
  // A minor's trace covers the nursery only; a graph over it would
  // dangle into tenured space, so minors never produce chunks.
  auto R = runGraphed(LeakySrc, GcStrategy::CompiledTagFree,
                      GcAlgorithm::Generational, 1 << 14,
                      /*Verify=*/false, /*WithSink=*/true,
                      /*Every=*/1, /*NurseryBytes=*/1 << 12);
  ASSERT_TRUE(R);
  EXPECT_GT(R->stats().get(StatId::GcMinorCollections), 0u);
  ASSERT_GT(R->graph().chunksWritten(), 0u);
  EXPECT_EQ(R->graph().lastCapture().Kind, GcEventKind::Major);
  EXPECT_LE(R->graph().chunksWritten(),
            R->stats().get(StatId::GcMajorCollections));
}

TEST(HeapGraph, EveryNGateThinsCaptures) {
  auto All = runGraphed(LeakySrc, GcStrategy::CompiledTagFree,
                        GcAlgorithm::Copying, 1 << 14, /*Verify=*/false,
                        /*WithSink=*/true, /*Every=*/1);
  auto Thinned = runGraphed(LeakySrc, GcStrategy::CompiledTagFree,
                            GcAlgorithm::Copying, 1 << 14,
                            /*Verify=*/false, /*WithSink=*/true,
                            /*Every=*/4);
  ASSERT_TRUE(All);
  ASSERT_TRUE(Thinned);
  ASSERT_GT(All->graph().chunksWritten(), 4u);
  EXPECT_LE(Thinned->graph().chunksWritten(),
            All->graph().chunksWritten() / 4 + 1);
  EXPECT_GT(Thinned->graph().chunksWritten(), 0u);
}

TEST(HeapGraph, DumpIsIndependentOfRetainers) {
  // --retainers reads the capture --heap-dump serializes and must not
  // change the dump: the same chunks are written, byte for byte apart
  // from the base address, with and without retainers — every chunk and
  // under the every-N gate, for full-copying and for generational
  // (majors-only) captures.
  for (GcAlgorithm A : {GcAlgorithm::Copying, GcAlgorithm::Generational})
    for (uint64_t Every : {1u, 3u}) {
      std::string Label = std::string(gcAlgorithmName(A)) + " every " +
                          std::to_string(Every);
      size_t Nursery = A == GcAlgorithm::Generational ? 1 << 12 : 0;
      auto Plain = runGraphed(LeakySrc, GcStrategy::CompiledTagFree, A,
                              1 << 14, /*Verify=*/false,
                              /*WithSink=*/true, Every, Nursery);
      auto Retain = runGraphed(LeakySrc, GcStrategy::CompiledTagFree, A,
                               1 << 14, /*Verify=*/false,
                               /*WithSink=*/true, Every, Nursery,
                               /*Stress=*/true, /*Retainers=*/5);
      ASSERT_TRUE(Plain && Retain) << Label;
      EXPECT_TRUE(Retain->prof().snapshot().RetainersComputed ||
                  Retain->prof().snapshot().Kind == GcEventKind::Minor)
          << Label;
      ASSERT_FALSE(Plain->SinkChunks.empty()) << Label;
      ASSERT_EQ(Plain->SinkChunks.size(), Retain->SinkChunks.size())
          << Label;
      for (size_t I = 0; I < Plain->SinkChunks.size(); ++I)
        EXPECT_EQ(withoutBaseAddress(Plain->SinkChunks[I]),
                  withoutBaseAddress(Retain->SinkChunks[I]))
            << Label << " chunk " << I;
    }
}

TEST(HeapGraph, DetachedGraphIsInert) {
  // Without a destination (file or sink), beginCapture never fires: no
  // chunks, no capture info, and the mutator-visible counters match a
  // plain profiled run.
  HeapGraph G;
  EXPECT_FALSE(G.active());
  auto R = runGraphed(LeakySrc, GcStrategy::CompiledTagFree,
                      GcAlgorithm::Copying, 1 << 14, /*Verify=*/false,
                      /*WithSink=*/false);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->graph().chunksWritten(), 0u);
  EXPECT_FALSE(R->graph().lastCapture().Valid);
}
