//===- tests/telemetry_test.cpp - Telemetry layer tests ------------------===//
///
/// Covers the GC telemetry layer: log-histogram bucket boundaries and
/// percentile math, the census-equals-counters invariant on a real
/// workload under every strategy, phase-span partitioning of the pause
/// (per event, through an event sink), and the validity of the
/// Chrome-trace and stats-JSON exports.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "support/Telemetry.h"
#include "workloads/Programs.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

// JSON syntax validation comes from TestUtil.h (tfgc::test::validJson),
// shared with the monitor stream tests.

//===----------------------------------------------------------------------===//
// LogHistogram
//===----------------------------------------------------------------------===//

TEST(LogHistogram, BucketBoundaries) {
  // Bucket 0 holds zeros; bucket k >= 1 holds [2^(k-1), 2^k - 1].
  EXPECT_EQ(LogHistogram::bucketIndex(0), 0u);
  EXPECT_EQ(LogHistogram::bucketIndex(1), 1u);
  EXPECT_EQ(LogHistogram::bucketIndex(2), 2u);
  EXPECT_EQ(LogHistogram::bucketIndex(3), 2u);
  EXPECT_EQ(LogHistogram::bucketIndex(4), 3u);
  EXPECT_EQ(LogHistogram::bucketIndex(7), 3u);
  EXPECT_EQ(LogHistogram::bucketIndex(8), 4u);
  EXPECT_EQ(LogHistogram::bucketIndex(255), 8u);
  EXPECT_EQ(LogHistogram::bucketIndex(256), 9u);
  EXPECT_EQ(LogHistogram::bucketIndex(UINT64_MAX), 64u);

  for (size_t I = 1; I < LogHistogram::NumBuckets; ++I) {
    // Every bucket's bounds round-trip through bucketIndex.
    EXPECT_EQ(LogHistogram::bucketIndex(LogHistogram::bucketLo(I)), I);
    EXPECT_EQ(LogHistogram::bucketIndex(LogHistogram::bucketHi(I)), I);
    EXPECT_LE(LogHistogram::bucketLo(I), LogHistogram::bucketHi(I));
    if (I > 1) // Buckets tile the axis with no gap or overlap.
      EXPECT_EQ(LogHistogram::bucketLo(I), LogHistogram::bucketHi(I - 1) + 1);
  }
  EXPECT_EQ(LogHistogram::bucketLo(0), 0u);
  EXPECT_EQ(LogHistogram::bucketHi(0), 0u);
  EXPECT_EQ(LogHistogram::bucketHi(64), UINT64_MAX);
}

TEST(LogHistogram, RecordAndAggregates) {
  LogHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.percentile(50), 0u);

  for (uint64_t V : {0ull, 1ull, 1ull, 2ull, 3ull, 8ull, 100ull})
    H.record(V);
  EXPECT_EQ(H.count(), 7u);
  EXPECT_EQ(H.sum(), 115u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 100u);
  EXPECT_EQ(H.bucketCount(0), 1u); // 0
  EXPECT_EQ(H.bucketCount(1), 2u); // 1, 1
  EXPECT_EQ(H.bucketCount(2), 2u); // 2, 3
  EXPECT_EQ(H.bucketCount(4), 1u); // 8
  EXPECT_EQ(H.bucketCount(7), 1u); // 100
}

TEST(LogHistogram, PercentileMath) {
  LogHistogram H;
  for (uint64_t V : {0ull, 1ull, 1ull, 2ull, 3ull, 8ull, 100ull})
    H.record(V);
  // N = 7. p50 -> rank ceil(3.5) = 4, which lands in bucket 2 (values
  // {2, 3} occupy ranks 4-5): upper bound 3.
  EXPECT_EQ(H.percentile(50), 3u);
  // p90 -> rank ceil(6.3) = 7: the 100 sample, bucket 7 with upper bound
  // 127, clamped to the observed max.
  EXPECT_EQ(H.percentile(90), 100u);
  EXPECT_EQ(H.percentile(99), 100u);
  EXPECT_EQ(H.percentile(100), 100u);
  // p0 clamps the rank to 1: the zero sample.
  EXPECT_EQ(H.percentile(0), 0u);

  // Single sample: every percentile is that sample (bucket hi clamped to
  // the max, which is the sample itself).
  LogHistogram One;
  One.record(5);
  for (double P : {0.0, 50.0, 99.0, 100.0})
    EXPECT_EQ(One.percentile(P), 5u);

  H.clear();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.percentile(99), 0u);
}

//===----------------------------------------------------------------------===//
// Phase switch-clock
//===----------------------------------------------------------------------===//

TEST(Telemetry, PhaseSwitchIgnoredOutsideCollectionAndWhilePaused) {
  Telemetry T;
  // Outside a collection: no phase opens.
  T.switchPhase(GcPhase::CopySweep);
  EXPECT_EQ(T.currentPhase(), GcPhase::NumPhases);

  T.beginCollection();
  { PhaseScope S(&T, GcPhase::RootScan); }
  T.setPaused(true);
  // While paused, PhaseScope declines to switch and census is ignored.
  {
    PhaseScope S(&T, GcPhase::Verify);
    EXPECT_NE(T.currentPhase(), GcPhase::Verify);
  }
  T.census(CensusKind::Tuple, 3);
  T.setPaused(false);
  T.census(CensusKind::Tuple, 2);
  T.finishCollection(0, 0);
  EXPECT_EQ(T.censusObjectsTotal(CensusKind::Tuple), 1u);
  EXPECT_EQ(T.censusWordsTotal(CensusKind::Tuple), 2u);
}

//===----------------------------------------------------------------------===//
// Census == visit counters; phases partition the pause
//===----------------------------------------------------------------------===//

/// Runs \p Source under \p S with GC stress on a small heap through a
/// bare Session (no attachments) for telemetry inspection; \p Sink, when
/// given, receives every collection event.
SessionRun runWithTelemetry(const std::string &Source, GcStrategy S,
                            GcAlgorithm A = GcAlgorithm::Copying,
                            size_t HeapBytes = 1 << 14,
                            GcEventSink *Sink = nullptr) {
  CliOptions O = sessionOptions(S, A, HeapBytes);
  O.Stress = true;
  return runSession(Source, O, [Sink](Session &Sn) {
    Sn.collector().telemetry().setEventSink(Sink);
  });
}

TEST(Telemetry, CensusMatchesVisitCounters) {
  // With post-GC verification off (the default), the census increments
  // mirror the gc.objects_visited / gc.words_visited increments exactly,
  // for every strategy.
  for (GcStrategy S : AllStrategies) {
    SessionRun R = runWithTelemetry(wl::listChurn(40, 20), S);
    ASSERT_TRUE(R);
    Telemetry &T = R.S->collector().telemetry();
    EXPECT_GT(T.collections(), 0u) << gcStrategyName(S);
    EXPECT_EQ(T.collections(), R.stats().get(StatId::GcCollections))
        << gcStrategyName(S);
    EXPECT_EQ(T.censusObjectsTotal(), R.stats().get(StatId::GcObjectsVisited))
        << gcStrategyName(S);
    EXPECT_EQ(T.censusWordsTotal(), R.stats().get(StatId::GcWordsVisited))
        << gcStrategyName(S);
  }
}

TEST(Telemetry, CensusMatchesVisitCountersMarkSweep) {
  SessionRun R = runWithTelemetry(wl::binaryTrees(6, 4),
                                    GcStrategy::CompiledTagFree,
                                    GcAlgorithm::MarkSweep);
  ASSERT_TRUE(R);
  Telemetry &T = R.S->collector().telemetry();
  EXPECT_GT(T.collections(), 0u);
  EXPECT_EQ(T.censusObjectsTotal(), R.stats().get(StatId::GcObjectsVisited));
  EXPECT_EQ(T.censusWordsTotal(), R.stats().get(StatId::GcWordsVisited));
  // A tree workload is all datatype values: the census sees only Data.
  EXPECT_GT(T.censusObjectsTotal(CensusKind::Data), 0u);
  EXPECT_EQ(T.censusObjectsTotal(CensusKind::TaggedScan), 0u);
}

/// Checks every closed event: the switch-clock reads nest strictly
/// inside [beginCollection, finishCollection], so phase time never
/// exceeds the pause.
struct PhaseWithinPause : GcEventSink {
  uint64_t Events = 0;
  void onGcEvent(const GcEvent &E) override {
    EXPECT_LE(E.phaseNsSum(), E.PauseNs) << "event " << E.Seq;
    ++Events;
  }
};

TEST(Telemetry, PhaseSpansPartitionThePause) {
  PhaseWithinPause Check;
  SessionRun R = runWithTelemetry(wl::listChurn(40, 20),
                                    GcStrategy::CompiledTagFree,
                                    GcAlgorithm::Copying, 1 << 14, &Check);
  ASSERT_TRUE(R);
  Telemetry &T = R.S->collector().telemetry();
  ASSERT_GT(T.collections(), 0u);
  EXPECT_EQ(Check.Events, T.collections());

  // In aggregate the spans cover the pause up to a few instructions of
  // slack per collection (the acceptance bound for the CLI trace is 5%;
  // allow more headroom here for loaded CI machines).
  uint64_t PhaseSum = 0;
  for (size_t P = 0; P < NumGcPhases; ++P)
    PhaseSum += T.phaseNsTotal((GcPhase)P);
  EXPECT_LE(PhaseSum, T.pauseNsTotal());
  EXPECT_GE((double)PhaseSum, 0.80 * (double)T.pauseNsTotal());

  // The stress workload exercises every tag-free phase.
  EXPECT_GT(T.phaseNsTotal(GcPhase::RootScan), 0u);
  EXPECT_GT(T.phaseHistogram(GcPhase::FrameDispatch).count(), 0u);
  // Verification was off: the verify phase saw nothing.
  EXPECT_EQ(T.phaseNsTotal(GcPhase::Verify), 0u);
}

TEST(Telemetry, PercentileStatsPublished) {
  SessionRun R =
      runWithTelemetry(wl::listChurn(40, 20), GcStrategy::CompiledTagFree);
  ASSERT_TRUE(R);
  Stats &St = R.stats();
  Telemetry &T = R.S->collector().telemetry();
  EXPECT_EQ(St.get(StatId::GcPauseNsP50), T.pauseHistogram().percentile(50));
  EXPECT_EQ(St.get(StatId::GcPauseNsP90), T.pauseHistogram().percentile(90));
  EXPECT_EQ(St.get(StatId::GcPauseNsP99), T.pauseHistogram().percentile(99));
  EXPECT_LE(St.get(StatId::GcPauseNsP50), St.get(StatId::GcPauseNsP90));
  EXPECT_LE(St.get(StatId::GcPauseNsP90), St.get(StatId::GcPauseNsP99));
  EXPECT_LE(St.get(StatId::GcPauseNsP99), St.get(StatId::GcPauseNsMax));
  // publishTelemetryStats also exports per-phase and census dynamic keys.
  EXPECT_TRUE(St.has("gc.phase_root_scan_ns"));
  EXPECT_GT(St.get("gc.census_data_objects"), 0u);

  // World-stop delays (fed by the tasking runtime) publish as dynamic
  // percentile keys once any delay is recorded.
  EXPECT_FALSE(St.has("task.world_stop_delay_ns_p50"));
  T.recordWorldStopDelay(1000);
  T.recordWorldStopDelay(3000);
  R.S->collector().publishTelemetryStats();
  EXPECT_EQ(St.get("task.world_stop_delay_ns_p50"),
            T.worldStopDelayHistogram().percentile(50));
  EXPECT_TRUE(St.has("task.world_stop_delay_ns_p99"));
}

TEST(Telemetry, VerifyPassDoesNotPolluteCensus) {
  // Large heap: no grow-retry re-traces, so each collection traces the
  // live set exactly once plus one verify pass.
  CliOptions O = sessionOptions(GcStrategy::CompiledTagFree,
                                GcAlgorithm::Copying, 1 << 20);
  O.Stress = true;
  O.Verify = true;
  SessionRun R = runSession(wl::listChurn(40, 20), O);
  ASSERT_TRUE(R);
  Stats &St = R.stats();
  Telemetry &T = R.S->collector().telemetry();
  // The verify pass re-runs the tracers over a CheckSpace, doubling the
  // gc.objects_visited counter — but the census is paused during verify,
  // so it counts each live object once.
  ASSERT_EQ(St.get(StatId::GcHeapGrowths), 0u);
  EXPECT_EQ(2 * T.censusObjectsTotal(), St.get(StatId::GcObjectsVisited));
  EXPECT_GT(T.phaseNsTotal(GcPhase::Verify), 0u);
  EXPECT_EQ(St.get(StatId::GcVerifyViolations), 0u);
}

//===----------------------------------------------------------------------===//
// Export formats
//===----------------------------------------------------------------------===//

TEST(Telemetry, ChromeTraceIsValidJson) {
  std::string Path = ::testing::TempDir() + "tfgc_telemetry_test_trace.json";
  CliOptions O = sessionOptions(GcStrategy::CompiledTagFree);
  O.Stress = true;
  O.TraceOutPath = Path;
  SessionRun R = runSession(wl::listChurn(40, 20), O);
  ASSERT_TRUE(R);
  Telemetry &T = R.S->collector().telemetry();
  std::ostringstream Trace;
  Trace << std::ifstream(Path).rdbuf();
  std::remove(Path.c_str());

  std::string J = Trace.str();
  EXPECT_TRUE(validJson(J)) << J.substr(0, 400);
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"gc.collection\""), std::string::npos);
  EXPECT_NE(J.find("\"frame_dispatch\""), std::string::npos);
  EXPECT_NE(J.find("compiled-tagfree"), std::string::npos);
  // The trace streams: it covers every collection.
  size_t Events = 0, At = 0;
  while ((At = J.find("\"gc.collection\"", At)) != std::string::npos) {
    ++Events;
    At += 1;
  }
  EXPECT_EQ(Events, T.collections());
}

TEST(Telemetry, StatsJsonIsValidAndComplete) {
  SessionRun R =
      runWithTelemetry(wl::listChurn(40, 20), GcStrategy::CompiledTagFree);
  ASSERT_TRUE(R);
  std::ostringstream OS;
  R.S->collector().telemetry().writeStatsJson(OS, R.stats());
  std::string J = OS.str();
  EXPECT_TRUE(validJson(J)) << J.substr(0, 400);
  EXPECT_NE(J.find("\"pause_histogram\""), std::string::npos);
  EXPECT_NE(J.find("\"census_totals\""), std::string::npos);
  EXPECT_NE(J.find("\"gc.collections\""), std::string::npos);
  EXPECT_NE(J.find("\"p99\""), std::string::npos);
}

TEST(Telemetry, LogLineFormat) {
  // The [gc] log goes through a FILE*; route it to a temp file and check
  // the line shape.
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  Telemetry T;
  T.setLabel("unit");
  T.setLogStream(F);
  T.beginCollection();
  T.census(CensusKind::Data, 3);
  T.finishCollection(/*LiveWordsAfter=*/3, /*HeapCapacityBytesAfter=*/4096);
  std::rewind(F);
  char Buf[512] = {};
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), F), nullptr);
  std::fclose(F);
  std::string Line(Buf);
  EXPECT_NE(Line.find("[gc] unit seq=0"), std::string::npos) << Line;
  EXPECT_NE(Line.find("pause_ns="), std::string::npos) << Line;
  EXPECT_NE(Line.find("census_data=1/3"), std::string::npos) << Line;
  EXPECT_NE(Line.find("live_words=3"), std::string::npos) << Line;
  EXPECT_NE(Line.find("cap_bytes=4096"), std::string::npos) << Line;
}

} // namespace
