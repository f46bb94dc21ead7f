//===- tests/monitor_test.cpp - Mutator-side monitor tests ----------------===//
///
/// Covers support/Monitor.h: MMU window math on synthetic span sequences
/// (MmuTracker), the mutator/GC wall-clock coverage invariant on real
/// runs, the sample-count/step-count invariant under every strategy and
/// algorithm, JSONL stream schema validity (via the shared in-test JSON
/// parser), heartbeat emission, and the abnormal-exit summary flush
/// through the CLI artifact path.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Cli.h"
#include "support/Monitor.h"
#include "workloads/Programs.h"

#include <cstdio>
#include <sstream>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

constexpr uint64_t Ms = 1'000'000; // ns

//===----------------------------------------------------------------------===//
// MmuTracker window math on synthetic spans
//===----------------------------------------------------------------------===//

TEST(MmuTracker, NoPausesIsFullUtilization) {
  MmuTracker T;
  EXPECT_DOUBLE_EQ(T.mmu(10 * Ms, 0, 100 * Ms), 1.0);
  EXPECT_EQ(T.gcNsIn(0, 100 * Ms), 0u);
}

TEST(MmuTracker, GcTimeClipping) {
  MmuTracker T;
  T.addPause(10 * Ms, 12 * Ms);
  T.addPause(20 * Ms, 21 * Ms);
  EXPECT_EQ(T.gcNsTotal(), 3 * Ms);
  // Full containment, partial overlap on each side, and no overlap.
  EXPECT_EQ(T.gcNsIn(0, 100 * Ms), 3 * Ms);
  EXPECT_EQ(T.gcNsIn(11 * Ms, 100 * Ms), 1 * Ms + 1 * Ms);
  EXPECT_EQ(T.gcNsIn(0, 11 * Ms), 1 * Ms);
  EXPECT_EQ(T.gcNsIn(12 * Ms, 20 * Ms), 0u);
  EXPECT_EQ(T.gcNsIn(11 * Ms, 20500000), 1 * Ms + 500000);
}

TEST(MmuTracker, SinglePauseWindows) {
  // One 2 ms pause at [10, 12) in a 20 ms run.
  MmuTracker T;
  T.addPause(10 * Ms, 12 * Ms);
  // A 2 ms window can be fully swallowed by the pause.
  EXPECT_DOUBLE_EQ(T.mmu(2 * Ms, 0, 20 * Ms), 0.0);
  // The worst 5 ms window contains the whole pause: 3/5 mutator.
  EXPECT_DOUBLE_EQ(T.mmu(5 * Ms, 0, 20 * Ms), 0.6);
  // Window equal to the run: overall utilization.
  EXPECT_DOUBLE_EQ(T.mmu(20 * Ms, 0, 20 * Ms), 0.9);
  // Window larger than the run falls back to overall utilization.
  EXPECT_DOUBLE_EQ(T.mmu(40 * Ms, 0, 20 * Ms), 0.9);
}

TEST(MmuTracker, PeriodicPauses) {
  // 1 ms pause every 10 ms: [9,10), [19,20), ... in a 100 ms run.
  MmuTracker T;
  for (uint64_t I = 0; I < 10; ++I)
    T.addPause((9 + 10 * I) * Ms, (10 + 10 * I) * Ms);
  // A 1 ms window lands entirely inside a pause.
  EXPECT_DOUBLE_EQ(T.mmu(1 * Ms, 0, 100 * Ms), 0.0);
  // Any 10 ms window sees exactly 1 ms of GC.
  EXPECT_NEAR(T.mmu(10 * Ms, 0, 100 * Ms), 0.9, 1e-9);
  // The whole run is 10% GC.
  EXPECT_NEAR(T.mmu(100 * Ms, 0, 100 * Ms), 0.9, 1e-9);
}

TEST(MmuTracker, WorstWindowAlignsWithPauseEdges) {
  // Two pauses close together: [10,11) and [13,14). The worst 4 ms
  // window [10,14) contains both (2 ms GC); windows elsewhere see less.
  MmuTracker T;
  T.addPause(10 * Ms, 11 * Ms);
  T.addPause(13 * Ms, 14 * Ms);
  EXPECT_NEAR(T.mmu(4 * Ms, 0, 100 * Ms), 0.5, 1e-9);
  EXPECT_NEAR(T.mmu(8 * Ms, 0, 100 * Ms), 0.75, 1e-9);
}

TEST(MmuTracker, OverlappingStartIsClamped) {
  MmuTracker T;
  T.addPause(10 * Ms, 20 * Ms);
  T.addPause(15 * Ms, 25 * Ms); // clamped to [20, 25)
  EXPECT_EQ(T.gcNsTotal(), 15 * Ms);
  EXPECT_EQ(T.gcNsIn(0, 30 * Ms), 15 * Ms);
}

TEST(MmuTracker, RunCapKeepsTheWindowCurveMonotone) {
  // Pauses at [0, 0.25) and [1.25, 1.5) ms of a 1.5 ms run, which is not
  // a whole number of 1 ms windows: every 1 ms window misses one pause,
  // while the run as a whole, the only 10 ms window, holds both.
  constexpr uint64_t Us = Ms / 1000;
  constexpr uint64_t End = 1500 * Us;
  MmuTracker T;
  T.addPause(0, 250 * Us);
  T.addPause(1250 * Us, End);
  EXPECT_NEAR(T.mmu(1 * Ms, 0, End), 0.75, 1e-9);
  EXPECT_NEAR(T.mmu(10 * Ms, 0, End), 2.0 / 3, 1e-9);
  // Capped by the run's utilization, 1 ms reads no higher than 10 ms.
  EXPECT_NEAR(T.cappedMmu(1 * Ms, 0, End), 2.0 / 3, 1e-9);
  EXPECT_NEAR(T.cappedMmu(10 * Ms, 0, End), 2.0 / 3, 1e-9);
  EXPECT_NEAR(T.cappedMmu(100 * Ms, 0, End), 2.0 / 3, 1e-9);
  // Where the windows tile the run, the cap does not bind.
  MmuTracker P;
  for (uint64_t I = 0; I < 10; ++I)
    P.addPause((9 + 10 * I) * Ms, (10 + 10 * I) * Ms);
  EXPECT_DOUBLE_EQ(P.cappedMmu(1 * Ms, 0, 100 * Ms), 0.0);
  EXPECT_NEAR(P.cappedMmu(10 * Ms, 0, 100 * Ms), 0.9, 1e-9);
}

//===----------------------------------------------------------------------===//
// Monitor aggregation of synthetic GC events
//===----------------------------------------------------------------------===//

TEST(Monitor, SyntheticEventsFeedMmu) {
  Monitor M;
  GcEvent E;
  E.StartNs = 5 * Ms;
  E.PauseNs = 1 * Ms;
  M.onGcEvent(E);
  E.StartNs = 10 * Ms;
  E.PauseNs = 2 * Ms;
  M.onGcEvent(E);
  EXPECT_EQ(M.collectionsSeen(), 2u);
  EXPECT_EQ(M.gcNs(), 3 * Ms);
  EXPECT_EQ(M.mmuTracker().pauses(), 2u);
  // Mutator interval between the pauses was accumulated.
  EXPECT_EQ(M.mutatorNs(), 4 * Ms);
}

//===----------------------------------------------------------------------===//
// Real runs: sample/step invariant, coverage invariant, stream schema
//===----------------------------------------------------------------------===//

/// Runs \p Source with the monitor attached as --monitor attaches it,
/// sampling every \p SampleSteps VM steps; \p BeforeRun may add a stream.
SessionRun
runMonitored(const std::string &Source, GcStrategy S, GcAlgorithm A,
             uint64_t SampleSteps, size_t HeapBytes = 1 << 15,
             uint64_t PeriodMs = 0,
             const std::function<void(Session &)> &BeforeRun = nullptr) {
  CliOptions O = sessionOptions(S, A, HeapBytes);
  O.Monitor = true;
  O.MonitorSampleSteps = SampleSteps;
  O.MonitorPeriodMs = PeriodMs;
  return runSession(Source, O, BeforeRun);
}

TEST(Monitor, SampleCountMatchesStepsAllStrategiesAndAlgorithms) {
  const std::string Src = wl::listChurn(60, 12);
  for (GcStrategy S : AllStrategies) {
    for (GcAlgorithm A : AllAlgorithms) {
      SessionRun Run = runMonitored(Src, S, A, 64);
      ASSERT_TRUE(Run);
      Monitor &Mon = Run.S->monitor();
      uint64_t Steps = Run.stats().get(StatId::VmSteps);
      ASSERT_GT(Steps, 64u);
      // The fuel countdown takes exactly one sample per period.
      EXPECT_EQ(Mon.samples(), Steps / 64)
          << gcStrategyName(S) << "/" << gcAlgorithmName(A);
      EXPECT_EQ(Mon.stepsObserved(), Steps);
      // Published stats mirror the monitor.
      EXPECT_EQ(Run.stats().get("mon.samples"), Mon.samples());
      EXPECT_EQ(Run.stats().get("mon.sample_period_steps"), 64u);
    }
  }
}

TEST(Monitor, SamplesAttributeToFunctionsAndOpClasses) {
  SessionRun Run = runMonitored(wl::listChurn(60, 12),
                                GcStrategy::CompiledTagFree,
                                GcAlgorithm::Copying, 16);
  ASSERT_TRUE(Run);
  Monitor &Mon = Run.S->monitor();
  ASSERT_GT(Mon.samples(), 0u);
  uint64_t Flat = 0;
  for (uint32_t F = 0; F < 64; ++F)
    Flat += Mon.flatSamples(F);
  EXPECT_EQ(Flat, Mon.samples());
  uint64_t ByClass = 0;
  for (size_t I = 0; I < NumOpClasses; ++I)
    ByClass += Mon.opClassSamples((OpClass)I);
  EXPECT_EQ(ByClass, Mon.samples());
}

TEST(Monitor, MutatorPlusGcCoversWallClock) {
  for (GcAlgorithm A : AllAlgorithms) {
    SessionRun Run = runMonitored(wl::listChurn(80, 16),
                                  GcStrategy::CompiledTagFree, A, 512,
                                  1 << 14);
    ASSERT_TRUE(Run);
    Monitor &Mon = Run.S->monitor();
    ASSERT_GT(Run.stats().get(StatId::GcCollections), 0u)
        << gcAlgorithmName(A);
    uint64_t Wall = Mon.wallNs();
    ASSERT_GT(Wall, 0u);
    double Coverage = (double)(Mon.mutatorNs() + Mon.gcNs()) / (double)Wall;
    EXPECT_GT(Coverage, 0.95) << gcAlgorithmName(A);
    EXPECT_LT(Coverage, 1.05) << gcAlgorithmName(A);
    // MMU is monotone in the window and bounded by the overall fraction's
    // ceiling of 1.
    double M1 = Mon.mmu(1 * Ms), M10 = Mon.mmu(10 * Ms),
           M100 = Mon.mmu(100 * Ms);
    EXPECT_LE(M1, M10 + 1e-9);
    EXPECT_LE(M10, M100 + 1e-9);
    EXPECT_GE(M1, 0.0);
    EXPECT_LE(M100, 1.0);
  }
}

TEST(Monitor, StreamIsSchemaValidJsonl) {
  std::ostringstream Stream;
  SessionRun Run = runMonitored(
      wl::listChurn(100, 20), GcStrategy::CompiledTagFree,
      GcAlgorithm::Generational, 32, 1 << 14, /*PeriodMs=*/1,
      [&Stream](Session &Sn) { Sn.monitor().setStream(&Stream); });
  ASSERT_TRUE(Run); // finish() wrote the summary.
  Monitor &Mon = Run.S->monitor();

  std::istringstream In(Stream.str());
  std::string Line;
  size_t Lines = 0, Headers = 0, Summaries = 0, Heartbeats = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_TRUE(validJson(Line)) << Line.substr(0, 200);
    if (Line.find("\"type\": \"header\"") != std::string::npos)
      ++Headers;
    if (Line.find("\"type\": \"summary\"") != std::string::npos)
      ++Summaries;
    if (Line.find("\"type\": \"heartbeat\"") != std::string::npos)
      ++Heartbeats;
  }
  EXPECT_EQ(Headers, 1u);
  EXPECT_EQ(Summaries, 1u);
  EXPECT_EQ(Heartbeats, Mon.heartbeatsEmitted());
  EXPECT_EQ(Lines, 2 + Heartbeats);
  // The summary carries the profile and MMU payloads.
  EXPECT_NE(Stream.str().find("\"profile_flat\""), std::string::npos);
  EXPECT_NE(Stream.str().find("\"mmu\""), std::string::npos);
  EXPECT_NE(Stream.str().find("\"op_classes\""), std::string::npos);
  // finish() is idempotent: a second call appends nothing.
  size_t Size = Stream.str().size();
  Mon.finish();
  EXPECT_EQ(Stream.str().size(), Size);
}

//===----------------------------------------------------------------------===//
// CLI integration: abnormal-exit flush, usage errors
//===----------------------------------------------------------------------===//

TEST(Monitor, VerifyViolationStillFlushesSummary) {
  // The PR 4 guarantee extended to the monitor stream: a run that exits 3
  // (verify violations) must still end the JSONL stream with a complete
  // summary record.
  std::string Out = tmpPath("abnormal.jsonl");
  std::remove(Out.c_str());
  CliOptions O;
  ASSERT_TRUE(parseOk({"--stress", "--heap=16384", "--verify",
                       "--inject-verify-violation", "--monitor-out=" + Out,
                       "--monitor-sample-steps=32", "-e",
                       wl::listChurn(20, 3)},
                      O));
  EXPECT_EQ(runTfgc(O), 3);
  std::string Doc = slurp(Out);
  EXPECT_NE(Doc.find("\"type\": \"header\""), std::string::npos) << Out;
  EXPECT_NE(Doc.find("\"type\": \"summary\""), std::string::npos) << Out;
  std::remove(Out.c_str());
}

TEST(Monitor, PeriodWithoutOutIsUsageError) {
  // tools/tfgc.cpp maps a parseCli failure to exit code 2.
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  EXPECT_FALSE(parseCli({"--monitor-period-ms=5", "-e", "1"}, O, Err,
                        HelpOnly));
  EXPECT_NE(Err.find("--monitor-out"), std::string::npos) << Err;
}

TEST(Monitor, MonitorFlagsImplyMonitor) {
  CliOptions O;
  ASSERT_TRUE(parseOk({"--monitor-out=/tmp/m.jsonl", "-e", "1"}, O));
  EXPECT_TRUE(O.Monitor);
  EXPECT_EQ(O.MonitorOutPath, "/tmp/m.jsonl");

  CliOptions O2;
  ASSERT_TRUE(parseOk({"--monitor-sample-steps=128", "-e", "1"}, O2));
  EXPECT_TRUE(O2.Monitor);
  EXPECT_EQ(O2.MonitorSampleSteps, 128u);
}

} // namespace
