//===- tests/session_test.cpp - driver/Session assembly tests -------------===//
///
/// The Session is the one place a run is put together, so it carries the
/// guarantee every attachment makes on its own: observing a run does not
/// change it. A fully attached run — profiler with retainers, a sink-only
/// heap graph, monitor, epochs, flight recorder, trace and gc-log — must
/// return the same value and the same deterministic counters as a bare
/// one, under every strategy and algorithm with post-GC verification and
/// GC stress, and leave a complete recording; and an OS-thread run with
/// the recorder, epochs and stats JSON attached must keep its handshakes
/// paired.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "workloads/Programs.h"

#include <cstdio>
#include <map>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

/// Counters that do not depend on wall time or on what is attached: the
/// attachments' own publications (mon.*, heap.profile_*, site.*,
/// heap.promoted_words_attributed) are left out.
std::map<std::string, uint64_t> runCounters(const Stats &St) {
  std::map<std::string, uint64_t> Out;
  for (const auto &[Name, Value] : St.all()) {
    bool Own = Name.rfind("mon.", 0) == 0 ||
               Name.rfind("heap.profile_", 0) == 0 ||
               Name.rfind("site.", 0) == 0 ||
               Name == "heap.promoted_words_attributed";
    if (!Own && Name.find("_ns") == std::string::npos)
      Out[Name] = Value;
  }
  return Out;
}

TEST(Session, AttachmentsDoNotPerturbTheRun) {
  const std::string Src = wl::listChurn(12, 4);
  const std::string Flight = tmpPath("perturb.bin");
  const std::string Trace = tmpPath("perturb_trace.json");
  const std::string Metrics = tmpPath("perturb.prom");
  for (GcStrategy S : AllStrategies) {
    for (GcAlgorithm A : AllAlgorithms) {
      std::string Label = std::string(gcStrategyName(S)) + "/" +
                          gcAlgorithmName(A);
      CliOptions Bare = sessionOptions(
          S, A, 1 << 15, A == GcAlgorithm::Generational ? 1 << 13 : 0);
      Bare.Verify = true;
      Bare.Stress = true;
      SessionRun Plain = runSession(Src, Bare);
      ASSERT_TRUE(Plain) << Label;

      CliOptions All = Bare;
      All.HeapProfile = true;
      All.Retainers = 3;
      All.Monitor = true;
      All.MetricsOutPath = Metrics;
      All.FlightOutPath = Flight;
      All.TraceOutPath = Trace;
      All.GcLog = true;
      size_t Chunks = 0;
      ::testing::internal::CaptureStderr();
      SessionRun Watched = runSession(Src, All, [&Chunks](Session &Sn) {
        Sn.graph().setChunkSink([&Chunks](const std::string &) { ++Chunks; });
      });
      std::string GcLog = ::testing::internal::GetCapturedStderr();
      ASSERT_TRUE(Watched) << Label;

      EXPECT_EQ(Plain.R.Value, Watched.R.Value) << Label;
      EXPECT_EQ(runCounters(Plain.stats()), runCounters(Watched.stats()))
          << Label;
      // Every attachment was live, not merely configured.
      uint64_t Collections = Watched.stats().get(StatId::GcCollections);
      ASSERT_GT(Collections, 0u) << Label;
      EXPECT_EQ(Watched.stats().get(StatId::GcVerifyViolations), 0u) << Label;
      if (A != GcAlgorithm::Generational) { // Minors are never captured.
        EXPECT_GT(Chunks, 0u) << Label;
      }
      EXPECT_GT(Watched.S->profiler().allocTotal(), 0u) << Label;
      EXPECT_GT(Watched.S->monitor().collectionsSeen(), 0u) << Label;
      // Startup, one per collection, run end; monitor heartbeats add more
      // on a slow host.
      EXPECT_GE(Watched.S->epochs().epochCount(), Collections + 2) << Label;
      // The recording is complete on disk: header plus every record.
      std::string Recording = slurp(Flight);
      EXPECT_EQ(Recording.compare(0, 8, "TFGCFLR1"), 0) << Label;
      EXPECT_GE(Watched.S->flight()->recordsFiled(), 2u) << Label;
      EXPECT_EQ(Recording.size(), 24 + Watched.S->flight()->recordsFiled() *
                                           sizeof(FlightEvent))
          << Label;
      EXPECT_NE(slurp(Trace).find("\"cat\": \"gc\""), std::string::npos)
          << Label;
      EXPECT_NE(GcLog.find("[gc] "), std::string::npos) << Label;
    }
  }
  for (const std::string &P : {Flight, Trace, Metrics})
    std::remove(P.c_str());
}

TEST(Session, ThreadedRunKeepsHandshakesPaired) {
  // --threads=2 with the flight recorder, epochs and stats JSON attached:
  // both tasks run main to the sequential value, and every armed GC
  // request is exactly one world stop and one handshake epoch.
  const std::string Src = wl::listChurn(40, 8);
  const std::string Flight = tmpPath("threads.bin");
  const std::string Metrics = tmpPath("threads.prom");
  const std::string StatsJson = tmpPath("threads_stats.json");
  CliOptions Seq = sessionOptions(GcStrategy::CompiledTagFree,
                                  GcAlgorithm::Generational, 1 << 14);
  SessionRun Reference = runSession(Src, Seq);
  ASSERT_TRUE(Reference);

  CliOptions O = Seq;
  O.Threads = 2;
  O.FlightOutPath = Flight;
  O.MetricsOutPath = Metrics;
  O.StatsJsonPath = StatsJson;
  SessionRun Run = runSession(Src, O);
  ASSERT_TRUE(Run);
  EXPECT_EQ(Run.R.Value, Reference.R.Value);
  Stats &St = Run.stats();
  EXPECT_EQ(St.get(StatId::TaskSpawned), 2u);
  uint64_t Stops = St.get(StatId::TaskWorldStops);
  EXPECT_GT(Stops, 0u);
  EXPECT_EQ(St.get(StatId::TaskGcRequests), Stops);
  EXPECT_EQ(St.get("sched.handshake_epochs"), Stops);
  EXPECT_GT(Run.S->flight()->recordsFiled(), 0u);
  std::string Doc = slurp(StatsJson);
  EXPECT_TRUE(validJson(Doc)) << Doc.substr(0, 200);
  EXPECT_NE(Doc.find("\"task.world_stops\""), std::string::npos);
  for (const std::string &P : {Flight, Metrics, StatsJson})
    std::remove(P.c_str());
}

} // namespace
