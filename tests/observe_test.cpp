//===- tests/observe_test.cpp - Sharded observability core tests ----------===//
///
/// Covers the sharded Stats refactor and the epoch/introspection layer on
/// top of it: StatsShard fold math (Sum vs Max, touched-bit union),
/// fold-equals-single-domain bit-identity across every strategy and
/// algorithm under --verify, the dynamic-name safepoint guard (death
/// test), EpochAggregator snapshot consistency across cooperative task
/// switches, the Prometheus rendering, the IntrospectServer end-to-end
/// over a real loopback socket, and the CLI guarantees: --metrics-out
/// totals equal to --stats-json, and a coherent final epoch on the
/// exit-3 abnormal path.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Cli.h"
#include "support/Epoch.h"
#include "support/Introspect.h"
#include "tasking/Tasking.h"
#include "workloads/Programs.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

//===----------------------------------------------------------------------===//
// StatsShard fold math
//===----------------------------------------------------------------------===//

TEST(StatsShard, SumCountersFoldBySummation) {
  Stats St;
  St.add(StatId::GcObjectsVisited, 10);          // shard 0
  St.shardForTask(0).add(StatId::GcObjectsVisited, 7);
  St.shardForTask(1).add(StatId::GcObjectsVisited, 5);
  EXPECT_EQ(St.numShards(), 3u);
  EXPECT_EQ(St.get(StatId::GcObjectsVisited), 22u);
  EXPECT_EQ(St.get("gc.objects_visited"), 22u);
}

TEST(StatsShard, HighWaterMarksFoldByMax) {
  // Two tasks with 40 and 60 live frames have a 60-frame maximum, not 100.
  Stats St;
  St.shardForTask(0).set(StatId::VmMaxFrames, 40);
  St.shardForTask(1).set(StatId::VmMaxFrames, 60);
  EXPECT_EQ(statFold(StatId::VmMaxFrames), StatFold::Max);
  EXPECT_EQ(St.get(StatId::VmMaxFrames), 60u);
  // All four high-water ids are Max; spot-check the others are Sum.
  EXPECT_EQ(statFold(StatId::GcPauseNsMax), StatFold::Max);
  EXPECT_EQ(statFold(StatId::TaskStepsToWorldStopMax), StatFold::Max);
  EXPECT_EQ(statFold(StatId::VmMaxSlotWords), StatFold::Max);
  EXPECT_EQ(statFold(StatId::GcCollections), StatFold::Sum);
  EXPECT_EQ(statFold(StatId::VmSteps), StatFold::Sum);
}

TEST(StatsShard, TouchedBitsUnionAcrossShards) {
  Stats St;
  EXPECT_FALSE(St.has(StatId::TaskSuspendChecks));
  // An explicit write of zero in some task's shard makes the counter
  // visible globally — render parity with the old single map.
  St.shardForTask(2).add(StatId::TaskSuspendChecks, 0);
  EXPECT_TRUE(St.has(StatId::TaskSuspendChecks));
  EXPECT_EQ(St.get(StatId::TaskSuspendChecks), 0u);
  auto All = St.all();
  EXPECT_EQ(All.count("task.suspend_checks"), 1u);
}

TEST(StatsShard, ClearZeroesEveryShardButKeepsThem) {
  Stats St;
  St.add(StatId::VmSteps, 3);
  StatsShard &S1 = St.shardForTask(0);
  S1.add(StatId::VmSteps, 9);
  St.clear();
  EXPECT_EQ(St.numShards(), 2u);
  EXPECT_FALSE(St.has(StatId::VmSteps));
  // The shard pointer stays valid (cached by each Vm across clears).
  S1.add(StatId::VmSteps, 4);
  EXPECT_EQ(St.get(StatId::VmSteps), 4u);
}

TEST(StatsShard, ShardForTaskIsStableAndSparseSafe) {
  Stats St;
  StatsShard &A = St.shardForTask(5); // creates shards 1..6
  EXPECT_EQ(St.numShards(), 7u);
  EXPECT_EQ(&St.shardForTask(5), &A);
  EXPECT_EQ(&St.shardForTask(0), &const_cast<StatsShard &>(St.shard(1)));
}

//===----------------------------------------------------------------------===//
// Dynamic-name safepoint guard
//===----------------------------------------------------------------------===//

TEST(StatsGuard, SingleShardDynamicWritesAreUnrestricted) {
  Stats St;
  St.set("custom.counter", 42); // one shard: no guard
  EXPECT_EQ(St.get("custom.counter"), 42u);
}

TEST(StatsGuard, SafepointScopeLegalizesDynamicWrites) {
  Stats St;
  St.shardForTask(0);
  {
    Stats::SafepointScope Scope(St);
    EXPECT_TRUE(St.inSafepoint());
    St.set("task.0.mutator_steps", 1234);
  }
  EXPECT_FALSE(St.inSafepoint());
  EXPECT_EQ(St.get("task.0.mutator_steps"), 1234u);
}

TEST(StatsGuardDeathTest, DynamicWriteOutsideSafepointAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Stats St;
  St.shardForTask(0); // two shards: dynamic registration now racy
  EXPECT_DEATH(St.set("task.0.mutator_steps", 1),
               "Stats::SafepointScope");
}

//===----------------------------------------------------------------------===//
// Fold bit-identity on real runs: the folded view a sharded run reports
// equals a manual single-domain recomputation of the same shards, under
// every strategy x algorithm with --verify on (satellite 3).
//===----------------------------------------------------------------------===//

TEST(ObserveFold, FoldedTotalsMatchManualRefoldAllStrategiesAllAlgorithms) {
  for (GcStrategy S : AllStrategies) {
    for (GcAlgorithm A : AllAlgorithms) {
      CliOptions O = sessionOptions(S, A, 1 << 15);
      O.Stress = true;
      O.Verify = true;
      SessionRun Run = runSession(wl::listChurn(30, 6), O);
      ASSERT_TRUE(Run) << gcStrategyName(S);
      Stats &St = Run.stats();
      EXPECT_EQ(St.get(StatId::GcVerifyViolations), 0u);

      // Recompute every fixed counter from the raw shards with the fold
      // rules; the facade's folded view must agree exactly.
      for (size_t I = 0; I < NumStatIds; ++I) {
        StatId Id = (StatId)I;
        uint64_t Want = 0;
        bool Touched = false;
        for (size_t Sh = 0; Sh < St.numShards(); ++Sh) {
          const StatsShard &Shard = St.shard(Sh);
          if (!Shard.has(Id))
            continue;
          Touched = true;
          Want = statFold(Id) == StatFold::Max
                     ? std::max(Want, Shard.get(Id))
                     : Want + Shard.get(Id);
        }
        EXPECT_EQ(St.get(Id), Want)
            << Stats::name(Id) << " under " << gcStrategyName(S) << "/"
            << gcAlgorithmName(A);
        EXPECT_EQ(St.has(Id), Touched) << Stats::name(Id);
      }

      // And the epoch layer reports exactly the facade's folded view.
      EpochAggregator Agg;
      Agg.attachStats(&St);
      const EpochSnapshot &E = Agg.fold(SafepointKind::RunEnd);
      EXPECT_EQ(E.counters(), St.all())
          << gcStrategyName(S) << "/" << gcAlgorithmName(A);
    }
  }
}

TEST(ObserveFold, SequentialRunCountersAreDeterministicAcrossRuns) {
  // Two identical sequential runs fold to the same values for every
  // non-time counter — the shard refactor introduced no nondeterminism.
  auto RunOnce = [] {
    ExecResult R = execProgram(wl::listChurn(25, 5),
                               GcStrategy::CompiledTagFree,
                               GcAlgorithm::Generational, 1 << 15,
                               /*GcStress=*/false, {}, 1 << 12);
    EXPECT_TRUE(R.Run.Ok) << R.Run.Error;
    return R.St.all();
  };
  auto A = RunOnce(), B = RunOnce();
  ASSERT_EQ(A.size(), B.size());
  for (const auto &[Name, Value] : A) {
    if (Name.find("ns") != std::string::npos ||
        Name.compare(0, 4, "mon.") == 0)
      continue; // wall-clock derived
    EXPECT_EQ(B.at(Name), Value) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Epoch aggregation across cooperative task switches (satellite 3)
//===----------------------------------------------------------------------===//

TEST(ObserveEpoch, ConsistentAcrossTaskSwitches) {
  // --metrics-out attaches the epoch aggregator: one epoch per collection.
  std::string Metrics = tmpPath("switches.prom");
  CliOptions O = sessionOptions(GcStrategy::CompiledTagFree,
                                GcAlgorithm::Copying, 1 << 13);
  O.Threads = 1;
  O.MetricsOutPath = Metrics;
  SessionRun Run = openSession(wl::taskWorker(), O);
  ASSERT_TRUE(Run);
  CompiledProgram &P = *Run.P;
  TaskingOptions TO = Run.S->taskingOptions();
  TO.TimeSliceSteps = 64; // frequent switches between tasks
  TaskingRuntime Rt(P.Prog, P.Image, *P.Types, Run.S->collector(), TO);
  FuncId Worker = findFunction(P.Prog, "worker");
  ASSERT_NE(Worker, InvalidFunc);
  for (int64_t Seed = 1; Seed <= 3; ++Seed)
    Rt.spawnInt(Worker, {Seed, 30});
  ASSERT_TRUE(Rt.runAll());
  ASSERT_TRUE(Run.S->finish());
  std::remove(Metrics.c_str());
  EpochAggregator &Agg = Run.S->epochs();
  Stats &St = Run.stats();

  // Collections happened (small heap) and each produced an epoch.
  ASSERT_GE(Agg.epochCount(), 2u);
  ASSERT_GE(St.get(StatId::GcCollections), 1u);

  const auto &Hist = Agg.history();
  uint64_t LastSeq = 0, LastWhen = 0, LastSteps = 0, LastCols = 0;
  for (const auto &Snap : Hist) {
    const EpochSnapshot &E = *Snap;
    const auto Counters = E.counters();
    EXPECT_GT(E.Seq, LastSeq);
    EXPECT_GE(E.WhenNs, LastWhen);
    // Sum-folded accumulators never regress between epochs, no matter
    // which task was mid-slice when the world stopped.
    auto Steps = Counters.find("vm.steps");
    if (Steps != Counters.end()) {
      EXPECT_GE(Steps->second, LastSteps) << "epoch " << E.Seq;
      LastSteps = Steps->second;
    }
    auto Cols = Counters.find("gc.collections");
    if (Cols != Counters.end()) {
      EXPECT_GE(Cols->second, LastCols) << "epoch " << E.Seq;
      LastCols = Cols->second;
    }
    // Cross-counter coherence inside one epoch: the minor/major split
    // never exceeds the total, and visited words imply visited objects.
    auto Get = [&](const char *N) {
      auto It = Counters.find(N);
      return It == Counters.end() ? 0u : It->second;
    };
    EXPECT_LE(Get("gc.minor_collections") + Get("gc.major_collections"),
              Get("gc.collections"))
        << "epoch " << E.Seq;
    if (Get("gc.words_visited") > 0) {
      EXPECT_GT(Get("gc.objects_visited"), 0u) << "epoch " << E.Seq;
    }
    LastSeq = E.Seq;
    LastWhen = E.WhenNs;
  }
  // The final epoch agrees with the quiescent facade fold.
  EXPECT_EQ(Hist.back()->counters(), St.all());
}

TEST(ObserveEpoch, HistoryIsCappedButLatestAlwaysCurrent) {
  Stats St;
  EpochAggregator Agg;
  Agg.attachStats(&St);
  for (int I = 0; I < 100; ++I) {
    St.add(StatId::GcCollections);
    Agg.fold(SafepointKind::Collection);
  }
  EXPECT_EQ(Agg.history().size(), EpochAggregator::HistoryCap);
  EXPECT_EQ(Agg.epochCount(), 100u);
  EXPECT_EQ(Agg.latest().Seq, 100u);
  EXPECT_EQ(Agg.latest().counters().at("gc.collections"), 100u);
  EXPECT_EQ(Agg.history().front()->Seq,
            100u - EpochAggregator::HistoryCap + 1);
}

//===----------------------------------------------------------------------===//
// Prometheus rendering
//===----------------------------------------------------------------------===//

TEST(ObservePrometheus, RendersTypedSanitizedSamples) {
  Stats St;
  St.set(StatId::GcCollections, 3);
  St.set(StatId::GcPauseNsMax, 777);
  St.set(StatId::HeapUsedBytes, 4096);
  {
    Stats::SafepointScope Scope(St);
    St.set("task.0.world_stop_delay_ns_p99", 55);
  }
  EpochAggregator Agg;
  Agg.attachStats(&St);
  Agg.setLabel("compiled-tagfree/copying");
  Agg.fold(SafepointKind::Collection);
  std::string Text = Agg.renderPrometheus();

  EXPECT_NE(Text.find("tfgc_info{label=\"compiled-tagfree/copying\"} 1"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("tfgc_epoch_seq 1"), std::string::npos);
  // Dots sanitized to underscores; counter vs gauge typing.
  EXPECT_NE(Text.find("# TYPE tfgc_gc_collections counter"),
            std::string::npos);
  EXPECT_NE(Text.find("tfgc_gc_collections 3"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE tfgc_gc_pause_ns_max gauge"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE tfgc_heap_used_bytes gauge"),
            std::string::npos);
  EXPECT_NE(Text.find("tfgc_task_0_world_stop_delay_ns_p99 55"),
            std::string::npos);
  // Every non-comment line is "name value".
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Space = Line.find(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    EXPECT_EQ(Line.find(' ', Space + 1), std::string::npos) << Line;
  }
}

//===----------------------------------------------------------------------===//
// IntrospectServer end-to-end over loopback
//===----------------------------------------------------------------------===//

/// Minimal HTTP/1.1 client: one request, reads to EOF (the server closes).
std::string httpGet(uint16_t Port, const std::string &Target,
                    const char *Method = "GET") {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(Fd, (sockaddr *)&Addr, sizeof(Addr)), 0);
  std::string Req = std::string(Method) + " " + Target +
                    " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  EXPECT_EQ(::send(Fd, Req.data(), Req.size(), 0), (ssize_t)Req.size());
  std::string Resp;
  char Buf[4096];
  ssize_t N;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Resp.append(Buf, (size_t)N);
  ::close(Fd);
  return Resp;
}

TEST(IntrospectServer, ServesEpochBodiesOverLoopback) {
  IntrospectServer Srv;
  std::string Err;
  uint16_t Port = Srv.start(0, Err); // ephemeral
  ASSERT_NE(Port, 0u) << Err;
  ASSERT_TRUE(Srv.running());

  // Before any epoch: health is up, metrics 503, snapshot/heartbeat 404.
  EXPECT_NE(httpGet(Port, "/healthz").find("200"), std::string::npos);
  EXPECT_NE(httpGet(Port, "/metrics").find("503"), std::string::npos);
  EXPECT_NE(httpGet(Port, "/snapshot").find("404"), std::string::npos);
  EXPECT_NE(httpGet(Port, "/heartbeat").find("404"), std::string::npos);
  EXPECT_NE(httpGet(Port, "/nope").find("404"), std::string::npos);
  EXPECT_NE(httpGet(Port, "/metrics", "POST").find("405"),
            std::string::npos);

  // Publish an epoch through the aggregator and scrape it back.
  Stats St;
  St.set(StatId::GcCollections, 9);
  EpochAggregator Agg;
  Agg.attachStats(&St);
  Agg.attachServer(&Srv);
  Agg.setSnapshotProvider(
      [] { return std::string("{\"tool\": \"tfgc-heap-profile\"}"); });
  Agg.fold(SafepointKind::Collection);
  Agg.noteHeartbeat("{\"type\": \"heartbeat\", \"seq\": 0}\n");

  std::string Metrics = httpGet(Port, "/metrics");
  EXPECT_NE(Metrics.find("HTTP/1.1 200"), std::string::npos) << Metrics;
  EXPECT_NE(Metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(Metrics.find("tfgc_gc_collections 9"), std::string::npos);
  // Query strings route like the bare path.
  EXPECT_NE(httpGet(Port, "/metrics?x=1").find("tfgc_gc_collections 9"),
            std::string::npos);
  EXPECT_NE(httpGet(Port, "/snapshot").find("tfgc-heap-profile"),
            std::string::npos);
  EXPECT_NE(httpGet(Port, "/heartbeat").find("\"heartbeat\""),
            std::string::npos);

  // A later epoch replaces the served body atomically.
  St.set(StatId::GcCollections, 10);
  Agg.fold(SafepointKind::Collection);
  EXPECT_NE(httpGet(Port, "/metrics").find("tfgc_gc_collections 10"),
            std::string::npos);

  EXPECT_GE(Srv.requestsServed(), 10u);
  Srv.stop();
  EXPECT_FALSE(Srv.running());
  // stop() is idempotent.
  Srv.stop();
}

TEST(IntrospectServer, RebindsAfterStop) {
  IntrospectServer Srv;
  std::string Err;
  uint16_t Port = Srv.start(0, Err);
  ASSERT_NE(Port, 0u) << Err;
  Srv.stop();
  uint16_t Port2 = Srv.start(0, Err);
  ASSERT_NE(Port2, 0u) << Err;
  EXPECT_NE(httpGet(Port2, "/healthz").find("200"), std::string::npos);
  Srv.stop();
}

//===----------------------------------------------------------------------===//
// CLI integration: --metrics-out equals --stats-json; abnormal exit
// still flushes a coherent final epoch (satellite 3); flag validation.
//===----------------------------------------------------------------------===//

/// Extracts `"name": N` from the stats JSON counters map.
uint64_t jsonCounter(const std::string &Doc, const std::string &Name) {
  std::string Key = "\"" + Name + "\": ";
  size_t At = Doc.find(Key);
  EXPECT_NE(At, std::string::npos) << Name;
  if (At == std::string::npos)
    return ~0ull;
  return std::stoull(Doc.substr(At + Key.size()));
}

/// Extracts `tfgc_name N` from a Prometheus exposition.
uint64_t promSample(const std::string &Doc, const std::string &Metric) {
  size_t At = 0;
  while ((At = Doc.find(Metric, At)) != std::string::npos) {
    size_t After = At + Metric.size();
    bool LineStart = At == 0 || Doc[At - 1] == '\n';
    if (LineStart && After < Doc.size() && Doc[After] == ' ')
      return std::stoull(Doc.substr(After + 1));
    At = After;
  }
  ADD_FAILURE() << "no sample " << Metric;
  return ~0ull;
}

TEST(ObserveCli, MetricsOutTotalsEqualStatsJson) {
  std::string Metrics = tmpPath("metrics.txt");
  std::string StatsJson = tmpPath("metrics_stats.json");
  std::remove(Metrics.c_str());
  std::remove(StatsJson.c_str());

  CliOptions O;
  ASSERT_TRUE(parseOk({"--algo=generational", "--heap=32768",
                       "--nursery-bytes=8192", "--verify",
                       "--metrics-out=" + Metrics,
                       "--stats-json=" + StatsJson, "-e",
                       wl::generationalChurn(40, 6, 60)},
                      O));
  EXPECT_EQ(runTfgc(O), 0);

  std::string Prom = slurp(Metrics);
  std::string Json = slurp(StatsJson);
  ASSERT_FALSE(Prom.empty());
  ASSERT_FALSE(Json.empty());
  EXPECT_NE(Prom.find("run_end safepoint"), std::string::npos);
  for (const char *Name :
       {"gc.collections", "gc.minor_collections", "vm.steps", "vm.calls",
        "heap.bytes_allocated_total", "gc.pause_ns_total", "vm.max_frames",
        "gc.objects_visited", "gc.verify_passes"}) {
    std::string Metric = "tfgc_";
    for (const char *C = Name; *C; ++C)
      Metric.push_back(*C == '.' ? '_' : *C);
    EXPECT_EQ(promSample(Prom, Metric), jsonCounter(Json, Name)) << Name;
  }

  std::remove(Metrics.c_str());
  std::remove(StatsJson.c_str());
}

TEST(ObserveCli, AbnormalExitStillFlushesFinalEpoch) {
  // Exit 3 (injected verify violations) must leave a complete final
  // epoch on disk, same guarantee as the other diagnostic artifacts.
  std::string Metrics = tmpPath("abnormal_metrics.txt");
  std::remove(Metrics.c_str());

  CliOptions O;
  ASSERT_TRUE(parseOk({"--stress", "--heap=16384", "--verify",
                       "--inject-verify-violation",
                       "--metrics-out=" + Metrics, "-e",
                       wl::listChurn(20, 3)},
                      O));
  EXPECT_EQ(runTfgc(O), 3);

  std::string Prom = slurp(Metrics);
  ASSERT_FALSE(Prom.empty()) << Metrics;
  EXPECT_NE(Prom.find("run_end safepoint"), std::string::npos) << Prom;
  EXPECT_GE(promSample(Prom, "tfgc_epoch_seq"), 1u);
  EXPECT_GE(promSample(Prom, "tfgc_gc_verify_violations"), 1u);
  // Coherent: the violation count rode along with the collections that
  // produced it in one fold.
  EXPECT_GE(promSample(Prom, "tfgc_gc_collections"), 1u);

  std::remove(Metrics.c_str());
}

TEST(ObserveCli, ServeFlagValidation) {
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  EXPECT_FALSE(parseCli({"--serve=70000", "-e", "1"}, O, Err, HelpOnly));
  EXPECT_NE(Err.find("port"), std::string::npos) << Err;

  CliOptions O2;
  Err.clear();
  EXPECT_FALSE(parseCli({"--serve-linger-ms=10", "-e", "1"}, O2, Err,
                        HelpOnly));
  EXPECT_NE(Err.find("--serve"), std::string::npos) << Err;

  CliOptions O3;
  ASSERT_TRUE(parseOk({"--serve=0", "--serve-linger-ms=5", "-e", "1"}, O3));
  EXPECT_EQ(O3.ServePort, 0);
  EXPECT_EQ(O3.ServeLingerMs, 5u);
  CliOptions O4;
  ASSERT_TRUE(parseOk({"-e", "1"}, O4));
  EXPECT_EQ(O4.ServePort, -1);
}

TEST(ObserveCli, ServedRunScrapesDuringAndAfter) {
  // End-to-end through runTfgc: serve on an ephemeral... no — runTfgc
  // prints the bound port to stderr, which a unit test cannot easily
  // capture, so use a fixed high port and tolerate a busy environment by
  // trying a few.
  for (uint16_t Port : {38471, 38477, 38483}) {
    {
      IntrospectServer Probe;
      std::string Err;
      if (Probe.start(Port, Err) == 0)
        continue; // busy; try the next candidate
      Probe.stop();
    }
    std::string Metrics = tmpPath("serve_metrics.txt");
    std::remove(Metrics.c_str());
    CliOptions O;
    ASSERT_TRUE(parseOk({"--algo=generational", "--heap=32768",
                         "--nursery-bytes=8192",
                         "--serve=" + std::to_string(Port),
                         "--serve-linger-ms=400",
                         "--metrics-out=" + Metrics, "-e",
                         wl::generationalChurn(40, 6, 40)},
                        O));
    // The linger window keeps the final epoch served after the run body
    // finishes; scrape from a second thread while runTfgc lingers.
    std::string Scraped;
    std::thread Scraper([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      Scraped = httpGet(Port, "/metrics");
    });
    EXPECT_EQ(runTfgc(O), 0);
    Scraper.join();
    ASSERT_NE(Scraped.find("HTTP/1.1 200"), std::string::npos) << Scraped;
    uint64_t Live = promSample(Scraped, "tfgc_epoch_seq");
    EXPECT_GE(Live, 1u);
    // The scrape happened during linger: it saw the final epoch, which
    // matches what --metrics-out wrote.
    std::string Final = slurp(Metrics);
    EXPECT_EQ(promSample(Final, "tfgc_epoch_seq"), Live);
    EXPECT_EQ(promSample(Final, "tfgc_vm_steps"),
              promSample(Scraped, "tfgc_vm_steps"));
    std::remove(Metrics.c_str());
    return;
  }
  GTEST_SKIP() << "all candidate ports busy";
}

} // namespace
