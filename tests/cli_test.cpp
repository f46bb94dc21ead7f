//===- tests/cli_test.cpp - tfgc command-line driver tests ----------------===//
///
/// Exercises the CLI as a library (driver/Cli.h): the flag table vs usage
/// text (a flag cannot be parsed without being documented), option
/// parsing including implied flags, and runTfgc() end-to-end behavior —
/// exit codes, and the guarantee that diagnostic artifacts (trace, stats
/// JSON, heap snapshot) land on disk even when the run fails.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Cli.h"
#include "workloads/Programs.h"

#include <cstdio>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

TEST(Cli, EveryParsedFlagIsDocumented) {
  // The parser walks cliFlags() and the usage text is rendered from it,
  // so this holds by construction — the test pins the contract so a
  // future hand-rolled parse branch cannot silently bypass the table.
  std::string Usage = usageText();
  ASSERT_FALSE(cliFlags().empty());
  for (const CliFlag &F : cliFlags()) {
    EXPECT_NE(Usage.find(F.Name), std::string::npos)
        << "flag " << F.Name << " missing from usage text";
    ASSERT_NE(F.Help, nullptr);
    EXPECT_NE(Usage.find(F.Help), std::string::npos)
        << "help for " << F.Name << " missing from usage text";
  }
}

TEST(Cli, ParsesRepresentativeCommandLine) {
  CliOptions O;
  ASSERT_TRUE(parseOk({"--strategy=tagged", "--algo=generational",
                       "--heap=65536", "--nursery-bytes=4096", "--stress",
                       "--verify", "--stats", "-e", "1 + 2"},
                      O));
  EXPECT_EQ(O.Strategy, GcStrategy::Tagged);
  EXPECT_EQ(O.Algo, GcAlgorithm::Generational);
  EXPECT_EQ(O.HeapBytes, 65536u);
  EXPECT_EQ(O.NurseryBytes, 4096u);
  EXPECT_TRUE(O.Stress);
  EXPECT_TRUE(O.Verify);
  EXPECT_TRUE(O.ShowStats);
  EXPECT_TRUE(O.HaveSource);
  EXPECT_EQ(O.Source, "1 + 2");
  EXPECT_FALSE(O.HeapProfile);
}

TEST(Cli, SnapshotAndRetainersImplyHeapProfile) {
  CliOptions O;
  ASSERT_TRUE(parseOk({"--heap-snapshot=/tmp/s.json", "-e", "1"}, O));
  EXPECT_TRUE(O.HeapProfile);
  EXPECT_EQ(O.HeapSnapshotPath, "/tmp/s.json");

  CliOptions O2;
  ASSERT_TRUE(parseOk({"--retainers=7", "-e", "1"}, O2));
  EXPECT_TRUE(O2.HeapProfile);
  EXPECT_EQ(O2.Retainers, 7u);
}

TEST(Cli, RejectsUnknownFlagAndMissingValue) {
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  EXPECT_FALSE(parseCli({"--bogus"}, O, Err, HelpOnly));
  EXPECT_NE(Err.find("--bogus"), std::string::npos) << Err;

  Err.clear();
  EXPECT_FALSE(parseCli({"-e"}, O, Err, HelpOnly));
  EXPECT_FALSE(Err.empty());
}

TEST(Cli, HelpRequestsUsage) {
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  EXPECT_TRUE(parseCli({"--help"}, O, Err, HelpOnly));
  EXPECT_TRUE(HelpOnly);
}

TEST(Cli, DispatchAndFastPathFlagsParse) {
  CliOptions O;
  ASSERT_TRUE(parseOk({"--dispatch=switch", "--no-fuse", "--float-tag=box",
                       "--no-tailcall", "-e", "1"},
                      O));
  EXPECT_EQ(O.Dispatch, DispatchMode::Switch);
  EXPECT_FALSE(O.Fuse);
  EXPECT_FALSE(O.FloatSelfTag);
  EXPECT_FALSE(O.TailCalls);

  // Defaults: auto dispatch, fusion, self-tagging and tail calls on.
  CliOptions O2;
  ASSERT_TRUE(parseOk({"-e", "1"}, O2));
  EXPECT_EQ(O2.Dispatch, DispatchMode::Auto);
  EXPECT_TRUE(O2.Fuse);
  EXPECT_TRUE(O2.FloatSelfTag);
  EXPECT_TRUE(O2.TailCalls);

  // Bad values are usage errors naming the valid spellings.
  std::string Err;
  bool HelpOnly = false;
  CliOptions O3;
  EXPECT_FALSE(parseCli({"--dispatch=goto", "-e", "1"}, O3, Err, HelpOnly));
  EXPECT_NE(Err.find("threaded | switch"), std::string::npos) << Err;
  CliOptions O4;
  EXPECT_FALSE(parseCli({"--float-tag=nan", "-e", "1"}, O4, Err, HelpOnly));
  EXPECT_NE(Err.find("self | box"), std::string::npos) << Err;
}

TEST(Cli, ExplicitThreadedDispatchChecksAvailability) {
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  bool Ok = parseCli({"--dispatch=threaded", "-e", "1"}, O, Err, HelpOnly);
  if (Vm::threadedDispatchAvailable()) {
    EXPECT_TRUE(Ok) << Err;
    EXPECT_EQ(O.Dispatch, DispatchMode::Threaded);
  } else {
    EXPECT_FALSE(Ok);
    EXPECT_NE(Err.find("threaded"), std::string::npos) << Err;
  }
}

TEST(Cli, DispatchConfigurationsAgreeEndToEnd) {
  // The same program through the CLI under every user-reachable fast-path
  // configuration exits 0 — counter equality is pinned by the dispatch
  // test suite; this pins the flag plumbing into runTfgc.
  for (const char *Flag : {"--dispatch=switch", "--no-fuse",
                           "--float-tag=box", "--no-tailcall"}) {
    CliOptions O;
    ASSERT_TRUE(parseOk({Flag, "--strategy=tagged", "--verify", "--stress",
                         "--heap=16384", "-e", wl::floatKernel(12, 4)},
                        O));
    EXPECT_EQ(runTfgc(O), 0) << Flag;
  }
}

TEST(Cli, ExitCodeZeroOnSuccess) {
  CliOptions O;
  ASSERT_TRUE(parseOk({"-e", "let val x = 20 in x + 22 end"}, O));
  EXPECT_EQ(runTfgc(O), 0);
}

TEST(Cli, ExitCodeOneOnCompileError) {
  CliOptions O;
  ASSERT_TRUE(parseOk({"-e", "let val x = in x end"}, O));
  EXPECT_EQ(runTfgc(O), 1);
}

TEST(Cli, VerifyViolationExitsThreeAndStillFlushesArtifacts) {
  // The satellite guarantee: a failing verify run must not lose its
  // diagnostics. Force violations with the injection hook and require the
  // trace, stats JSON, and heap snapshot to be complete on disk even
  // though the process exits non-zero.
  std::string Trace = tmpPath("trace.json");
  std::string StatsJson = tmpPath("stats.json");
  std::string Snap = tmpPath("snap.json");
  std::remove(Trace.c_str());
  std::remove(StatsJson.c_str());
  std::remove(Snap.c_str());

  CliOptions O;
  ASSERT_TRUE(parseOk({"--stress", "--heap=16384", "--verify",
                       "--inject-verify-violation",
                       "--trace-out=" + Trace, "--stats-json=" + StatsJson,
                       "--heap-snapshot=" + Snap, "-e",
                       wl::listChurn(20, 3)},
                      O));
  EXPECT_EQ(runTfgc(O), 3);

  std::string TraceDoc = slurp(Trace);
  EXPECT_NE(TraceDoc.find("traceEvents"), std::string::npos) << Trace;
  std::string StatsDoc = slurp(StatsJson);
  EXPECT_NE(StatsDoc.find("gc.collections"), std::string::npos)
      << StatsJson;
  EXPECT_NE(StatsDoc.find("gc.verify_violations"), std::string::npos)
      << StatsJson;
  std::string SnapDoc = slurp(Snap);
  EXPECT_NE(SnapDoc.find("tfgc-heap-profile"), std::string::npos) << Snap;
  EXPECT_NE(SnapDoc.find("\"valid\": true"), std::string::npos) << Snap;

  std::remove(Trace.c_str());
  std::remove(StatsJson.c_str());
  std::remove(Snap.c_str());
}

TEST(Cli, UnwritableArtifactStillWritesTheOthers) {
  // One artifact that cannot be opened must not cost the others: every
  // artifact is attempted, the program's value is still printed, and
  // only then does the run exit 2.
  std::string StatsJson = tmpPath("flush_stats.json");
  std::string Snap = tmpPath("flush_snap.json");
  std::remove(StatsJson.c_str());
  std::remove(Snap.c_str());

  CliOptions O;
  ASSERT_TRUE(parseOk({"--stress", "--heap=16384",
                       "--metrics-out=" + tmpPath("no_such_dir/m.prom"),
                       "--stats-json=" + StatsJson, "--heap-snapshot=" + Snap,
                       "-e", wl::listChurn(20, 3)},
                      O));
  EXPECT_EQ(runTfgc(O), 2);

  std::string StatsDoc = slurp(StatsJson);
  EXPECT_TRUE(validJson(StatsDoc)) << StatsJson;
  EXPECT_NE(StatsDoc.find("gc.collections"), std::string::npos) << StatsJson;
  std::string SnapDoc = slurp(Snap);
  EXPECT_TRUE(validJson(SnapDoc)) << Snap;
  EXPECT_NE(SnapDoc.find("\"valid\": true"), std::string::npos) << Snap;
  std::remove(StatsJson.c_str());
  std::remove(Snap.c_str());
}

TEST(Cli, MalformedNumbersAreUsageErrors) {
  // Every numeric flag takes digits only, in range: a suffix, a sign, a
  // radix prefix or an overflow is a usage error naming the flag (exit 2
  // in tools/tfgc.cpp), never a silently truncated value. Each row is
  // otherwise valid, companion flags included.
  const std::string Out = tmpPath("unused");
  const std::vector<std::vector<std::string>> Rows = {
      {"--heap=64k"},
      {"--heap=18446744073709551616"},
      {"--nursery-bytes=1e3"},
      {"--retainers=-1"},
      {"--monitor-period-ms=5ms", "--monitor-out=" + Out},
      {"--monitor-sample-steps=abc"},
      {"--serve=abc"},
      {"--serve-linger-ms=+5", "--serve=0"},
      {"--flight-buffer-kb=0x10", "--flight-out=" + Out},
      {"--threads=2.0"},
      {"--heap-dump-every=", "--heap-dump=" + Out},
  };
  for (const std::vector<std::string> &Row : Rows) {
    std::vector<std::string> Args = Row;
    Args.insert(Args.end(), {"-e", "1"});
    CliOptions O;
    std::string Err;
    bool HelpOnly = false;
    EXPECT_FALSE(parseCli(Args, O, Err, HelpOnly)) << Row[0];
    std::string Flag = Row[0].substr(0, Row[0].find('='));
    EXPECT_EQ(Err.rfind(Flag + ":", 0), 0u) << Row[0] << " -> " << Err;
  }

  // Values accepted before keep their meaning.
  CliOptions O;
  ASSERT_TRUE(parseOk({"--heap=0", "--nursery-bytes=4096", "--retainers=0",
                       "--monitor-sample-steps=0", "--serve=65535",
                       "--serve-linger-ms=0", "-e", "1"},
                      O));
  EXPECT_EQ(O.HeapBytes, 0u);
  EXPECT_EQ(O.NurseryBytes, 4096u);
  EXPECT_TRUE(O.HeapProfile);
  EXPECT_EQ(O.MonitorSampleSteps, 0u);
  EXPECT_EQ(O.ServePort, 65535);
  CliOptions O2;
  ASSERT_TRUE(parseOk({"--threads=256", "-e", "1"}, O2));
  EXPECT_EQ(O2.Threads, 256u);
}

TEST(Cli, MonitorFlagsParseAndImplyMonitor) {
  CliOptions O;
  ASSERT_TRUE(parseOk({"--monitor-out=/tmp/m.jsonl", "--monitor-period-ms=5",
                       "--monitor-sample-steps=256", "-e", "1"},
                      O));
  EXPECT_TRUE(O.Monitor);
  EXPECT_EQ(O.MonitorOutPath, "/tmp/m.jsonl");
  EXPECT_EQ(O.MonitorPeriodMs, 5u);
  EXPECT_EQ(O.MonitorSampleSteps, 256u);

  // --monitor alone turns on in-process monitoring without a stream.
  CliOptions O2;
  ASSERT_TRUE(parseOk({"--monitor", "-e", "1"}, O2));
  EXPECT_TRUE(O2.Monitor);
  EXPECT_TRUE(O2.MonitorOutPath.empty());
}

TEST(Cli, MonitorPeriodWithoutOutIsUsageError) {
  // A heartbeat period with nowhere to stream is a contradiction the
  // parser rejects; tools/tfgc.cpp maps that to exit code 2.
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  EXPECT_FALSE(parseCli({"--monitor-period-ms=5", "-e", "1"}, O, Err,
                        HelpOnly));
  EXPECT_NE(Err.find("--monitor-out"), std::string::npos) << Err;
}

TEST(Cli, MonitorRunEmitsCheckableStreamAndStats) {
  std::string Mon = tmpPath("mon.jsonl");
  std::string StatsJson = tmpPath("mon_stats.json");
  std::remove(Mon.c_str());
  std::remove(StatsJson.c_str());

  CliOptions O;
  ASSERT_TRUE(parseOk({"--heap=32768", "--monitor-out=" + Mon,
                       "--monitor-period-ms=1", "--monitor-sample-steps=64",
                       "--stats-json=" + StatsJson, "-e",
                       wl::listChurn(40, 8)},
                      O));
  EXPECT_EQ(runTfgc(O), 0);

  std::string Doc = slurp(Mon);
  EXPECT_NE(Doc.find("\"tool\": \"tfgc-monitor\""), std::string::npos) << Mon;
  EXPECT_NE(Doc.find("\"type\": \"summary\""), std::string::npos) << Mon;
  // Every line of the stream is syntactically valid JSON.
  std::istringstream In(Doc);
  std::string Line;
  while (std::getline(In, Line))
    EXPECT_TRUE(validJson(Line)) << Line.substr(0, 200);
  // The monitor's counters surface in the stats JSON artifact.
  std::string StatsDoc = slurp(StatsJson);
  EXPECT_NE(StatsDoc.find("mon.samples"), std::string::npos) << StatsJson;
  EXPECT_NE(StatsDoc.find("mon.mmu_10ms_ppm"), std::string::npos)
      << StatsJson;

  std::remove(Mon.c_str());
  std::remove(StatsJson.c_str());
}

TEST(Cli, VerifyCleanRunExitsZero) {
  CliOptions O;
  ASSERT_TRUE(parseOk({"--stress", "--heap=16384", "--verify", "-e",
                       wl::listChurn(20, 3)},
                      O));
  EXPECT_EQ(runTfgc(O), 0);
}

} // namespace
