//===- driver/Cli.cpp -----------------------------------------------------===//

#include "driver/Cli.h"

#include "ir/Ir.h"
#include "sched/ThreadedTasking.h"
#include "support/Epoch.h"
#include "support/FlightRecorder.h"
#include "support/HeapGraph.h"
#include "support/Introspect.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

using namespace tfgc;

const std::vector<CliFlag> &tfgc::cliFlags() {
  static const std::vector<CliFlag> Flags = {
      {"--strategy", true,
       "tagged | compiled (default) | interpreted | appel"},
      {"--algo", true, "copying (default) | marksweep | generational"},
      {"--heap", true, "initial heap size in bytes (default 1 MiB)"},
      {"--nursery-bytes", true,
       "generational: nursery size carved out of the heap (default heap/8)"},
      {"--stress", false, "collect at every allocation"},
      {"--threads", true,
       "run main as N tasks sharing the heap: 1 = the cooperative "
       "scheduler, >=2 = one OS thread per task with per-thread TLABs and "
       "parallel GC tracing (default: the sequential VM)"},
      {"--dispatch", true,
       "threaded (default where available) | switch: VM dispatch loop"},
      {"--no-fuse", false, "disable superinstruction fusion in the VM"},
      {"--no-tailcall", false,
       "disable frame reuse for self-recursive tail calls"},
      {"--float-tag", true,
       "self (default) | box: float representation under --strategy=tagged"},
      {"--no-liveness", false,
       "disable the live-variable analysis (paper 5.2)"},
      {"--no-gcpoints", false, "disable the GC-point analysis (paper 5.1)"},
      {"--mono", false, "reject polymorphic programs"},
      {"--monomorphise", false,
       "clone polymorphic functions per ground instantiation"},
      {"--gloger-dummies", false,
       "bind unreconstructible type parameters to const_gc (Goldberg & "
       "Gloger '92)"},
      {"--dump-ir", false, "print the lowered IR and exit"},
      {"--dump-meta", false, "print GC metadata statistics and exit"},
      {"--stats", false, "print collector statistics after the run"},
      {"--gc-log", false, "one structured log line per collection (stderr)"},
      {"--trace-out", true,
       "write a Chrome trace_event JSON of every collection (flushed per "
       "event)"},
      {"--verify", false,
       "re-trace read-only after every collection; exit 3 on violations"},
      {"--inject-verify-violation", false,
       "testing: make every verify pass report one artificial violation"},
      {"--stats-json", true,
       "write counters, pause/phase histograms, and the heap census as "
       "JSON"},
      {"--heap-profile", false,
       "profile allocations by site and type (tag-free: no headers added)"},
      {"--heap-snapshot", true,
       "write the last collection's typed heap snapshot as JSON (implies "
       "--heap-profile)"},
      {"--retainers", true,
       "report the top-N retainers by retained size after full/major "
       "collections (implies --heap-profile)"},
      {"--heap-dump", true,
       "stream typed heap-graph dumps (nodes, edges, roots, lifetimes) at "
       "full/major collections to FILE (implies --heap-profile; decode "
       "with tools/heap_graph_report.py)"},
      {"--heap-dump-every", true,
       "capture every Nth eligible collection (default 1; requires "
       "--heap-dump)"},
      {"--monitor", false,
       "mutator-side monitor: sampling profiler + MMU/utilization "
       "tracking"},
      {"--monitor-out", true,
       "stream schema-versioned JSONL heartbeats and a final summary "
       "(implies --monitor; render with tools/monitor_report.py)"},
      {"--monitor-period-ms", true,
       "heartbeat period for --monitor-out (default 50; requires "
       "--monitor-out)"},
      {"--monitor-sample-steps", true,
       "VM steps between profiler samples (default 512; implies "
       "--monitor)"},
      {"--serve", true,
       "live introspection HTTP server on 127.0.0.1:PORT (/metrics, "
       "/snapshot, /heartbeat, /flightrecord, /heapdump, /healthz; 0 "
       "picks a free port, printed to stderr)"},
      {"--serve-linger-ms", true,
       "keep serving the final epoch for MS ms after the run ends "
       "(requires --serve)"},
      {"--metrics-out", true,
       "write the final epoch as Prometheus text (flushed on abnormal "
       "exit like the other artifacts)"},
      {"--flight-out", true,
       "always-on binary flight recorder: per-thread timelines of "
       "safepoint handshakes, TLAB refills, VM polls and GC phases "
       "(decode with tools/flight_report.py)"},
      {"--flight-buffer-kb", true,
       "per-thread flight ring size in KiB (default 64; requires "
       "--flight-out)"},
      {"-e", true, "run inline source (the next argument is the program)"},
      {"--help", false, "print this help"},
      {"-h", false, "print this help"},
  };
  return Flags;
}

std::string tfgc::usageText() {
  std::string U = "usage: tfgc [options] file.mml | -e 'expr'\n";
  for (const CliFlag &F : cliFlags()) {
    std::string Left = "  ";
    Left += F.Name;
    if (F.HasValue && std::strcmp(F.Name, "-e") != 0)
      Left += "=VALUE";
    while (Left.size() < 30)
      Left += ' ';
    U += Left;
    U += F.Help;
    U += '\n';
  }
  return U;
}

namespace {

const CliFlag *findFlag(const std::string &Arg, std::string &Value) {
  for (const CliFlag &F : cliFlags()) {
    if (!F.HasValue || !std::strcmp(F.Name, "-e")) {
      if (Arg == F.Name)
        return &F;
      continue;
    }
    std::string Prefix = std::string(F.Name) + "=";
    if (Arg.compare(0, Prefix.size(), Prefix) == 0) {
      Value = Arg.substr(Prefix.size());
      return &F;
    }
  }
  return nullptr;
}

} // namespace

bool tfgc::parseCli(const std::vector<std::string> &Args, CliOptions &O,
                    std::string &Err, bool &HelpOnly) {
  HelpOnly = false;
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg.empty())
      continue;
    if (Arg[0] != '-') {
      std::ifstream In(Arg);
      if (!In) {
        Err = "cannot open '" + Arg + "'";
        return false;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      O.Source = Buf.str();
      O.HaveSource = true;
      continue;
    }
    std::string Value;
    const CliFlag *F = findFlag(Arg, Value);
    if (!F) {
      Err = "unknown option '" + Arg + "'";
      return false;
    }
    std::string Name = F->Name;
    if (Name == "--strategy") {
      if (Value == "tagged")
        O.Strategy = GcStrategy::Tagged;
      else if (Value == "compiled")
        O.Strategy = GcStrategy::CompiledTagFree;
      else if (Value == "interpreted")
        O.Strategy = GcStrategy::InterpretedTagFree;
      else if (Value == "appel")
        O.Strategy = GcStrategy::AppelTagFree;
      else {
        Err = "unknown strategy '" + Value + "'";
        return false;
      }
    } else if (Name == "--algo") {
      if (Value == "copying")
        O.Algo = GcAlgorithm::Copying;
      else if (Value == "marksweep")
        O.Algo = GcAlgorithm::MarkSweep;
      else if (Value == "generational")
        O.Algo = GcAlgorithm::Generational;
      else {
        Err = "unknown algorithm '" + Value +
              "' (valid: copying | marksweep | generational)";
        return false;
      }
    } else if (Name == "--heap") {
      O.HeapBytes = (size_t)std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Name == "--nursery-bytes") {
      O.NurseryBytes = (size_t)std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Name == "--stress") {
      O.Stress = true;
    } else if (Name == "--threads") {
      char *EndP = nullptr;
      unsigned long N = std::strtoul(Value.c_str(), &EndP, 10);
      if (Value.empty() || (EndP && *EndP) || N > 256) {
        Err = "--threads: '" + Value + "' is not a thread count (0-256)";
        return false;
      }
      O.Threads = (unsigned)N;
    } else if (Name == "--dispatch") {
      if (Value == "threaded")
        O.Dispatch = DispatchMode::Threaded;
      else if (Value == "switch")
        O.Dispatch = DispatchMode::Switch;
      else {
        Err = "unknown dispatch mode '" + Value +
              "' (valid: threaded | switch)";
        return false;
      }
    } else if (Name == "--no-fuse") {
      O.Fuse = false;
    } else if (Name == "--no-tailcall") {
      O.TailCalls = false;
    } else if (Name == "--float-tag") {
      if (Value == "self")
        O.FloatSelfTag = true;
      else if (Value == "box")
        O.FloatSelfTag = false;
      else {
        Err = "unknown float representation '" + Value +
              "' (valid: self | box)";
        return false;
      }
    } else if (Name == "--no-liveness") {
      O.Compile.UseLiveness = false;
    } else if (Name == "--no-gcpoints") {
      O.Compile.UseGcPointAnalysis = false;
    } else if (Name == "--mono") {
      O.Compile.RequireMonomorphic = true;
    } else if (Name == "--monomorphise") {
      O.Compile.Monomorphise = true;
    } else if (Name == "--gloger-dummies") {
      O.Compile.GlogerDummies = true;
    } else if (Name == "--dump-ir") {
      O.DumpIr = true;
    } else if (Name == "--dump-meta") {
      O.DumpMeta = true;
    } else if (Name == "--stats") {
      O.ShowStats = true;
    } else if (Name == "--gc-log") {
      O.GcLog = true;
    } else if (Name == "--trace-out") {
      O.TraceOutPath = Value;
    } else if (Name == "--verify") {
      O.Verify = true;
    } else if (Name == "--inject-verify-violation") {
      O.InjectVerifyViolation = true;
    } else if (Name == "--stats-json") {
      O.StatsJsonPath = Value;
    } else if (Name == "--heap-profile") {
      O.HeapProfile = true;
    } else if (Name == "--heap-snapshot") {
      O.HeapSnapshotPath = Value;
      O.HeapProfile = true;
    } else if (Name == "--retainers") {
      O.Retainers = (unsigned)std::strtoul(Value.c_str(), nullptr, 10);
      O.HeapProfile = true;
    } else if (Name == "--heap-dump") {
      O.HeapDumpPath = Value;
      O.HeapProfile = true;
    } else if (Name == "--heap-dump-every") {
      char *EndP = nullptr;
      unsigned long long N = std::strtoull(Value.c_str(), &EndP, 10);
      if (Value.empty() || (EndP && *EndP) || N == 0) {
        Err = "--heap-dump-every: '" + Value + "' is not a positive count";
        return false;
      }
      O.HeapDumpEvery = N;
    } else if (Name == "--monitor") {
      O.Monitor = true;
    } else if (Name == "--monitor-out") {
      O.MonitorOutPath = Value;
      O.Monitor = true;
    } else if (Name == "--monitor-period-ms") {
      O.MonitorPeriodMs = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Name == "--monitor-sample-steps") {
      O.MonitorSampleSteps = std::strtoull(Value.c_str(), nullptr, 10);
      O.Monitor = true;
    } else if (Name == "--serve") {
      unsigned long Port = std::strtoul(Value.c_str(), nullptr, 10);
      if (Port > 65535) {
        Err = "--serve: port '" + Value + "' out of range";
        return false;
      }
      O.ServePort = (int)Port;
    } else if (Name == "--serve-linger-ms") {
      O.ServeLingerMs = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Name == "--metrics-out") {
      O.MetricsOutPath = Value;
    } else if (Name == "--flight-out") {
      O.FlightOutPath = Value;
    } else if (Name == "--flight-buffer-kb") {
      O.FlightBufferKb = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Name == "-e") {
      if (++I >= Args.size()) {
        Err = "-e needs an argument";
        return false;
      }
      O.Source = Args[I];
      O.HaveSource = true;
    } else if (Name == "--help" || Name == "-h") {
      HelpOnly = true;
      return true;
    }
  }
  if (O.Dispatch == DispatchMode::Threaded &&
      !Vm::threadedDispatchAvailable()) {
    Err = "--dispatch=threaded is not available in this build (compiled "
          "with -DTFGC_THREADED_DISPATCH=OFF or without computed goto)";
    return false;
  }
  if (O.MonitorPeriodMs && O.MonitorOutPath.empty()) {
    Err = "--monitor-period-ms requires --monitor-out";
    return false;
  }
  if (O.Threads >= 1 && O.Stress) {
    Err = "--stress is not supported with --threads (tasking collections "
          "are coordinated at safepoints, never forced per allocation)";
    return false;
  }
  if (O.Threads >= 2 && O.Monitor) {
    Err = "--monitor requires --threads=1 or the sequential VM (heartbeat "
          "folds read the counter shards off the GC safepoint)";
    return false;
  }
  if (O.Threads >= 2 && O.HeapProfile) {
    Err = "--heap-profile/--heap-snapshot/--retainers/--heap-dump require "
          "--threads=1 or the sequential VM (the profiler's visit stream "
          "is serial)";
    return false;
  }
  if (O.HeapDumpEvery && O.HeapDumpPath.empty()) {
    Err = "--heap-dump-every requires --heap-dump";
    return false;
  }
  if (O.ServeLingerMs && O.ServePort < 0) {
    Err = "--serve-linger-ms requires --serve";
    return false;
  }
  if (O.FlightBufferKb && O.FlightOutPath.empty()) {
    Err = "--flight-buffer-kb requires --flight-out";
    return false;
  }
  if (!O.HaveSource) {
    Err = "no input program";
    return false;
  }
  return true;
}

int tfgc::runTfgc(const CliOptions &O) {
  CompileOptions CO = O.Compile;
  // Tasks suspend at arbitrary call sites, so the tasking paths need
  // gc_words everywhere and call arguments kept live (DESIGN.md).
  if (O.Threads >= 1)
    CO.TaskingSafe = true;
  Compiler C(CO);
  std::string Error;
  std::unique_ptr<CompiledProgram> P = C.compile(O.Source, &Error);
  if (!P) {
    std::fprintf(stderr, "%s", Error.c_str());
    return 1;
  }

  if (O.DumpIr) {
    std::printf("%s", printIr(P->Prog).c_str());
    return 0;
  }
  if (O.DumpMeta) {
    std::printf("functions:            %zu\n", P->Prog.Functions.size());
    std::printf("call sites:           %zu\n", P->Prog.Sites.size());
    std::printf("alloc sites:          %u\n", P->Prog.NumAllocSites);
    std::printf("gc_words omitted:     %zu\n", P->Image.omittedGcWords());
    std::printf("frame routines:       %zu (no_trace sites: %zu)\n",
                P->Compiled.numFrameRoutines(),
                P->Compiled.numNoTraceSites());
    std::printf("type routines:        %zu\n", P->Compiled.numTypeRoutines());
    std::printf("compiled metadata:    %zu bytes\n", P->Compiled.sizeBytes());
    std::printf("interpreted metadata: %zu bytes (%zu descriptors)\n",
                P->Interp->sizeBytes(),
                P->Interp->descriptors().numDescriptors());
    std::printf("appel metadata:       %zu bytes\n", P->Appel->sizeBytes());
    return 0;
  }

  Stats St;
  std::unique_ptr<Collector> Col = P->makeCollector(
      O.Strategy, O.Algo, O.HeapBytes, St, &Error, O.NurseryBytes);
  if (!Col) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }
  Col->setVerifyAfterGc(O.Verify);
  Col->setInjectVerifyViolation(O.InjectVerifyViolation);

  HeapProfiler Prof;
  HeapGraph Graph;
  if (O.HeapProfile) {
    attachHeapProfiler(*P, O.Strategy, *Col, Prof);
    // --retainers and --heap-dump both read the graph capture; without
    // either it never fires.
    Prof.setHeapGraph(&Graph);
    Prof.setRetainers(O.Retainers);
    Prof.setLabel(std::string(gcStrategyName(O.Strategy)) + "/" +
                  gcAlgorithmName(O.Algo));
  }
  if (!O.HeapDumpPath.empty()) {
    std::string GErr;
    if (!Graph.openFile(O.HeapDumpPath, &GErr)) {
      std::fprintf(stderr, "cannot open '%s': %s\n", O.HeapDumpPath.c_str(),
                   GErr.c_str());
      return 2;
    }
    Graph.setEvery(O.HeapDumpEvery ? O.HeapDumpEvery : 1);
  }

  Monitor::Options MonOpts;
  MonOpts.SamplePeriodSteps = O.MonitorSampleSteps;
  if (O.MonitorPeriodMs)
    MonOpts.HeartbeatPeriodMs = O.MonitorPeriodMs;
  Monitor Mon(MonOpts);
  std::ofstream MonOut;
  if (O.Monitor) {
    Mon.setLabel(std::string(gcStrategyName(O.Strategy)) + "/" +
                 gcAlgorithmName(O.Algo));
    Mon.setStats(&St);
    attachMonitor(*P, *Col, Mon);
    if (!O.MonitorOutPath.empty()) {
      MonOut.open(O.MonitorOutPath);
      if (!MonOut) {
        std::fprintf(stderr, "cannot open '%s'\n", O.MonitorOutPath.c_str());
        return 2;
      }
      Mon.setStream(&MonOut);
    }
  }

  // Epoch aggregation + live introspection. Both are pure additions over
  // the sharded Stats: with neither --serve nor --metrics-out, no
  // aggregator is attached and no fold ever runs.
  EpochAggregator Agg;
  IntrospectServer Srv;
  bool WantEpochs = O.ServePort >= 0 || !O.MetricsOutPath.empty();
  if (WantEpochs) {
    Agg.attachStats(&St);
    Agg.setLabel(std::string(gcStrategyName(O.Strategy)) + "/" +
                 gcAlgorithmName(O.Algo));
    Col->setEpochAggregator(&Agg);
    if (O.Monitor)
      Mon.setAggregator(&Agg);
    if (O.HeapProfile)
      Agg.setSnapshotProvider([&Prof] {
        std::ostringstream SS;
        Prof.writeSnapshotJson(SS);
        return SS.str();
      });
    if (O.ServePort >= 0) {
      std::string SrvErr;
      uint16_t Port = Srv.start((uint16_t)O.ServePort, SrvErr);
      if (!Port) {
        std::fprintf(stderr, "cannot start introspection server: %s\n",
                     SrvErr.c_str());
        return 2;
      }
      Agg.attachServer(&Srv);
      std::fprintf(stderr, "tfgc: serving introspection on 127.0.0.1:%u\n",
                   (unsigned)Port);
    }
    // Epoch 1: the world trivially stopped before any mutator ran, so
    // /metrics answers coherently from the first scrape on.
    Agg.fold(SafepointKind::Startup);
  }

  // Flight recorder: per-thread rings for the N tasks (one for the
  // sequential VM), the GC ring, and one ring per parallel trace worker.
  std::unique_ptr<FlightRecorder> Flight;
  if (!O.FlightOutPath.empty()) {
    unsigned NTasks = O.Threads ? O.Threads : 1;
    Flight = std::make_unique<FlightRecorder>(
        NTasks, std::max(1u, O.Threads),
        O.FlightBufferKb ? O.FlightBufferKb : 64);
    std::string FErr;
    if (!Flight->openFile(O.FlightOutPath, FErr)) {
      std::fprintf(stderr, "cannot open '%s': %s\n", O.FlightOutPath.c_str(),
                   FErr.c_str());
      return 2;
    }
    Col->setFlightRecorder(Flight.get());
    if (O.ServePort >= 0)
      Flight->setChunkSink(
          [&Srv](const std::string &Chunk) { Srv.publishFlightRecord(Chunk); });
  }
  // /heapdump mirrors /flightrecord: each captured graph chunk is also
  // pushed to the server as a standalone decodable body.
  if (!O.HeapDumpPath.empty() && O.ServePort >= 0)
    Graph.setChunkSink(
        [&Srv](const std::string &Chunk) { Srv.publishHeapDump(Chunk); });

  Telemetry &Tel = Col->telemetry();
  Tel.setLabel(gcStrategyName(O.Strategy));
  if (O.GcLog)
    Tel.setLogStream(stderr);
  std::ofstream TraceOut;
  if (!O.TraceOutPath.empty()) {
    TraceOut.open(O.TraceOutPath);
    if (!TraceOut) {
      std::fprintf(stderr, "cannot open '%s'\n", O.TraceOutPath.c_str());
      return 2;
    }
    if (O.Threads)
      Tel.declareThreads(O.Threads);
    Tel.beginTrace(TraceOut);
  }

  VmOptions VO = defaultVmOptions(O.Strategy, O.Stress);
  VO.Dispatch = O.Dispatch;
  VO.FuseSuperinstructions = O.Fuse;
  VO.FloatSelfTag = O.FloatSelfTag;
  VO.TailCalls = O.TailCalls;
  RunResult R;
  if (O.Threads == 0) {
    if (Flight) {
      // The sequential VM is "task 0" on its own timeline: ring 0 takes
      // its start/exit bracket and GC requests; the GC ring (fed by the
      // telemetry mirror) carries the collections between them.
      VO.Flight = &Flight->taskRing(0);
      VO.Flight->record(FlightEventType::ThreadStart);
    }
    Vm M(P->Prog, P->Image, *P->Types, *Col, VO);
    R = M.run();
    if (Flight)
      Flight->taskRing(0).record(FlightEventType::ThreadExit);
  } else {
    // --threads=N: run main as N tasks over the shared heap. N==1 keeps
    // the cooperative scheduler (the logical-counter reference); N>=2
    // puts each task on its own OS thread and sizes the parallel tracer
    // to match.
    FuncId Main = P->Prog.MainId;
    if (Main == InvalidFunc || P->Prog.fn(Main).NumParams != 0) {
      std::fprintf(stderr, "--threads requires a zero-argument main\n");
      return 1;
    }
    TaskingOptions TO;
    TO.ZeroFrames = VO.ZeroFrames;
    TO.Dispatch = O.Dispatch;
    TO.FuseSuperinstructions = O.Fuse;
    TO.FloatSelfTag = O.FloatSelfTag;
    TO.TailCalls = O.TailCalls;
    if (O.Threads >= 2)
      TO.Flight = Flight.get();
    auto RunTasks = [&](auto &Rt) {
      for (unsigned I = 0; I < O.Threads; ++I)
        Rt.spawnInt(Main, {});
      R.Ok = Rt.runAll();
      for (const TaskResult &TR : Rt.results()) {
        R.Output += TR.Output;
        if (!TR.Ok && R.Error.empty())
          R.Error = TR.Error;
      }
      if (R.Ok)
        R.Value = Rt.results().front().Value;
    };
    if (O.Threads == 1) {
      TaskingRuntime Rt(P->Prog, P->Image, *P->Types, *Col, TO);
      RunTasks(Rt);
    } else {
      Col->setGcThreads(O.Threads);
      ThreadedRuntime Rt(P->Prog, P->Image, *P->Types, *Col, TO);
      RunTasks(Rt);
    }
  }

  // Flush every requested diagnostic artifact *before* deciding the exit
  // code: a verify failure or uncaught runtime error must still leave the
  // trace, stats, and snapshot on disk for post-mortem analysis.
  if (!O.TraceOutPath.empty())
    Tel.endTrace();
  if (Flight)
    Flight->finish(); // Final drain + close; exit 3 below still gets it.
  if (!O.HeapDumpPath.empty())
    Graph.finish(); // Chunks are flushed per capture; this closes the file.
  if (O.Monitor)
    Mon.finish();
  // Final epoch: folded after the VM flushed its counters and the monitor
  // finished, so it is bit-identical to the --stats-json counters written
  // below (both read the same quiescent folded state).
  if (WantEpochs)
    Agg.fold(SafepointKind::RunEnd);
  if (!O.MetricsOutPath.empty()) {
    std::ofstream MetricsOut(O.MetricsOutPath);
    if (!MetricsOut) {
      std::fprintf(stderr, "cannot open '%s'\n", O.MetricsOutPath.c_str());
      return 2;
    }
    MetricsOut << Agg.renderPrometheus();
  }
  if (!O.StatsJsonPath.empty()) {
    std::ofstream JsonOut(O.StatsJsonPath);
    if (!JsonOut) {
      std::fprintf(stderr, "cannot open '%s'\n", O.StatsJsonPath.c_str());
      return 2;
    }
    Tel.writeStatsJson(JsonOut, St);
  }
  if (!O.HeapSnapshotPath.empty()) {
    std::ofstream SnapOut(O.HeapSnapshotPath);
    if (!SnapOut) {
      std::fprintf(stderr, "cannot open '%s'\n", O.HeapSnapshotPath.c_str());
      return 2;
    }
    Prof.writeSnapshotJson(SnapOut);
  }
  // With all artifacts flushed and the final epoch published, optionally
  // keep the server up so external scrapers can pull end-of-run totals.
  if (O.ServePort >= 0 && O.ServeLingerMs)
    std::this_thread::sleep_for(std::chrono::milliseconds(O.ServeLingerMs));

  if (!R.Output.empty())
    std::fputs(R.Output.c_str(), stdout);
  if (!R.Ok) {
    std::fprintf(stderr, "runtime error: %s\n", R.Error.c_str());
    return 1;
  }
  std::printf("%s\n", R.Value.c_str());
  if (O.ShowStats)
    std::fputs(St.render().c_str(), stderr);
  if (O.Monitor && O.ShowStats)
    std::fputs(Mon.renderSummary().c_str(), stderr);
  if (O.Verify && St.get(StatId::GcVerifyViolations) > 0) {
    std::fprintf(stderr, "verify: %llu violation(s) detected\n",
                 (unsigned long long)St.get(StatId::GcVerifyViolations));
    return 3;
  }
  return 0;
}
