//===- driver/Session.cpp -------------------------------------------------===//

#include "driver/Session.h"

#include "sched/ThreadedTasking.h"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

using namespace tfgc;

namespace {

std::vector<std::string> functionNames(const CompiledProgram &P) {
  std::vector<std::string> Names;
  Names.reserve(P.Prog.Functions.size());
  for (const IrFunction &F : P.Prog.Functions)
    Names.push_back(F.Name);
  return Names;
}

Monitor::Options monitorOptions(const CliOptions &O) {
  Monitor::Options MO;
  MO.SamplePeriodSteps = O.MonitorSampleSteps;
  if (O.MonitorPeriodMs)
    MO.HeartbeatPeriodMs = O.MonitorPeriodMs;
  return MO;
}

} // namespace

CompileOptions tfgc::sessionCompileOptions(const CliOptions &O) {
  CompileOptions CO = O.Compile;
  if (O.Threads >= 1)
    CO.TaskingSafe = true;
  return CO;
}

Session::Session(CompiledProgram &P, const CliOptions &O)
    : P(P), O(O),
      WantEpochs(O.ServePort >= 0 || !O.MetricsOutPath.empty()),
      Mon(monitorOptions(O)) {}

int Session::open() {
  std::string Error;
  auto CannotOpen = [&Error](const std::string &Path) {
    std::fprintf(stderr, "cannot open '%s'%s%s\n", Path.c_str(),
                 Error.empty() ? "" : ": ", Error.c_str());
    return 2;
  };
  if (O.Threads >= 1 && !P.Options.TaskingSafe) {
    std::fprintf(stderr, "--threads needs a tasking-safe compilation\n");
    return 1;
  }
  Col = P.makeCollector(O.Strategy, O.Algo, O.HeapBytes, St, &Error,
                        O.NurseryBytes);
  if (!Col) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }
  Col->setVerifyAfterGc(O.Verify);
  Col->setInjectVerifyViolation(O.InjectVerifyViolation);
  std::string Label = std::string(gcStrategyName(O.Strategy)) + "/" +
                      gcAlgorithmName(O.Algo);

  if (O.HeapProfile) {
    // Attach before any VM exists so every allocation is attributed: the
    // code image's allocation-site table, the function names, and the
    // strategy's header convention.
    Prof.setEnabled(true);
    std::vector<AllocSiteDesc> Sites;
    Sites.reserve(P.Image.allocSites().size());
    for (const AllocSiteDebug &D : P.Image.allocSites())
      Sites.push_back({D.Func, D.Line, D.Col, D.TypeStr});
    Prof.setSites(std::move(Sites));
    Prof.setFunctionNames(functionNames(P));
    Prof.setTaggedHeaders(O.Strategy == GcStrategy::Tagged);
    Col->setHeapProfiler(&Prof);
    // --retainers and --heap-dump both read the graph capture; with
    // neither (and no sink added) it never fires.
    Prof.setHeapGraph(&Graph);
    Prof.setRetainers(O.Retainers);
    Prof.setLabel(Label);
  }
  if (O.HeapDumpEvery)
    Graph.setEvery(O.HeapDumpEvery);
  if (!O.HeapDumpPath.empty() && !Graph.openFile(O.HeapDumpPath, &Error))
    return CannotOpen(O.HeapDumpPath);

  if (O.Monitor) {
    // The VM arms its sample fuel at construction, so this precedes run().
    Mon.setLabel(Label);
    Mon.setStats(&St);
    Mon.setFunctionNames(functionNames(P));
    Col->setMonitor(&Mon);
    if (!O.MonitorOutPath.empty()) {
      MonOut.open(O.MonitorOutPath);
      if (!MonOut)
        return CannotOpen(O.MonitorOutPath);
      Mon.setStream(&MonOut);
    }
  }

  // Epoch aggregation + live introspection. Both are pure additions over
  // the sharded Stats: with neither --serve nor --metrics-out, no
  // aggregator is attached and no fold ever runs.
  if (WantEpochs) {
    Agg.attachStats(&St);
    Agg.setLabel(Label);
    Col->setEpochAggregator(&Agg);
    if (O.Monitor)
      Mon.setAggregator(&Agg);
    if (O.HeapProfile)
      Agg.setSnapshotProvider([this] {
        std::ostringstream SS;
        Prof.writeSnapshotJson(SS);
        return SS.str();
      });
    if (O.ServePort >= 0) {
      Port = Srv.start((uint16_t)O.ServePort, Error);
      if (!Port) {
        std::fprintf(stderr, "cannot start introspection server: %s\n",
                     Error.c_str());
        return 2;
      }
      Agg.attachServer(&Srv);
    }
    // Epoch 1: the world trivially stopped before any mutator ran, so
    // /metrics answers coherently from the first scrape on.
    Agg.fold(SafepointKind::Startup);
  }

  // Flight recorder: per-thread rings for the N tasks (one for the
  // sequential VM), the GC ring, and one ring per parallel trace worker.
  if (!O.FlightOutPath.empty()) {
    Flight = std::make_unique<FlightRecorder>(
        O.Threads ? O.Threads : 1, std::max(1u, O.Threads),
        O.FlightBufferKb ? O.FlightBufferKb : 64);
    if (!Flight->openFile(O.FlightOutPath, Error))
      return CannotOpen(O.FlightOutPath);
    Col->setFlightRecorder(Flight.get());
    if (O.ServePort >= 0)
      Flight->setChunkSink(
          [this](const std::string &Chunk) { Srv.publishFlightRecord(Chunk); });
  }
  // /heapdump mirrors /flightrecord: each captured graph chunk is also
  // pushed to the server as a standalone decodable body.
  if (!O.HeapDumpPath.empty() && O.ServePort >= 0)
    Graph.setChunkSink(
        [this](const std::string &Chunk) { Srv.publishHeapDump(Chunk); });

  Telemetry &Tel = Col->telemetry();
  Tel.setLabel(gcStrategyName(O.Strategy));
  if (O.GcLog)
    Tel.setLogStream(stderr);
  if (!O.TraceOutPath.empty()) {
    TraceOut.open(O.TraceOutPath);
    if (!TraceOut)
      return CannotOpen(O.TraceOutPath);
    if (O.Threads)
      Tel.declareThreads(O.Threads);
    Tel.beginTrace(TraceOut);
  }

  // N OS-thread tasks get an N-way parallel tracer.
  if (O.Threads >= 2)
    Col->setGcThreads(O.Threads);
  return 0;
}

RunResult Session::run() {
  if (O.Threads == 0) {
    VmOptions VO = defaultVmOptions(O.Strategy, O.Stress);
    VO.Dispatch = O.Dispatch;
    VO.FuseSuperinstructions = O.Fuse;
    VO.FloatSelfTag = O.FloatSelfTag;
    VO.TailCalls = O.TailCalls;
    if (Flight) {
      // The sequential VM is "task 0" on its own timeline: ring 0 takes
      // its start/exit bracket and GC requests; the GC ring (fed by the
      // telemetry mirror) carries the collections between them.
      VO.Flight = &Flight->taskRing(0);
      VO.Flight->record(FlightEventType::ThreadStart);
    }
    RunResult R = Vm(P.Prog, P.Image, *P.Types, *Col, VO).run();
    if (Flight)
      Flight->taskRing(0).record(FlightEventType::ThreadExit);
    return R;
  }
  FuncId Main = P.Prog.MainId;
  if (Main == InvalidFunc || P.Prog.fn(Main).NumParams != 0) {
    RunResult R;
    R.Error = "--threads requires a zero-argument main";
    return R;
  }
  return runTasks(std::vector<TaskSpawn>(O.Threads, TaskSpawn{Main, {}}));
}

RunResult Session::runTasks(const std::vector<TaskSpawn> &Tasks) {
  RunResult R;
  auto RunAll = [&](auto &Rt) {
    for (const TaskSpawn &T : Tasks)
      Rt.spawnInt(T.Entry, T.Args);
    R.Ok = Rt.runAll();
    for (const TaskResult &TR : Rt.results()) {
      R.Output += TR.Output;
      if (!TR.Ok && R.Error.empty())
        R.Error = TR.Error;
    }
    if (R.Ok && !Rt.results().empty())
      R.Value = Rt.results().front().Value;
  };
  if (O.Threads == 1) {
    TaskingRuntime Rt(P.Prog, P.Image, *P.Types, *Col, taskingOptions());
    RunAll(Rt);
  } else {
    ThreadedRuntime Rt(P.Prog, P.Image, *P.Types, *Col, taskingOptions());
    RunAll(Rt);
  }
  return R;
}

TaskingOptions Session::taskingOptions() const {
  TaskingOptions TO;
  TO.Dispatch = O.Dispatch;
  TO.FuseSuperinstructions = O.Fuse;
  TO.FloatSelfTag = O.FloatSelfTag;
  TO.TailCalls = O.TailCalls;
  if (O.Threads >= 2)
    TO.Flight = Flight.get();
  return TO;
}

bool Session::finish() {
  // Streams close first, then the final epoch: folded after the VM
  // flushed its counters and the monitor finished, so it is bit-identical
  // to the stats JSON written below (both read the same quiescent state).
  if (!O.TraceOutPath.empty()) {
    Col->telemetry().endTrace();
    TraceOut.close();
  }
  if (Flight)
    Flight->finish();
  if (!O.HeapDumpPath.empty())
    Graph.finish();
  if (O.Monitor) {
    Mon.finish();
    if (MonOut.is_open())
      MonOut.close();
  }
  if (WantEpochs)
    Agg.fold(SafepointKind::RunEnd);

  bool Ok = true;
  auto Write = [&](const std::string &Path, const auto &Emit) {
    if (Path.empty())
      return;
    std::ofstream Out(Path);
    if (!Out) {
      std::fprintf(stderr, "cannot open '%s'\n", Path.c_str());
      Ok = false;
      return;
    }
    Emit(Out);
  };
  Write(O.MetricsOutPath,
        [&](std::ostream &OS) { OS << Agg.renderPrometheus(); });
  Write(O.StatsJsonPath, [&](std::ostream &OS) {
    Col->telemetry().writeStatsJson(OS, St);
  });
  Write(O.HeapSnapshotPath,
        [&](std::ostream &OS) { Prof.writeSnapshotJson(OS); });
  // With everything written and the final epoch published, optionally
  // keep the server up so external scrapers can pull end-of-run totals.
  if (O.ServePort >= 0 && O.ServeLingerMs)
    std::this_thread::sleep_for(std::chrono::milliseconds(O.ServeLingerMs));
  return Ok;
}
