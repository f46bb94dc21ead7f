//===- driver/Cli.cpp -----------------------------------------------------===//

#include "driver/Cli.h"

#include "driver/Session.h"
#include "ir/Ir.h"

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

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

/// Parses \p Value for flag \p Name as a decimal count in [Min, Max]:
/// digits only, so a sign, a suffix, or trailing text is an error rather
/// than a silently truncated number.
bool parseCount(const std::string &Name, const std::string &Value,
                uint64_t Min, uint64_t Max, const char *What, uint64_t &Out,
                std::string &Err) {
  bool Ok = !Value.empty() &&
            Value.find_first_not_of("0123456789") == std::string::npos;
  errno = 0;
  unsigned long long N = Ok ? std::strtoull(Value.c_str(), nullptr, 10) : 0;
  if (!Ok || errno == ERANGE || N < Min || N > Max) {
    Err = Name + ": '" + Value + "' is not " + What;
    return false;
  }
  Out = N;
  return true;
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
    uint64_t N = 0;
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
      if (!parseCount(Name, Value, 0, SIZE_MAX, "a byte count", N, Err))
        return false;
      O.HeapBytes = (size_t)N;
    } else if (Name == "--nursery-bytes") {
      if (!parseCount(Name, Value, 0, SIZE_MAX, "a byte count", N, Err))
        return false;
      O.NurseryBytes = (size_t)N;
    } else if (Name == "--stress") {
      O.Stress = true;
    } else if (Name == "--threads") {
      if (!parseCount(Name, Value, 0, 256, "a thread count (0-256)", N, Err))
        return false;
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
      if (!parseCount(Name, Value, 0, UINT_MAX, "a count", N, Err))
        return false;
      O.Retainers = (unsigned)N;
      O.HeapProfile = true;
    } else if (Name == "--heap-dump") {
      O.HeapDumpPath = Value;
      O.HeapProfile = true;
    } else if (Name == "--heap-dump-every") {
      if (!parseCount(Name, Value, 1, UINT64_MAX, "a positive count",
                      O.HeapDumpEvery, Err))
        return false;
    } else if (Name == "--monitor") {
      O.Monitor = true;
    } else if (Name == "--monitor-out") {
      O.MonitorOutPath = Value;
      O.Monitor = true;
    } else if (Name == "--monitor-period-ms") {
      if (!parseCount(Name, Value, 0, UINT64_MAX, "a period in ms",
                      O.MonitorPeriodMs, Err))
        return false;
    } else if (Name == "--monitor-sample-steps") {
      if (!parseCount(Name, Value, 0, UINT64_MAX, "a step count",
                      O.MonitorSampleSteps, Err))
        return false;
      O.Monitor = true;
    } else if (Name == "--serve") {
      if (!parseCount(Name, Value, 0, 65535, "a port (0-65535)", N, Err))
        return false;
      O.ServePort = (int)N;
    } else if (Name == "--serve-linger-ms") {
      if (!parseCount(Name, Value, 0, UINT64_MAX, "a duration in ms",
                      O.ServeLingerMs, Err))
        return false;
    } else if (Name == "--metrics-out") {
      O.MetricsOutPath = Value;
    } else if (Name == "--flight-out") {
      O.FlightOutPath = Value;
    } else if (Name == "--flight-buffer-kb") {
      if (!parseCount(Name, Value, 0, UINT64_MAX, "a size in KiB",
                      O.FlightBufferKb, Err))
        return false;
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
  std::string Error;
  std::unique_ptr<CompiledProgram> P =
      Compiler(sessionCompileOptions(O)).compile(O.Source, &Error);
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

  Session S(*P, O);
  if (int Rc = S.open())
    return Rc;
  if (O.ServePort >= 0)
    std::fprintf(stderr, "tfgc: serving introspection on 127.0.0.1:%u\n",
                 (unsigned)S.servePort());
  RunResult R = S.run();
  // Every artifact is written before the exit code is decided: a verify
  // failure, a runtime error or an unwritable artifact must still leave
  // the others on disk for post-mortem analysis.
  bool Written = S.finish();

  int Rc = 0;
  if (!R.Output.empty())
    std::fputs(R.Output.c_str(), stdout);
  if (!R.Ok) {
    std::fprintf(stderr, "runtime error: %s\n", R.Error.c_str());
    Rc = 1;
  } else {
    std::printf("%s\n", R.Value.c_str());
    if (O.ShowStats)
      std::fputs(S.stats().render().c_str(), stderr);
    if (O.Monitor && O.ShowStats)
      std::fputs(S.monitor().renderSummary().c_str(), stderr);
    uint64_t Violations = S.stats().get(StatId::GcVerifyViolations);
    if (O.Verify && Violations > 0) {
      std::fprintf(stderr, "verify: %llu violation(s) detected\n",
                   (unsigned long long)Violations);
      Rc = 3;
    }
  }
  return Written ? Rc : 2;
}
