//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
///
/// \file
/// Drives the library through its public API — Compiler::compile,
/// CompiledProgram::makeCollector, Vm and ThreadedRuntime — in a closed
/// loop with one job outstanding. A job is one complete program run:
/// create the collector, run to a result, check it against the oracle
/// (Workloads.h), free the collector. All jobs of a workload are
/// identical.
///
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             [--spans-out FILE]
///
/// --trace 0 measures the end-to-end metrics. --trace 1 is the traced
/// run: set-up stages and every job layer become spans (kept in memory,
/// written to --spans-out as Chrome trace JSON at exit), and every other
/// timed job runs untraced so the tracing overhead is measured in the same
/// run. Either way the last line of standard output is one JSON object
/// {"correct", "attempted", "failed", "metrics"}.
///
//===----------------------------------------------------------------------===//

#include "Percentile.h"
#include "Workloads.h"

#include "analysis/Liveness.h"
#include "driver/Compiler.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/Lower.h"
#include "ir/Verify.h"
#include "runtime/Value.h"
#include "sched/ThreadedTasking.h"
#include "types/Infer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace tfgc;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct MetricDef {
  const char *Name;
  const char *Unit;
  bool Traced; ///< Reported by --trace 1 (per-layer) instead of --trace 0.
};

/// Every metric the JSON line can carry, in output order; BENCHMARK.json
/// lists the same names and units (selftest.py checks a real run of each
/// mode against it).
const MetricDef MetricTable[] = {
    {"job_cpu_ms_p90", "ms", false},
    {"max_rss_mb", "MB", false},
    {"setup_s", "s", false},

    {"frontend.lex_ms", "ms", true},
    {"frontend.parse_ms", "ms", true},
    {"types.infer_ms", "ms", true},
    {"ir.lower_ms", "ms", true},
    {"analysis.liveness_ms", "ms", true},
    {"analysis.gcpoints_ms", "ms", true},
    {"analysis.reconstruct_ms", "ms", true},
    {"gcmeta.build_ms", "ms", true},
    {"gcmeta.bytes", "bytes", true},
    {"vm.decode_ms", "ms", true},
    {"vm.mutator_ms", "ms", true},
    {"vm.steps", "count", true},
    {"vm.ns_per_step", "ns", true},
    {"vm.superinstr_frac", "ratio", true},
    {"vm.alloc_words", "words", true},
    {"runtime.heap_init_ms", "ms", true},
    {"runtime.heap_free_ms", "ms", true},
    {"runtime.heap_mb", "MiB", true},
    {"runtime.heap_growths", "count", true},
    {"core.collections", "count", true},
    {"core.pause_ms", "ms", true},
    {"core.pause_frac", "ratio", true},
    {"core.pause_us_p50", "us", true},
    {"core.pause_us_p99", "us", true},
    {"core.root_scan_ms", "ms", true},
    {"core.ptr_reversal_ms", "ms", true},
    {"core.frame_dispatch_ms", "ms", true},
    {"core.tg_closure_build_ms", "ms", true},
    {"core.copy_sweep_ms", "ms", true},
    {"core.remset_scan_ms", "ms", true},
    {"core.words_visited", "words", true},
    {"core.trace_ns_per_word", "ns", true},
    {"core.survival_frac", "ratio", true},
    {"core.minor_collections", "count", true},
    {"core.major_collections", "count", true},
    {"core.minor_pause_us_p50", "us", true},
    {"core.major_pause_us_p50", "us", true},
    {"core.promoted_words", "words", true},
    {"core.barrier_ops", "count", true},
    {"core.remset_entries", "count", true},
    {"sched.run_ms", "ms", true},
    {"sched.world_stops", "count", true},
    {"sched.stop_delay_us_mean", "us", true},
    {"sched.tlab_refills", "count", true},
    {"sched.parallel_traces", "count", true},
    {"sched.stack_steals", "count", true},
};

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

/// Fails the run loudly when \p P has too few samples above its rank;
/// otherwise returns its sample counts for printing.
std::string checkedSamples(const char *Name, const Percentile &P) {
  if (P.Beyond < MinSamplesBeyond)
    die(std::string(Name) + ": only " + std::to_string(P.Beyond) + " of " +
        std::to_string(P.Samples) + " samples above the reported rank (need " +
        std::to_string(MinSamplesBeyond) + "); run longer");
  return "n=" + std::to_string(P.Samples) + ", " + std::to_string(P.Beyond) +
         " above";
}

/// Collected values plus their sample counts, printed and then emitted as
/// the JSON line in MetricTable order.
class Report {
public:
  void set(const char *Name, double Value, const std::string &Samples = "") {
    Values[Name] = {Value, Samples};
  }

  /// Sets \p Name from a percentile. \p AllowEmpty admits a percentile of
  /// a layer the workload does not have (reported as 0).
  void setPercentile(const char *Name, const Percentile &P,
                     bool AllowEmpty) {
    if (P.Samples == 0 && AllowEmpty)
      set(Name, 0, "n/a: no samples on this workload");
    else
      set(Name, P.Value, checkedSamples(Name, P));
  }

  /// A figure printed with the metrics but not part of the JSON line.
  void note(const char *Name, const std::string &Value, const char *Unit,
            const std::string &Samples) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "  %-26s %16s %-6s (%s)\n", Name,
                  Value.c_str(), Unit, Samples.c_str());
    Notes += Buf;
  }

  /// Prints every metric of the mode and the notes, then the JSON line.
  void emit(bool Traced, bool Correct, uint64_t Attempted, uint64_t Failed) {
    std::string Json = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(Attempted) +
                       ", \"failed\": " + std::to_string(Failed) +
                       ", \"metrics\": {";
    bool First = true;
    for (const MetricDef &M : MetricTable) {
      if (M.Traced != Traced)
        continue;
      auto It = Values.find(M.Name);
      if (It == Values.end())
        die(std::string("metric not computed: ") + M.Name);
      const auto &[Value, Samples] = It->second;
      std::printf("  %-26s %16.6f %-6s %s\n", M.Name, Value, M.Unit,
                  Samples.empty() ? "" : ("(" + Samples + ")").c_str());
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
      Json += std::string(First ? "" : ", ") + "\"" + M.Name +
              "\": {\"value\": " + Buf + ", \"unit\": \"" + M.Unit + "\"}";
      First = false;
    }
    Json += "}}";
    std::printf("%s%s\n", Notes.c_str(), Json.c_str());
  }

private:
  std::map<std::string, std::pair<double, std::string>> Values;
  std::string Notes;
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

uint64_t nowNs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), which leaves out the time
/// the hypervisor steals from the vCPUs.
uint64_t cpuNs() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return (uint64_t)T.tv_sec * 1000000000 + (uint64_t)T.tv_nsec;
}

struct Span {
  const char *Name;
  uint64_t StartNs;
  uint64_t EndNs;
  int64_t Parent; ///< Index into the log; -1 for a root.
  uint32_t Job;   ///< 0 for set-up spans; timed jobs count from 1.
};

/// The traced run's in-memory span store. Disabled, every call is a no-op
/// that returns -1, so untraced jobs take no extra clock reads.
class SpanLog {
public:
  explicit SpanLog(bool On) : On(On) {}

  bool on() const { return On; }
  int64_t begin(const char *Name, int64_t Parent, uint32_t Job) {
    return add(Name, On ? nowNs() : 0, 0, Parent, Job);
  }
  void end(int64_t I) {
    if (I >= 0)
      Spans[I].EndNs = nowNs();
  }
  int64_t add(const char *Name, uint64_t Start, uint64_t End, int64_t Parent,
              uint32_t Job) {
    if (!On)
      return -1;
    Spans.push_back({Name, Start, End, Parent, Job});
    return (int64_t)Spans.size() - 1;
  }
  uint64_t duration(int64_t I) const {
    return I < 0 ? 0 : Spans[I].EndNs - Spans[I].StartNs;
  }

  /// Chrome trace_event JSON (chrome://tracing, Perfetto); span ids,
  /// parents and job ids ride in each event's args.
  void write(const std::string &Path) const {
    std::ofstream OS(Path);
    if (!OS)
      die("cannot write " + Path);
    uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
    OS << "{\"traceEvents\": [\n";
    char Buf[320];
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %zu, \"parent\": %lld, \"job\": %u}}",
                    I ? ",\n" : "", S.Name, (double)(S.StartNs - Base) / 1e3,
                    (double)(S.EndNs - S.StartNs) / 1e3, I,
                    (long long)S.Parent, S.Job);
      OS << Buf;
    }
    OS << "\n]}\n";
  }

  std::vector<Span> Spans;

private:
  bool On;
};

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

struct WorkloadConfig {
  GcAlgorithm Algo;
  size_t HeapBytes;
  size_t NurseryBytes; ///< 0: the collector's default.
  bool Threaded;       ///< ThreadedRuntime with ThreadTasks tasks.
};

WorkloadConfig configFor(Workload W) {
  switch (W) {
  case Workload::Mutator:
  case Workload::GcCopy:
    return {GcAlgorithm::Copying, 1 << 20, 0, false};
  case Workload::ThreadsGen:
    return {GcAlgorithm::Generational, ThreadHeapBytes, ThreadNurseryBytes,
            true};
  }
  return {};
}

CompileOptions compileOptionsFor(Workload W) {
  CompileOptions O;
  // OS-thread tasks may park at any call site.
  O.TaskingSafe = W == Workload::ThreadsGen;
  return O;
}

/// Set-up stages, in Compiler::compile's order; the metric of each is the
/// median of its per-set-up totals.
enum Stage { Lex, Parse, Infer, Lower, Liveness, GcPoints, Reconstruct,
             GcMeta, NumStages };
const char *const StageSpan[NumStages] = {
    "frontend.lex",        "frontend.parse",      "types.infer",
    "ir.lower",            "analysis.liveness",   "analysis.gcpoints",
    "analysis.reconstruct", "gcmeta.build"};
const char *const StageMetric[NumStages] = {
    "frontend.lex_ms",       "frontend.parse_ms",    "types.infer_ms",
    "ir.lower_ms",           "analysis.liveness_ms", "analysis.gcpoints_ms",
    "analysis.reconstruct_ms", "gcmeta.build_ms"};

/// Compiler::compile, one public entry point at a time, each timed into a
/// span under \p Parent. Must stay in step with driver/Compiler.cpp (the
/// oracle check on every traced job catches a divergent pipeline).
std::unique_ptr<CompiledProgram>
compileStaged(const std::string &Source, const CompileOptions &Options,
              SpanLog &Log, int64_t Parent, uint64_t (&StageNs)[NumStages]) {
  DiagnosticEngine Diags;
  auto Timed = [&](Stage S, auto &&Fn) {
    uint64_t T0 = nowNs();
    Fn();
    uint64_t T1 = nowNs();
    StageNs[S] += T1 - T0;
    Log.add(StageSpan[S], T0, T1, Parent, 0);
    if (Diags.hasErrors())
      die("compile failed:\n" + Diags.render());
  };

  std::vector<Token> Tokens;
  Timed(Lex, [&] { Tokens = Lexer(Source, Diags).tokenize(); });
  std::optional<Program> Ast;
  Timed(Parse, [&] { Ast = Parser(std::move(Tokens), Diags).parseProgram(); });
  auto Types = std::make_unique<TypeContext>();
  std::optional<SemaInfo> Sema;
  Timed(Infer, [&] {
    Sema = TypeChecker(*Types, Diags, Options.RequireMonomorphic).check(*Ast);
  });
  std::optional<IrProgram> Ir;
  Timed(Lower, [&] {
    Ir = Lowerer(*Types, *Sema, Diags).lower(*Ast);
    std::string Err;
    if (Ir && !verifyIr(*Ir, &Err))
      die("malformed IR: " + Err);
  });
  if (!Ast || !Sema || !Ir)
    die("compile failed:\n" + Diags.render());

  auto CP = std::make_unique<CompiledProgram>();
  CP->Options = Options;
  CP->Types = std::move(Types);
  CP->Prog = std::move(*Ir);
  CP->Prog.Types = CP->Types.get();
  Timed(Liveness, [&] {
    LivenessOptions LiveOpts;
    LiveOpts.UseLiveness = Options.UseLiveness;
    LiveOpts.TraceCallArgs = Options.TaskingSafe;
    computeTraceSets(CP->Prog, LiveOpts);
  });
  Timed(GcPoints, [&] {
    if (Options.UseGcPointAnalysis && !Options.TaskingSafe) {
      GcPointOptions GcOpts;
      GcOpts.FloatsAllocate = true;
      CP->GcPoints = computeGcPoints(CP->Prog, GcOpts);
    } else {
      assumeAllSitesTrigger(CP->Prog);
    }
  });
  Timed(GcMeta, [&] { CP->Image.build(CP->Prog); });
  Timed(Reconstruct, [&] { CP->Recon = computeExtractionPaths(CP->Prog); });
  Timed(GcMeta, [&] {
    CP->Compiled.build(CP->Prog, CP->Recon);
    CP->Interp = std::make_unique<InterpretedMetadata>(*CP->Types);
    CP->Interp->build(CP->Prog, CP->Recon);
    CP->Appel = std::make_unique<AppelMetadata>(*CP->Types);
    CP->Appel->build(CP->Prog, CP->Recon);
  });
  return CP;
}

//===----------------------------------------------------------------------===//
// Jobs
//===----------------------------------------------------------------------===//

/// Keeps every collection event of the job in progress: exact pauses and
/// phase times (the telemetry's own percentiles are log2-bucket bounds).
/// Called inside the pause, one collection at a time.
class EventLog final : public GcEventSink {
public:
  EventLog() { Events.reserve(1024); }
  void onGcEvent(const GcEvent &E) override { Events.push_back(E); }
  std::vector<GcEvent> Events;
};

struct JobRecord {
  bool Ok = true;
  std::string Failure;
  uint64_t WallNs = 0;
  uint64_t CpuNs = 0; ///< Process CPU time over the same interval.
  // Layer spans (traced jobs only).
  uint64_t HeapInitNs = 0, DecodeNs = 0, RunNs = 0, FreeNs = 0;
  uint64_t Steps = 0, Superinstrs = 0, AllocWords = 0, PeakHeapBytes = 0;
  uint64_t Collections = 0, Minor = 0, Major = 0, Growths = 0;
  uint64_t WordsVisited = 0, Promoted = 0, BarrierOps = 0, RemsetEntries = 0;
  uint64_t WorldStops = 0, TlabRefills = 0, ParallelTraces = 0;
  uint64_t StackSteals = 0, StopDelaySumNs = 0, StopDelayCount = 0;
  std::vector<GcEvent> Events;

  void fail(std::string Why) {
    if (Ok)
      Failure = std::move(Why);
    Ok = false;
  }
};

class Bench {
public:
  Bench(Workload W, const Params &Ps, Expected Ex, CompiledProgram &P)
      : W(W), Cfg(configFor(W)), Ps(Ps), Ex(std::move(Ex)), P(P) {
    if (Cfg.Threaded) {
      Worker = findFunction(P.Prog, "worker");
      if (Worker == InvalidFunc)
        die("threads_gen program has no worker function");
    }
  }

  JobRecord run(uint32_t JobId, SpanLog &Log) {
    JobRecord J;
    Sink.Events.clear();
    uint64_t C0 = cpuNs();
    uint64_t T0 = nowNs();
    int64_t Root = Log.begin("job", -1, JobId);
    {
      Stats St;
      std::string Err;
      int64_t S = Log.begin("runtime.heap_init", Root, JobId);
      std::unique_ptr<Collector> Col =
          P.makeCollector(GcStrategy::CompiledTagFree, Cfg.Algo,
                          Cfg.HeapBytes, St, &Err, Cfg.NurseryBytes);
      if (Col && Cfg.Threaded)
        Col->setGcThreads(ThreadGcWorkers);
      Log.end(S);
      J.HeapInitNs = Log.duration(S);
      if (!Col)
        die("makeCollector failed: " + Err);
      Col->telemetry().setEventSink(&Sink);
      // Telemetry event times count from the collector's construction.
      uint64_t TelBase = nowNs() - Col->telemetry().nowNs();

      std::unique_ptr<Vm> Machine;
      std::unique_ptr<ThreadedRuntime> Rt;
      int64_t RunSpan;
      if (!Cfg.Threaded) {
        S = Log.begin("vm.decode", Root, JobId);
        Machine = std::make_unique<Vm>(
            P.Prog, P.Image, *P.Types, *Col,
            defaultVmOptions(GcStrategy::CompiledTagFree));
        Log.end(S);
        J.DecodeNs = Log.duration(S);
        RunSpan = Log.begin("vm.run", Root, JobId);
        RunResult R = Machine->run();
        Log.end(RunSpan);
        checkSequential(J, R, *Machine);
      } else {
        S = Log.begin("vm.decode", Root, JobId);
        Rt = std::make_unique<ThreadedRuntime>(P.Prog, P.Image, *P.Types, *Col,
                                               TaskingOptions());
        for (int Task = 0; Task < ThreadTasks; ++Task)
          Rt->spawnInt(Worker, workerArgs(Ps, Task));
        Log.end(S);
        J.DecodeNs = Log.duration(S);
        RunSpan = Log.begin("sched.run", Root, JobId);
        bool Ok = Rt->runAll();
        Log.end(RunSpan);
        checkThreaded(J, Ok, Rt->results());
      }
      J.RunNs = Log.duration(RunSpan);
      readCounters(J, St, *Col);
      checkInvariants(J);

      S = Log.begin("runtime.heap_free", Root, JobId);
      Machine.reset();
      Rt.reset();
      Col.reset();
      Log.end(S);
      J.FreeNs = Log.duration(S);

      if (Log.on())
        addCollectionSpans(Log, RunSpan, JobId, TelBase);
    }
    Log.end(Root);
    J.WallNs = nowNs() - T0;
    J.CpuNs = cpuNs() - C0;
    J.Events = Sink.Events;
    return J;
  }

private:
  void checkSequential(JobRecord &J, const RunResult &R, Vm &M) {
    if (!R.Ok)
      return J.fail("runtime error: " + R.Error);
    if (R.Value != Ex.Value)
      return J.fail("result " + R.Value + ", expected " + Ex.Value);
    if (W == Workload::Mutator) {
      // The result is an (int, int, float) tuple; the tag-free model keeps
      // the float's bits in the third payload word.
      const Word *Tuple = reinterpret_cast<const Word *>(M.returnValue());
      double F = wordToFloat(Tuple[2]);
      if (std::memcmp(&F, &Ex.FloatValue, sizeof F) != 0)
        J.fail("floatMath bits differ from the oracle");
    }
  }

  void checkThreaded(JobRecord &J, bool Ok,
                     const std::vector<TaskResult> &Results) {
    if (Results.size() != Ex.TaskValues.size())
      return J.fail("ran " + std::to_string(Results.size()) + " tasks");
    for (size_t I = 0; I < Results.size(); ++I) {
      if (!Results[I].Ok)
        return J.fail("task " + std::to_string(I) + ": " + Results[I].Error);
      if (Results[I].Value != Ex.TaskValues[I])
        return J.fail("task " + std::to_string(I) + " result " +
                      Results[I].Value + ", expected " + Ex.TaskValues[I]);
    }
    if (!Ok)
      J.fail("runAll reported a task failure");
  }

  void readCounters(JobRecord &J, const Stats &St, Collector &Col) {
    J.Steps = St.get(StatId::VmSteps);
    J.Superinstrs = St.get(StatId::VmSuperinstructions);
    J.AllocWords = Col.bytesAllocatedTotal() / sizeof(Word);
    J.PeakHeapBytes = Col.heapCapacityBytes();
    for (const GcEvent &E : Sink.Events)
      J.PeakHeapBytes = std::max(J.PeakHeapBytes, E.HeapCapacityBytesAfter);
    J.Collections = St.get(StatId::GcCollections);
    J.Minor = St.get(StatId::GcMinorCollections);
    J.Major = St.get(StatId::GcMajorCollections);
    J.Growths = St.get(StatId::GcHeapGrowths);
    J.WordsVisited = St.get(StatId::GcWordsVisited);
    J.Promoted = St.get(StatId::GcPromotedWords);
    J.BarrierOps = St.get(StatId::GcBarrierOps);
    J.RemsetEntries = St.get(StatId::GcRemsetEntries);
    J.WorldStops = St.get(StatId::TaskWorldStops);
    J.ParallelTraces = St.get(StatId::GcParallelTraces);
    J.StackSteals = St.get(StatId::GcStackSteals);
    for (int I = 0; I < ThreadTasks && Cfg.Threaded; ++I)
      J.TlabRefills += St.get("task." + std::to_string(I) + ".tlab_refills");
    const LogHistogram &Delay = Col.telemetry().worldStopDelayHistogram();
    J.StopDelaySumNs = Delay.sum();
    J.StopDelayCount = Delay.count();
  }

  void checkInvariants(JobRecord &J) {
    if (Sink.Events.size() != J.Collections)
      J.fail("event sink saw " + std::to_string(Sink.Events.size()) +
             " collections, stats report " + std::to_string(J.Collections));
    switch (W) {
    case Workload::Mutator:
      if (J.Collections != 0)
        J.fail("mutator job collected");
      break;
    case Workload::GcCopy:
      if (J.Collections == 0 || J.Growths == 0)
        J.fail("gc_copy job did not both collect and grow its heap");
      break;
    case Workload::ThreadsGen:
      if (J.ParallelTraces == 0 || J.Minor == 0 || J.Major == 0)
        J.fail("threads_gen job ran " + std::to_string(J.ParallelTraces) +
               " parallel traces, " + std::to_string(J.Minor) + " minor and " +
               std::to_string(J.Major) + " major collections (each must be "
               "nonzero)");
      break;
    }
  }

  /// Each collection becomes a child of the run span, and its phase times
  /// become children of the collection, laid end to end in phase order
  /// (the telemetry keeps per-phase totals, not their interleaving).
  void addCollectionSpans(SpanLog &Log, int64_t RunSpan, uint32_t JobId,
                          uint64_t TelBase) {
    static const char *const KindSpan[NumGcEventKinds] = {
        "core.full", "core.minor", "core.major"};
    static const char *const PhaseSpan[NumGcPhases] = {
        "core.root_scan",        "core.ptr_reversal", "core.frame_dispatch",
        "core.tg_closure_build", "core.copy_sweep",   "core.remset_scan",
        "core.verify"};
    for (const GcEvent &E : Sink.Events) {
      uint64_t Start = TelBase + E.StartNs;
      int64_t C = Log.add(KindSpan[(size_t)E.Kind], Start, Start + E.PauseNs,
                          RunSpan, JobId);
      for (size_t Ph = 0; Ph < NumGcPhases; ++Ph) {
        if (!E.PhaseNs[Ph])
          continue;
        Log.add(PhaseSpan[Ph], Start, Start + E.PhaseNs[Ph], C, JobId);
        Start += E.PhaseNs[Ph];
      }
    }
  }

  Workload W;
  WorkloadConfig Cfg;
  const Params &Ps;
  Expected Ex;
  CompiledProgram &P;
  FuncId Worker = InvalidFunc;
  EventLog Sink;
};

//===----------------------------------------------------------------------===//
// Main loop
//===----------------------------------------------------------------------===//

/// Jobs run and checked before timing starts; never in a percentile.
constexpr int WarmupJobs = 5;
/// Set-ups run in bursts of SetupsPerBurst, one burst per SetupBurstNs of
/// the timed loop, so the set-up median samples the host across the run as
/// the job times do. Each burst ends with one untimed job: compiling evicts
/// the job's working set from the caches, and a set-up after every job
/// made the timed jobs about 5% slower and their mean less steady.
constexpr int SetupsPerBurst = 10;
constexpr uint64_t SetupBurstNs = 1000000000;
/// max_rss_mb is read after this timed job: peak RSS keeps creeping up
/// with the number of jobs run (allocator growth across thread arenas on
/// threads_gen), so only a fixed job count compares across runs.
constexpr uint32_t RssAtJob = 100;

struct Args {
  Workload W = Workload::Mutator;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string SpansOut;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      die("missing value for " + Flag);
    std::string V = Argv[++I];
    auto Number = [&](auto Parse) {
      char *End = nullptr;
      auto N = Parse(V.c_str(), &End);
      if (V.empty() || *End)
        die("bad number for " + Flag + ": " + V);
      return N;
    };
    if (Flag == "--workload") {
      auto W = parseWorkload(V);
      if (!W)
        die("unknown workload '" + V +
            "' (expected mutator, gc_copy or threads_gen)");
      A.W = *W;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = Number([](const char *S, char **E) {
        return std::strtoull(S, E, 10);
      });
    } else if (Flag == "--seconds") {
      A.Seconds = Number([](const char *S, char **E) {
        return std::strtod(S, E);
      });
      if (!(A.Seconds > 0 && A.Seconds <= 600))
        die("--seconds must be in (0, 600]");
    } else if (Flag == "--trace") {
      if (V != "0" && V != "1")
        die("--trace takes 0 or 1");
      A.Trace = V == "1";
    } else if (Flag == "--spans-out") {
      A.SpansOut = V;
    } else {
      die("unknown flag " + Flag);
    }
  }
  if (!HaveWorkload)
    die("usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "[--spans-out FILE]");
  return A;
}

double mean(double Sum, size_t N) { return N ? Sum / (double)N : 0; }

std::vector<double> scaled(const std::vector<uint64_t> &V, double Div) {
  std::vector<double> Out;
  Out.reserve(V.size());
  for (uint64_t X : V)
    Out.push_back((double)X / Div);
  return Out;
}

/// Peak resident set of this process image so far: VmHWM, in MiB. Not
/// getrusage's ru_maxrss, which also counts the parent's RSS at fork
/// (Linux folds the old image's peak in at exec), so under a Python
/// launcher it reads the launcher's size, not ours.
double maxRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  die("no VmHWM in /proc/self/status");
}

/// \p JobsS is the timed wall time: the sum of the timed jobs' walls (the
/// set-ups between jobs are not job time).
void reportEndToEnd(Report &Rep, const std::vector<JobRecord> &Jobs,
                    double JobsS, const std::vector<uint64_t> &SetupNs,
                    double RssMb) {
  std::vector<double> JobMs, CpuMs, PauseUs;
  for (const JobRecord &J : Jobs) {
    JobMs.push_back((double)J.WallNs / 1e6);
    CpuMs.push_back((double)J.CpuNs / 1e6);
    for (const GcEvent &E : J.Events)
      PauseUs.push_back((double)E.PauseNs / 1e3);
  }
  Rep.setPercentile("job_cpu_ms_p90", nearestRank(CpuMs, 90), false);
  Rep.set("max_rss_mb", RssMb,
          "after timed job " + std::to_string(RssAtJob));
  Rep.setPercentile("setup_s", nearestRank(scaled(SetupNs, 1e9), 50), false);

  // Printed, not in the JSON line (README.md, host facts). The host runs
  // the same job in a fast or a slow state; the median flips between them
  // from run to run, while the p90 lands in the slow state in every run.
  Percentile CpuP50 = nearestRank(CpuMs, 50);
  Rep.note("job_cpu_ms_p50", std::to_string(CpuP50.Value), "ms",
           checkedSamples("job_cpu_ms_p50", CpuP50));
  // Wall-clock figures also move with the time the hypervisor steals from
  // the vCPUs, and threads_gen's handshakes multiply that.
  Rep.note("jobs_per_s", std::to_string((double)Jobs.size() / JobsS), "1/s",
           std::to_string(Jobs.size()) + " jobs in " + std::to_string(JobsS) +
               " s");
  for (auto [Name, Pct] : {std::pair{"job_ms_p50", 50u},
                           std::pair{"job_ms_p90", 90u}}) {
    Percentile P = nearestRank(JobMs, Pct);
    Rep.note(Name, std::to_string(P.Value), "ms", checkedSamples(Name, P));
  }
  // The mutator workload has no pauses. The traced run reports them as
  // core.pause_us_*.
  for (auto [Name, Pct] : {std::pair{"pause_us_p50", 50u},
                           std::pair{"pause_us_p99", 99u}}) {
    if (PauseUs.empty()) {
      Rep.note(Name, "n/a", "us", "no collections");
      continue;
    }
    Percentile P = nearestRank(PauseUs, Pct);
    Rep.note(Name, std::to_string(P.Value), "us", checkedSamples(Name, P));
  }
}

void reportPerLayer(Report &Rep, Workload W,
                    const std::vector<JobRecord> &Traced,
                    const CompiledProgram &P,
                    const std::vector<std::vector<uint64_t>> &StageNs) {
  for (int S = 0; S < NumStages; ++S)
    Rep.setPercentile(StageMetric[S], nearestRank(scaled(StageNs[S], 1e6), 50),
                      false);
  Rep.set("gcmeta.bytes",
          (double)(P.Compiled.sizeBytes() + P.Interp->sizeBytes() +
                   P.Appel->sizeBytes() + P.Image.gcWordBytes()),
          "frame routines + interpreted + Appel tables + gc_words");

  size_t N = Traced.size();
  double Wall = 0, HeapInit = 0, Decode = 0, Mutator = 0, Free = 0, Run = 0;
  double Steps = 0, Super = 0, Alloc = 0, HeapMb = 0, Growths = 0;
  double Colls = 0, Minor = 0, Major = 0, Pause = 0, Words = 0;
  double Promoted = 0, Barrier = 0, Remset = 0, Stops = 0, Refills = 0;
  double ParTraces = 0, Steals = 0, DelaySum = 0, DelayCount = 0;
  double PhaseNs[NumGcPhases] = {};
  std::vector<double> PauseUs, MinorUs, MajorUs;
  for (const JobRecord &J : Traced) {
    uint64_t JobPause = 0;
    for (const GcEvent &E : J.Events) {
      JobPause += E.PauseNs;
      for (size_t Ph = 0; Ph < NumGcPhases; ++Ph)
        PhaseNs[Ph] += (double)E.PhaseNs[Ph];
      PauseUs.push_back((double)E.PauseNs / 1e3);
      if (E.Kind == GcEventKind::Minor)
        MinorUs.push_back((double)E.PauseNs / 1e3);
      if (E.Kind == GcEventKind::Major)
        MajorUs.push_back((double)E.PauseNs / 1e3);
    }
    Wall += (double)J.WallNs;
    HeapInit += (double)J.HeapInitNs;
    Decode += (double)J.DecodeNs;
    Run += (double)J.RunNs;
    Mutator += (double)(J.RunNs - std::min(J.RunNs, JobPause));
    Free += (double)J.FreeNs;
    Pause += (double)JobPause;
    Steps += (double)J.Steps;
    Super += (double)J.Superinstrs;
    Alloc += (double)J.AllocWords;
    HeapMb += (double)J.PeakHeapBytes / (1 << 20);
    Growths += (double)J.Growths;
    Colls += (double)J.Collections;
    Minor += (double)J.Minor;
    Major += (double)J.Major;
    Words += (double)J.WordsVisited;
    Promoted += (double)J.Promoted;
    Barrier += (double)J.BarrierOps;
    Remset += (double)J.RemsetEntries;
    Stops += (double)J.WorldStops;
    Refills += (double)J.TlabRefills;
    ParTraces += (double)J.ParallelTraces;
    Steals += (double)J.StackSteals;
    DelaySum += (double)J.StopDelaySumNs;
    DelayCount += (double)J.StopDelayCount;
  }
  std::string PerJob = "mean of " + std::to_string(N) + " traced jobs";
  bool Threaded = configFor(W).Threaded;
  Rep.set("vm.decode_ms", mean(Decode, N) / 1e6, PerJob);
  Rep.set("vm.mutator_ms", mean(Mutator, N) / 1e6, PerJob);
  Rep.set("vm.steps", mean(Steps, N), PerJob);
  Rep.set("vm.ns_per_step", Steps ? Mutator / Steps : 0, "mutator ns / steps");
  Rep.set("vm.superinstr_frac", Steps ? Super / Steps : 0,
          "superinstructions / steps");
  Rep.set("vm.alloc_words", mean(Alloc, N), PerJob);
  Rep.set("runtime.heap_init_ms", mean(HeapInit, N) / 1e6, PerJob);
  Rep.set("runtime.heap_free_ms", mean(Free, N) / 1e6, PerJob);
  Rep.set("runtime.heap_mb", mean(HeapMb, N), "peak capacity, " + PerJob);
  Rep.set("runtime.heap_growths", mean(Growths, N), PerJob);
  Rep.set("core.collections", mean(Colls, N), PerJob);
  Rep.set("core.pause_ms", mean(Pause, N) / 1e6, PerJob);
  Rep.set("core.pause_frac", Wall ? Pause / Wall : 0, "pause / job wall");
  Rep.setPercentile("core.pause_us_p50", nearestRank(PauseUs, 50), true);
  Rep.setPercentile("core.pause_us_p99", nearestRank(PauseUs, 99), true);
  static const std::pair<GcPhase, const char *> PhaseMetric[] = {
      {GcPhase::RootScan, "core.root_scan_ms"},
      {GcPhase::PtrReversal, "core.ptr_reversal_ms"},
      {GcPhase::FrameDispatch, "core.frame_dispatch_ms"},
      {GcPhase::TgClosureBuild, "core.tg_closure_build_ms"},
      {GcPhase::CopySweep, "core.copy_sweep_ms"},
      {GcPhase::RemsetScan, "core.remset_scan_ms"}};
  for (const auto &[Ph, Name] : PhaseMetric)
    Rep.set(Name, mean(PhaseNs[(size_t)Ph], N) / 1e6, PerJob);
  Rep.set("core.words_visited", mean(Words, N), PerJob);
  Rep.set("core.trace_ns_per_word",
          Words ? (Pause - PhaseNs[(size_t)GcPhase::CopySweep]) / Words : 0,
          "(pause - copy_sweep) / words visited");
  Rep.set("core.survival_frac", Alloc ? Words / Alloc : 0,
          "words visited / words allocated");
  Rep.set("core.minor_collections", mean(Minor, N), PerJob);
  Rep.set("core.major_collections", mean(Major, N), PerJob);
  Rep.setPercentile("core.minor_pause_us_p50", nearestRank(MinorUs, 50), true);
  Rep.setPercentile("core.major_pause_us_p50", nearestRank(MajorUs, 50), true);
  Rep.set("core.promoted_words", mean(Promoted, N), PerJob);
  Rep.set("core.barrier_ops", mean(Barrier, N), PerJob);
  Rep.set("core.remset_entries", mean(Remset, N), PerJob);
  Rep.set("sched.run_ms", Threaded ? mean(Run, N) / 1e6 : 0, PerJob);
  Rep.set("sched.world_stops", mean(Stops, N), PerJob);
  Rep.set("sched.stop_delay_us_mean",
          DelayCount ? DelaySum / DelayCount / 1e3 : 0,
          "exact sum / count of the world-stop delay histogram");
  Rep.set("sched.tlab_refills", mean(Refills, N), PerJob);
  Rep.set("sched.parallel_traces", mean(ParTraces, N), PerJob);
  Rep.set("sched.stack_steals", mean(Steals, N), PerJob);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  const Params Ps = paramsFor(A.Seed);
  SpanLog Log(A.Trace);
  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n",
              workloadName(A.W), (unsigned long long)A.Seed, A.Seconds,
              (int)A.Trace);

  // Set-up: generate the source from the seed and compile it. The first
  // set-up's program runs every job; the later ones (in bursts, see
  // SetupsPerBurst) are timed and dropped.
  std::vector<uint64_t> SetupNs;
  std::vector<std::vector<uint64_t>> StageNs(NumStages);
  auto SetUp = [&]() {
    uint64_t T0 = nowNs();
    std::string Src = source(A.W, Ps);
    std::unique_ptr<CompiledProgram> P;
    if (A.Trace) {
      uint64_t Stages[NumStages] = {};
      int64_t Root = Log.begin("setup", -1, 0);
      P = compileStaged(Src, compileOptionsFor(A.W), Log, Root, Stages);
      Log.end(Root);
      for (int S = 0; S < NumStages; ++S)
        StageNs[S].push_back(Stages[S]);
    } else {
      std::string Err;
      P = Compiler(compileOptionsFor(A.W)).compile(Src, &Err);
      if (!P)
        die("compile failed:\n" + Err);
    }
    SetupNs.push_back(nowNs() - T0);
    return P;
  };
  std::unique_ptr<CompiledProgram> P = SetUp();

  Bench B(A.W, Ps, oracle(A.W, Ps), *P);
  uint64_t Attempted = 0, Failed = 0, Untimed = 0;
  auto Account = [&](const JobRecord &J) {
    ++Attempted;
    if (!J.Ok && ++Failed <= 5)
      std::fprintf(stderr, "perfbench: job failed: %s\n", J.Failure.c_str());
  };
  SpanLog Untraced(false);
  for (int I = 0; I < WarmupJobs; ++I, ++Untimed)
    Account(B.run(0, Untraced));

  // Timed closed loop. The traced run alternates traced and untraced jobs
  // so that host drift hits both halves of the overhead ratio alike.
  std::vector<JobRecord> Timed, TracedJobs;
  uint64_t UntracedNs = 0, TracedNs = 0;
  size_t UntracedJobs = 0;
  double RssMb = 0;
  const uint64_t Deadline = nowNs() + (uint64_t)(A.Seconds * 1e9);
  uint64_t NextBurst = nowNs() + SetupBurstNs;
  for (uint32_t Job = 1; nowNs() < Deadline; ++Job) {
    bool Traced = A.Trace && Job % 2 == 1;
    JobRecord J = B.run(Job, Traced ? Log : Untraced);
    Account(J);
    if (Job == RssAtJob)
      RssMb = maxRssMb();
    if (Traced) {
      TracedNs += J.WallNs;
      TracedJobs.push_back(std::move(J));
    } else {
      UntracedNs += J.WallNs;
      ++UntracedJobs;
      if (!A.Trace)
        Timed.push_back(std::move(J));
    }
    if (nowNs() >= NextBurst) {
      for (int I = 0; I < SetupsPerBurst; ++I)
        SetUp();
      Account(B.run(0, Untraced));
      ++Untimed;
      NextBurst = nowNs() + SetupBurstNs;
    }
  }
  if (!A.Trace && Timed.size() < RssAtJob)
    die("only " + std::to_string(Timed.size()) +
        " timed jobs; max_rss_mb is read after job " +
        std::to_string(RssAtJob) + "; run longer");

  Report Rep;
  Rep.note("failed_frac",
           std::to_string(Attempted ? (double)Failed / (double)Attempted : 0),
           "ratio",
           std::to_string(Failed) + " of " + std::to_string(Attempted) +
               " jobs, " + std::to_string(Untimed) +
               " of them untimed (warm-up, re-warm after set-ups)");
  if (!A.Trace) {
    reportEndToEnd(Rep, Timed, (double)UntracedNs / 1e9, SetupNs, RssMb);
  } else {
    // Span coverage: the share of each traced job's wall time inside its
    // four layer spans (the rest is the oracle check and counter reads).
    // Phase check: a collection's phase times should partition its pause
    // (the telemetry's switch-clock). It checks the telemetry, not the
    // program's output, so a mismatch is reported but is no job failure.
    double Covered = 0, Wall = 0, WorstOff = 0;
    size_t PhaseMismatches = 0, Collections = 0;
    for (const JobRecord &J : TracedJobs) {
      Covered += (double)(J.HeapInitNs + J.DecodeNs + J.RunNs + J.FreeNs);
      Wall += (double)J.WallNs;
      for (const GcEvent &E : J.Events) {
        ++Collections;
        double Off = std::abs((double)E.phaseNsSum() - (double)E.PauseNs) /
                     (double)E.PauseNs;
        WorstOff = std::max(WorstOff, Off);
        if (Off > 0.02)
          ++PhaseMismatches;
      }
    }
    double Traced = (double)TracedJobs.size() / ((double)TracedNs / 1e9);
    double Plain = (double)UntracedJobs / ((double)UntracedNs / 1e9);
    std::printf("span coverage: %.4f of traced job wall time inside layer "
                "spans (uncovered %.4f)\n",
                Wall ? Covered / Wall : 0, Wall ? 1 - Covered / Wall : 0);
    std::printf("phase check: %zu of %zu collections have phase children "
                "off their pause by more than 2%% (worst %.2f%%)\n",
                PhaseMismatches, Collections, 100 * WorstOff);
    std::printf("tracing overhead: traced %.4f jobs/s / untraced %.4f jobs/s "
                "= %.4f (%zu + %zu interleaved jobs)\n",
                Traced, Plain, Plain ? Traced / Plain : 0, TracedJobs.size(),
                UntracedJobs);
    reportPerLayer(Rep, A.W, TracedJobs, *P, StageNs);
    if (!A.SpansOut.empty()) {
      Log.write(A.SpansOut);
      std::printf("spans: %zu written to %s\n", Log.Spans.size(),
                  A.SpansOut.c_str());
    }
  }
  Rep.emit(A.Trace, Failed == 0, Attempted, Failed);
  return 0;
}
