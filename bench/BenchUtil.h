//===- bench/BenchUtil.h - Shared bench harness helpers ---------*- C++ -*-===//
///
/// \file
/// Helpers shared by the experiment binaries (E1..E17). Each binary prints
/// paper-style tables derived from deterministic runs; where the
/// experiment is about wall time, it also prints medians of interleaved
/// timed runs, all taken by medianWallNs, the one timing loop. Runs that
/// price an attachment or a runtime are assembled by driver/Session, the
/// same code tfgc runs, so they measure what the CLI does.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_BENCH_BENCHUTIL_H
#define TFGC_BENCH_BENCHUTIL_H

#include "driver/Compiler.h"
#include "driver/Session.h"
#include "workloads/Programs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace tfgc::bench {

// -- Command line and JSON baseline ---------------------------------------
//
// Every bench binary accepts `--json <path>` (or `--json=<path>`) and the
// flags it declares; anything else is a usage error. With --json the
// deterministic table runs are also written to <path> as one JSON
// document: the BENCH_<name>.json baselines that tools/bench_diff.py
// gates. Timings go to stdout only.

class JsonSink {
public:
  /// Scans the command line: --json PATH, --json=PATH and the flags in
  /// \p Flags. Prints a usage line and exits 2 on any other argument.
  JsonSink(std::string BenchName, int Argc, char **Argv,
           std::vector<std::string> Flags = {})
      : BenchName(std::move(BenchName)) {
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg == "--json" && I + 1 < Argc)
        Path = Argv[++I];
      else if (Arg.rfind("--json=", 0) == 0 && Arg.size() > 7)
        Path = Arg.substr(7);
      else if (std::find(Flags.begin(), Flags.end(), Arg) != Flags.end())
        Given.push_back(Arg);
      else
        usage(Argv[0], Arg, Flags);
    }
    active() = this;
  }
  ~JsonSink() {
    if (active() == this)
      active() = nullptr;
  }

  /// Whether the declared flag \p F was given.
  bool flag(const std::string &F) const {
    return std::find(Given.begin(), Given.end(), F) != Given.end();
  }

  /// Labels subsequent rows with the workload being tabled.
  void setWorkload(std::string W) { Workload = std::move(W); }

  /// Captures one deterministic run's counters. \p Threads labels rows
  /// from the OS-thread runtime (E15); 0 omits the field (sequential VM).
  void record(const std::string &Strategy, GcAlgorithm A, size_t HeapBytes,
              const Stats &St, size_t NurseryBytes = 0,
              unsigned Threads = 0) {
    std::ostringstream Config;
    Config << ", \"algorithm\": \"" << gcAlgorithmName(A)
           << "\", \"heap_bytes\": " << HeapBytes;
    if (NurseryBytes)
      Config << ", \"nursery_bytes\": " << NurseryBytes;
    if (Threads)
      Config << ", \"threads\": " << Threads;
    addRow(Strategy, Config.str(), St.all());
  }

  /// Captures one row of compile-time counts (E4, E6): no run, so no
  /// algorithm or heap.
  void recordCounts(const std::string &Label,
                    const std::map<std::string, uint64_t> &Counts) {
    addRow(Label, "", Counts);
  }

  /// Writes the document when --json was given.
  void write() const {
    if (Path.empty())
      return;
    std::ofstream Out(Path);
    Out << "{\n  \"bench\": \"" << BenchName << "\",\n  \"schema\": 2,\n"
        << "  \"table_runs\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I)
      Out << Rows[I] << (I + 1 < Rows.size() ? ",\n" : "\n");
    Out << "  ]\n}\n";
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      std::exit(2);
    }
    std::printf("wrote %s\n", Path.c_str());
  }

  static JsonSink *&active() {
    static JsonSink *S = nullptr;
    return S;
  }

private:
  [[noreturn]] static void usage(const char *Argv0, const std::string &Arg,
                                 const std::vector<std::string> &Flags) {
    std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s [--json PATH]",
                 Argv0, Arg.c_str(), Argv0);
    for (const std::string &F : Flags)
      std::fprintf(stderr, " [%s]", F.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  void addRow(const std::string &Strategy, const std::string &Config,
              const std::map<std::string, uint64_t> &Counters) {
    if (Path.empty())
      return;
    std::ostringstream OS;
    OS << "    {\"workload\": \"" << Workload << "\", \"strategy\": \""
       << Strategy << '"' << Config << ", \"counters\": {";
    bool First = true;
    for (const auto &[Name, Value] : Counters) {
      OS << (First ? "" : ", ") << '"' << Name << "\": " << Value;
      First = false;
    }
    OS << "}}";
    Rows.push_back(OS.str());
  }

  std::string BenchName;
  std::string Path;
  std::vector<std::string> Given;
  std::string Workload;
  std::vector<std::string> Rows;
};

/// Labels the table rows that follow in the JSON capture (no-op when no
/// sink is active).
inline void jsonWorkload(const std::string &W) {
  if (JsonSink *S = JsonSink::active())
    S->setWorkload(W);
}

/// Captures a finished session's counters as one table row labelled
/// \p Label (no-op when no sink is active).
inline void jsonRecord(const std::string &Label, Session &S) {
  const CliOptions &O = S.options();
  if (JsonSink *Sink = JsonSink::active())
    Sink->record(Label, O.Algo, O.HeapBytes, S.stats(), O.NurseryBytes,
                 O.Threads);
}

/// Captures one row of compile-time counts labelled \p Label (no-op when
/// no sink is active).
inline void jsonCounts(const std::string &Label,
                       const std::map<std::string, uint64_t> &Counts) {
  if (JsonSink *Sink = JsonSink::active())
    Sink->recordCounts(Label, Counts);
}

/// Runs a program once and returns its stats (aborts on failure — benches
/// must not silently measure broken runs). Counter results feed the
/// active JsonSink, if any, labelled with the strategy plus each
/// non-default compile option that changes the program's metadata.
inline Stats runOnce(const std::string &Source, GcStrategy S,
                     GcAlgorithm A = GcAlgorithm::Copying,
                     size_t HeapBytes = 1 << 16, bool Stress = false,
                     CompileOptions Options = {}, size_t NurseryBytes = 0) {
  ExecResult R =
      execProgram(Source, S, A, HeapBytes, Stress, Options, NurseryBytes);
  if (!R.CompileOk || !R.Run.Ok) {
    std::fprintf(stderr, "bench workload failed under %s: %s%s\n",
                 gcStrategyName(S), R.CompileError.c_str(),
                 R.Run.Error.c_str());
    std::abort();
  }
  std::string Label = gcStrategyName(S);
  if (!Options.UseLiveness)
    Label += "+no-liveness";
  if (Options.Monomorphise)
    Label += "+monomorphised";
  if (JsonSink *Sink = JsonSink::active())
    Sink->record(Label, A, HeapBytes, R.St, NurseryBytes);
  return std::move(R.St);
}

/// Compiles once, for runs that reuse the program.
inline std::unique_ptr<CompiledProgram>
compileOrDie(const std::string &Source, CompileOptions Options = {}) {
  Compiler C(Options);
  std::string Err;
  auto P = C.compile(Source, &Err);
  if (!P) {
    std::fprintf(stderr, "bench workload failed to compile: %s\n",
                 Err.c_str());
    std::abort();
  }
  return P;
}

/// Wall time of one call of \p Fn, in ns.
template <typename Fn> uint64_t wallNs(Fn &&F) {
  auto T0 = std::chrono::steady_clock::now();
  F();
  auto T1 = std::chrono::steady_clock::now();
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(T1 -
                                                                        T0)
      .count();
}

/// A run on the bare VM: a fresh collector, no Session attachments.
struct BareRun {
  GcStrategy Strategy = GcStrategy::CompiledTagFree;
  GcAlgorithm Algo = GcAlgorithm::Copying;
  size_t HeapBytes = 1 << 16;
  size_t NurseryBytes = 0;
  bool Stress = false;
  /// Zero every frame at entry even where the collector does not need it.
  bool ForceZeroFrames = false;
  /// false runs E13's baseline mutator: switch dispatch, no
  /// superinstruction fusion, boxed floats, no frame-reusing tail calls.
  bool FastPath = true;
};

/// Runs \p P once under \p C and returns the wall time of Vm::run() alone
/// (collector set-up and decode excluded); \p St, when given, receives
/// the run's counters. Aborts on failure.
inline uint64_t bareRunNs(CompiledProgram &P, const BareRun &C,
                          Stats *St = nullptr) {
  Stats Local;
  Stats &S = St ? *St : Local;
  S = Stats();
  std::string Err;
  auto Col = P.makeCollector(C.Strategy, C.Algo, C.HeapBytes, S, &Err,
                             C.NurseryBytes);
  if (!Col) {
    std::fprintf(stderr, "bench collector rejected: %s\n", Err.c_str());
    std::abort();
  }
  VmOptions VO = defaultVmOptions(C.Strategy, C.Stress);
  VO.ZeroFrames = C.ForceZeroFrames;
  if (!C.FastPath) {
    VO.Dispatch = DispatchMode::Switch;
    VO.FuseSuperinstructions = false;
    VO.FloatSelfTag = false;
    VO.TailCalls = false;
  }
  Vm M(P.Prog, P.Image, *P.Types, *Col, VO);
  RunResult R;
  uint64_t Ns = wallNs([&] { R = M.run(); });
  if (!R.Ok) {
    std::fprintf(stderr, "bench run failed: %s\n", R.Error.c_str());
    std::abort();
  }
  return Ns;
}

/// A workload of the attachment-cost benches (E11-E17), run under the
/// compiled tag-free strategy: a program, compiled on first use, and the
/// heap it runs on.
struct CostWorkload {
  const char *Name;
  std::string Src;
  GcAlgorithm Algo = GcAlgorithm::Copying;
  size_t Heap = 1 << 16;
  size_t Nursery = 0;
  std::unique_ptr<CompiledProgram> P = nullptr;

  CompiledProgram &program() {
    if (!P)
      P = compileOrDie(Src);
    return *P;
  }
  /// Options of a bare run; a bench adds the attachment it prices.
  CliOptions options() const {
    CliOptions O;
    O.Algo = Algo;
    O.HeapBytes = Heap;
    O.NurseryBytes = Nursery;
    return O;
  }
};

/// The minor-dominated heap of the cost benches: 1 MiB, 8 KiB nursery.
inline CostWorkload genWorkload(const char *Name, std::string Src) {
  return {Name, std::move(Src), GcAlgorithm::Generational, 1 << 20, 1 << 13};
}

/// Opens a Session for \p O over \p P (compiled with
/// sessionCompileOptions(O)), aborting when it cannot.
inline std::unique_ptr<Session> openSession(CompiledProgram &P,
                                            const CliOptions &O) {
  auto S = std::make_unique<Session>(P, O);
  if (S->open() != 0) {
    std::fprintf(stderr, "bench session failed to open\n");
    std::abort();
  }
  return S;
}

/// One run assembled exactly as tfgc assembles it for \p O: opens the
/// session, lets \p BeforeRun add sinks, runs main, writes the artifacts,
/// and aborts on any failure. \p WallNs receives the wall time of the run
/// alone (setup and artifact writing excluded).
inline std::unique_ptr<Session>
sessionRun(CompiledProgram &P, const CliOptions &O, uint64_t *WallNs = nullptr,
           const std::function<void(Session &)> &BeforeRun = nullptr) {
  auto S = openSession(P, O);
  if (BeforeRun)
    BeforeRun(*S);
  RunResult R;
  uint64_t Ns = wallNs([&] { R = S->run(); });
  if (!R.Ok || !S->finish()) {
    std::fprintf(stderr, "bench run failed: %s\n", R.Error.c_str());
    std::abort();
  }
  if (WallNs)
    *WallNs = Ns;
  return S;
}

/// Median wall time of each of \p Modes modes over \p Reps rounds that
/// run every mode in turn, after one untimed warmup of mode 0: page cache,
/// CPU frequency and machine-load drift then hit every mode equally
/// instead of penalizing whichever ran first. \p Run(M) runs mode M once
/// and returns its wall time in ns.
template <typename RunFn>
std::vector<uint64_t> medianWallNs(size_t Modes, int Reps, RunFn Run) {
  Run(0);
  std::vector<std::vector<uint64_t>> Ns(Modes);
  for (int I = 0; I < Reps; ++I)
    for (size_t M = 0; M < Modes; ++M)
      Ns[M].push_back(Run(M));
  std::vector<uint64_t> Med;
  for (std::vector<uint64_t> &V : Ns) {
    std::sort(V.begin(), V.end());
    Med.push_back(V[V.size() / 2]);
  }
  return Med;
}

// -- Table printing -----------------------------------------------------
//
// Cells are 22 columns wide and always end in a space, so a longer cell
// shifts the rest of its row instead of running into the next cell.

inline void tableHeader(const char *Title, const char *Legend,
                        const std::vector<std::string> &Cols) {
  std::printf("\n=== %s ===\n%s\n", Title, Legend);
  for (const std::string &C : Cols)
    std::printf("%-21s ", C.c_str());
  std::printf("\n");
  for (size_t I = 0; I < Cols.size(); ++I)
    std::printf("%-21s ", "--------------------");
  std::printf("\n");
}

inline void tableCell(const std::string &V) {
  std::printf("%-21s ", V.c_str());
}
inline void tableCell(uint64_t V) {
  std::printf("%-21llu ", (unsigned long long)V);
}
inline void tableCell(double V) { std::printf("%-21.3f ", V); }
inline void tableEnd() { std::printf("\n"); }

inline std::string human(uint64_t Bytes) {
  char Buf[32];
  if (Bytes >= 1024 * 1024)
    std::snprintf(Buf, sizeof(Buf), "%.1fMiB", (double)Bytes / (1 << 20));
  else if (Bytes >= 1024)
    std::snprintf(Buf, sizeof(Buf), "%.1fKiB", (double)Bytes / 1024);
  else
    std::snprintf(Buf, sizeof(Buf), "%lluB", (unsigned long long)Bytes);
  return Buf;
}

/// One row of a timing table: the workload, the configuration, and one
/// run of it that returns its wall time in ns.
struct Timed {
  std::string Workload;
  std::string Config;
  std::function<uint64_t()> Run;
};

/// A timing-table row that times one bare run of \p P under \p C.
inline Timed bareTimed(std::string Workload, std::string Config,
                       CompiledProgram &P, BareRun C) {
  return {std::move(Workload), std::move(Config),
          [&P, C] { return bareRunNs(P, C); }};
}

/// Prints a timing table: each row's median wall time over \p Reps
/// rounds that run every row in turn (medianWallNs), and its ratio to the
/// first row of its workload. Rows of one workload are adjacent.
inline void timingTable(const std::string &Title,
                        const std::vector<Timed> &Rows, int Reps = 9) {
  std::vector<uint64_t> Med = medianWallNs(
      Rows.size(), Reps, [&](size_t M) { return Rows[M].Run(); });
  std::string Legend = "median wall time over " + std::to_string(Reps) +
                       " interleaved rounds; 'ratio' is vs the workload's "
                       "first row";
  tableHeader(Title.c_str(), Legend.c_str(),
              {"workload", "configuration", "median us", "ratio"});
  size_t Base = 0;
  for (size_t I = 0; I < Rows.size(); ++I) {
    if (Rows[I].Workload != Rows[Base].Workload)
      Base = I;
    tableCell(Rows[I].Workload);
    tableCell(Rows[I].Config);
    tableCell((double)Med[I] / 1e3);
    tableCell((double)Med[I] / (double)Med[Base]);
    tableEnd();
  }
}

} // namespace tfgc::bench

#endif // TFGC_BENCH_BENCHUTIL_H
