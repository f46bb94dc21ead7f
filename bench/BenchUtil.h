//===- bench/BenchUtil.h - Shared bench harness helpers ---------*- C++ -*-===//
///
/// \file
/// Helpers shared by the experiment binaries (E1..E17). Each binary prints
/// a paper-style table derived from deterministic runs, then (where the
/// experiment is about wall time) runs google-benchmark timings. Runs that
/// price an attachment or a runtime are assembled by driver/Session, the
/// same code tfgc runs, so they measure what the CLI does.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_BENCH_BENCHUTIL_H
#define TFGC_BENCH_BENCHUTIL_H

#include "driver/Compiler.h"
#include "driver/Session.h"
#include "workloads/Programs.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace tfgc::bench {

// -- JSON trajectory output ----------------------------------------------
//
// Every bench binary accepts `--json <path>` (or `--json=<path>`): the
// paper-table counter runs and the google-benchmark timings are then also
// written to <path> as one JSON document, so the repo can accumulate
// BENCH_<name>.json files as a perf trajectory across PRs.

class JsonSink {
public:
  /// Scans argv for --json and strips it (google-benchmark rejects flags
  /// it does not know).
  JsonSink(std::string BenchName, int &Argc, char **Argv)
      : BenchName(std::move(BenchName)) {
    int Out = 1;
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg == "--json" && I + 1 < Argc) {
        Path = Argv[++I];
      } else if (Arg.rfind("--json=", 0) == 0) {
        Path = Arg.substr(7);
      } else {
        Argv[Out++] = Argv[I];
      }
    }
    Argc = Out;
    active() = this;
  }
  ~JsonSink() {
    if (active() == this)
      active() = nullptr;
  }

  bool enabled() const { return !Path.empty(); }

  /// Labels subsequent record() calls with the workload being tabled.
  void setWorkload(std::string W) { Workload = std::move(W); }

  /// Captures one deterministic run's counters. \p Threads labels rows
  /// from the OS-thread runtime (E15); 0 omits the field (sequential VM).
  void record(const char *Strategy, GcAlgorithm A, size_t HeapBytes,
              const Stats &St, size_t NurseryBytes = 0,
              unsigned Threads = 0) {
    if (!enabled())
      return;
    std::ostringstream OS;
    OS << "    {\"workload\": \"" << Workload << "\", \"strategy\": \""
       << Strategy << "\", \"algorithm\": \"" << gcAlgorithmName(A)
       << "\", \"heap_bytes\": " << HeapBytes;
    if (NurseryBytes)
      OS << ", \"nursery_bytes\": " << NurseryBytes;
    if (Threads)
      OS << ", \"threads\": " << Threads;
    OS << ", \"counters\": {";
    bool First = true;
    for (const auto &[Name, Value] : St.all()) {
      OS << (First ? "" : ", ") << '"' << Name << "\": " << Value;
      First = false;
    }
    OS << "}}";
    Rows.push_back(OS.str());
  }

  /// Runs the registered google-benchmark timings (JSON-captured when
  /// enabled) and writes the document. Call after benchmark::Initialize.
  void runBenchmarksAndWrite() {
    if (!enabled()) {
      benchmark::RunSpecifiedBenchmarks();
      return;
    }
    // The JSON reporter stands in as the display reporter (a separate
    // file reporter would demand --benchmark_out); timings go to the
    // document instead of the console in JSON mode.
    std::ostringstream Timings;
    {
      benchmark::JSONReporter Json;
      Json.SetOutputStream(&Timings);
      Json.SetErrorStream(&std::cerr);
      benchmark::RunSpecifiedBenchmarks(&Json);
    }
    std::ofstream Out(Path);
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      std::abort();
    }
    std::string TimingsDoc = Timings.str();
    if (TimingsDoc.empty())
      TimingsDoc = "null"; // Bench with no registered timings.
    Out << "{\n  \"bench\": \"" << BenchName << "\",\n  \"schema\": 1,\n"
        << "  \"table_runs\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I)
      Out << Rows[I] << (I + 1 < Rows.size() ? ",\n" : "\n");
    Out << "  ],\n  \"benchmark\": " << TimingsDoc << "\n}\n";
    std::printf("wrote %s\n", Path.c_str());
  }

  static JsonSink *&active() {
    static JsonSink *S = nullptr;
    return S;
  }

private:
  std::string BenchName;
  std::string Path;
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
    Sink->record(Label.c_str(), O.Algo, O.HeapBytes, S.stats(),
                 O.NurseryBytes, O.Threads);
}

/// Runs a program once and returns its stats (aborts on failure — benches
/// must not silently measure broken runs). Counter results feed the
/// active JsonSink, if any.
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
  if (JsonSink *Sink = JsonSink::active())
    Sink->record(gcStrategyName(S), A, HeapBytes, R.St, NurseryBytes);
  return std::move(R.St);
}

/// Compiles once; reused across benchmark iterations.
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
  auto T0 = std::chrono::steady_clock::now();
  RunResult R = S->run();
  auto T1 = std::chrono::steady_clock::now();
  if (!R.Ok || !S->finish()) {
    std::fprintf(stderr, "bench run failed: %s\n", R.Error.c_str());
    std::abort();
  }
  if (WallNs)
    *WallNs = (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
                  T1 - T0)
                  .count();
  return S;
}

/// Median wall time of each of \p N modes over \p Reps rounds that run
/// every mode in turn, after one untimed warmup of mode 0: page cache, CPU
/// frequency and machine-load drift then hit every mode equally instead
/// of penalizing whichever ran first. \p Run(M) runs mode M once and
/// returns its wall time in ns.
template <size_t N, typename RunFn>
std::array<uint64_t, N> medianWallNs(int Reps, RunFn Run) {
  Run(0);
  std::array<std::vector<uint64_t>, N> Ns;
  for (int I = 0; I < Reps; ++I)
    for (size_t M = 0; M < N; ++M)
      Ns[M].push_back(Run(M));
  std::array<uint64_t, N> Med;
  for (size_t M = 0; M < N; ++M) {
    std::sort(Ns[M].begin(), Ns[M].end());
    Med[M] = Ns[M][Ns[M].size() / 2];
  }
  return Med;
}

/// One timed end-to-end run on a precompiled program. The trailing
/// mutator fast-path knobs (dispatch loop / superinstruction fusion /
/// float self-tagging) default to the production configuration; E13
/// passes the de-optimized baseline to measure the fast path itself.
inline void timedRun(benchmark::State &State, CompiledProgram &P,
                     GcStrategy S, GcAlgorithm A, size_t HeapBytes,
                     bool ZeroFramesOverride = false, bool Stress = false,
                     size_t NurseryBytes = 0,
                     DispatchMode Dispatch = DispatchMode::Auto,
                     bool Fuse = true, bool FloatSelfTag = true,
                     bool TailCalls = true) {
  for (auto _ : State) {
    Stats St;
    std::string Err;
    auto Col = P.makeCollector(S, A, HeapBytes, St, &Err, NurseryBytes);
    if (!Col) {
      State.SkipWithError(Err.c_str());
      return;
    }
    VmOptions VO = defaultVmOptions(S, Stress);
    VO.ZeroFrames = ZeroFramesOverride;
    VO.Dispatch = Dispatch;
    VO.FuseSuperinstructions = Fuse;
    VO.FloatSelfTag = FloatSelfTag;
    VO.TailCalls = TailCalls;
    Vm M(P.Prog, P.Image, *P.Types, *Col, VO);
    RunResult R = M.run();
    if (!R.Ok) {
      State.SkipWithError(R.Error.c_str());
      return;
    }
    benchmark::DoNotOptimize(R.Value.data());
    State.counters["collections"] = (double)St.get(StatId::GcCollections);
  }
}

// -- Table printing -----------------------------------------------------

inline void tableHeader(const char *Title, const char *Legend,
                        const std::vector<std::string> &Cols) {
  std::printf("\n=== %s ===\n%s\n", Title, Legend);
  for (const std::string &C : Cols)
    std::printf("%-22s", C.c_str());
  std::printf("\n");
  for (size_t I = 0; I < Cols.size(); ++I)
    std::printf("%-22s", "--------------------");
  std::printf("\n");
}

inline void tableCell(const std::string &V) {
  std::printf("%-22s", V.c_str());
}
inline void tableCell(uint64_t V) { std::printf("%-22llu", (unsigned long long)V); }
inline void tableCell(double V) { std::printf("%-22.3f", V); }
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

} // namespace tfgc::bench

#endif // TFGC_BENCH_BENCHUTIL_H
