//===- driver/Cli.h - tfgc command-line driver ------------------*- C++ -*-===//
///
/// \file
/// The tfgc command line as a library: a flag table that is the single
/// source of truth for both the parser and the usage text (so a flag
/// cannot be parsed without being documented), an options struct, and an
/// in-process runTfgc() that tools/tfgc.cpp wraps in main() and the test
/// suite calls directly to exercise end-to-end behavior — exit codes,
/// diagnostic flushing on abnormal exit, snapshot emission. runTfgc only
/// compiles and reports; driver/Session.h assembles the run itself from
/// the same CliOptions, for the CLI, the benches and the tests alike.
///
/// Exit codes: 0 success, 1 compile/runtime error, 2 usage or I/O error,
/// 3 post-GC verification detected violations.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_DRIVER_CLI_H
#define TFGC_DRIVER_CLI_H

#include "driver/Compiler.h"

#include <string>
#include <vector>

namespace tfgc {

/// One command-line flag. Value flags are spelled --name=VALUE (except
/// -e, which consumes the next argument).
struct CliFlag {
  const char *Name;
  bool HasValue;
  const char *Help;
};

/// The full flag table, in usage order.
const std::vector<CliFlag> &cliFlags();

/// Usage text rendered from cliFlags() — every parseable flag appears.
std::string usageText();

struct CliOptions {
  GcStrategy Strategy = GcStrategy::CompiledTagFree;
  GcAlgorithm Algo = GcAlgorithm::Copying;
  size_t HeapBytes = 1 << 20;
  size_t NurseryBytes = 0;
  bool Stress = false;
  /// --threads: 0 = sequential VM (default); 1 = run main as one task on
  /// the cooperative scheduler; >=2 = N tasks, one OS thread each, with
  /// per-thread TLABs and N-way parallel GC tracing. Nonzero forces
  /// tasking-safe compilation (gc_words at every site, call arguments
  /// traced) so tasks can suspend at arbitrary calls.
  unsigned Threads = 0;
  /// Mutator fast-path knobs (vm/VmExec.inc): --dispatch picks the loop
  /// (Auto = threaded where the toolchain supports computed goto),
  /// --no-fuse disables superinstruction fusion, --float-tag=box forces
  /// every float into a heap box under the tagged model, --no-tailcall
  /// disables frame reuse for self-recursive tail calls.
  DispatchMode Dispatch = DispatchMode::Auto;
  bool Fuse = true;
  bool FloatSelfTag = true;
  bool TailCalls = true;
  bool DumpIr = false;
  bool DumpMeta = false;
  bool ShowStats = false;
  bool GcLog = false;
  bool Verify = false;
  bool InjectVerifyViolation = false;
  bool HeapProfile = false;
  unsigned Retainers = 0;
  /// Typed heap-graph dump stream (support/HeapGraph.h); empty = off.
  /// Implies --heap-profile (the graph rides the profiler's visit hook).
  std::string HeapDumpPath;
  /// 0 means "not given" (default 1 = every eligible full/major
  /// collection); giving it without --heap-dump is a usage error.
  uint64_t HeapDumpEvery = 0;
  bool Monitor = false;
  std::string MonitorOutPath;
  /// 0 means "not given" (the monitor's default of 50 applies);
  /// giving it without --monitor-out is a usage error.
  uint64_t MonitorPeriodMs = 0;
  uint64_t MonitorSampleSteps = 512;
  /// Live introspection server: -1 = off, 0 = ephemeral port (the bound
  /// port is printed to stderr), else the port to bind on 127.0.0.1.
  int ServePort = -1;
  /// Keep serving the final epoch for this long after the run (so
  /// scrapers can pull end-of-run totals); requires --serve.
  uint64_t ServeLingerMs = 0;
  /// Write the final epoch as Prometheus text (abnormal exits included).
  std::string MetricsOutPath;
  /// Binary flight recording (support/FlightRecorder.h); empty = off.
  std::string FlightOutPath;
  /// 0 means "not given" (the Session's default of 64 KiB per ring
  /// applies); giving it without --flight-out is a usage error.
  uint64_t FlightBufferKb = 0;
  std::string HeapSnapshotPath;
  std::string TraceOutPath;
  std::string StatsJsonPath;
  CompileOptions Compile;
  std::string Source;
  bool HaveSource = false;
};

/// Parses \p Args (argv[1..]) into \p O. Returns false with \p Err set on
/// a bad flag, a malformed or out-of-range number, or a missing source;
/// sets \p HelpOnly when --help was given (the caller prints usageText()
/// and exits 0). File operands are read here.
bool parseCli(const std::vector<std::string> &Args, CliOptions &O,
              std::string &Err, bool &HelpOnly);

/// Compiles \p O.Source and runs it through a Session; writes program
/// output to stdout and diagnostics to stderr. Every requested artifact
/// is attempted *before* the exit code is decided, so a failing run — a
/// verify violation, a runtime error, or another artifact that could not
/// be written — still leaves the rest on disk.
int runTfgc(const CliOptions &O);

} // namespace tfgc

#endif // TFGC_DRIVER_CLI_H
