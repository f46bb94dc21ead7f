//===- driver/Session.h - One assembled tfgc run ----------------*- C++ -*-===//
///
/// \file
/// How a run is put together, in one place. A Session works from the
/// CliOptions of one run: it builds the collector, attaches every
/// observability component those options ask for — heap profiler and
/// typed heap graph, monitor, epoch aggregator and introspection server,
/// flight recorder, Chrome trace and gc-log — runs main on the sequential
/// VM, the cooperative scheduler or one OS thread per task, and writes
/// every artifact at finish(). runTfgc, the experiment benches and the
/// test suite all assemble their runs here, so an attachment is measured
/// and tested exactly as tfgc wires it.
///
///   CliOptions O;                            // or parseCli()
///   auto P = Compiler(sessionCompileOptions(O)).compile(Source);
///   Session S(*P, O);
///   if (int Rc = S.open())                   // collector + attachments
///     return Rc;
///   RunResult R = S.run();
///   bool Written = S.finish();               // every artifact
///
/// Between open() and run() a caller may add a sink to an attachment
/// (a monitor stream, a heap-graph chunk sink, a telemetry event sink)
/// or build its own task runtime over collector() with taskingOptions().
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_DRIVER_SESSION_H
#define TFGC_DRIVER_SESSION_H

#include "driver/Cli.h"
#include "support/FlightRecorder.h"
#include "support/HeapGraph.h"
#include "support/Introspect.h"
#include "tasking/Tasking.h"

#include <fstream>
#include <memory>
#include <vector>

namespace tfgc {

/// The compile options a run under \p O needs: O.Compile, made
/// tasking-safe for --threads>=1. Tasks suspend at arbitrary calls (paper
/// section 4), so every call site keeps its gc_word and outgoing call
/// arguments stay traced.
CompileOptions sessionCompileOptions(const CliOptions &O);

class Session {
public:
  /// \p P must be compiled with sessionCompileOptions(O) and outlive the
  /// session.
  Session(CompiledProgram &P, const CliOptions &O);
  /// Attachments hold pointers into the session: it never moves.
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Builds the collector and attaches everything \p O asks for. Returns
  /// 0, or the exit code of a failure already reported on stderr: 1 when
  /// the program cannot run under these options, 2 when an artifact or
  /// the server cannot be opened.
  int open();

  /// Runs main: on the sequential VM for --threads=0, else as --threads
  /// tasks (see runTasks).
  RunResult run();

  struct TaskSpawn {
    FuncId Entry;
    std::vector<int64_t> Args;
  };
  /// Runs \p Tasks over the shared heap: on the cooperative scheduler for
  /// --threads=1, one OS thread per task for --threads>=2. The result
  /// carries every task's output, the first failure, and the first task's
  /// value. Requires --threads>=1.
  RunResult runTasks(const std::vector<TaskSpawn> &Tasks);

  /// Closes the streams and writes every requested artifact — trace,
  /// flight recording, heap dump, monitor summary, metrics, stats JSON,
  /// heap snapshot — trying each even after one fails, then lingers the
  /// server if asked. Returns false when any could not be written (each
  /// failure is reported on stderr).
  bool finish();

  /// Options for a task runtime built over collector(): the run's
  /// fast-path configuration and, for --threads>=2, the flight recorder.
  TaskingOptions taskingOptions() const;

  const CliOptions &options() const { return O; }
  Stats &stats() { return St; }
  Collector &collector() { return *Col; }
  HeapProfiler &profiler() { return Prof; }
  HeapGraph &graph() { return Graph; }
  Monitor &monitor() { return Mon; }
  EpochAggregator &epochs() { return Agg; }
  /// Null without --flight-out.
  FlightRecorder *flight() { return Flight.get(); }
  /// The bound introspection port; 0 without --serve.
  uint16_t servePort() const { return Port; }

private:
  CompiledProgram &P;
  CliOptions O;
  bool WantEpochs;
  Stats St;
  std::unique_ptr<Collector> Col;
  HeapProfiler Prof;
  HeapGraph Graph;
  Monitor Mon;
  std::ofstream MonOut;
  EpochAggregator Agg;
  IntrospectServer Srv;
  uint16_t Port = 0;
  std::unique_ptr<FlightRecorder> Flight;
  std::ofstream TraceOut;
};

} // namespace tfgc

#endif // TFGC_DRIVER_SESSION_H
