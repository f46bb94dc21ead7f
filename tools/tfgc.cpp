//===- tools/tfgc.cpp - Command-line driver -------------------------------===//
///
/// Compiles and runs a MiniML program under a selectable GC strategy.
///
///   tfgc [options] file.mml        run a program
///   tfgc [options] -e 'expr'       run inline source
///
/// The options are defined in one table in src/driver/Cli.cpp — run
/// `tfgc --help` for the full list; highlights:
///
///   --strategy=S       tagged | compiled (default) | interpreted | appel
///   --algo=A           copying (default) | marksweep | generational
///   --heap=BYTES       initial heap size (default 1 MiB)
///   --verify           re-trace after every collection; exit 3 on
///                      violations
///   --gc-log / --trace-out=FILE / --stats-json=FILE
///                      collection telemetry (log lines, Chrome trace,
///                      counters+histograms JSON)
///   --heap-profile     allocation-site + typed-heap profiling (tag-free:
///                      attribution without per-object headers)
///   --heap-snapshot=F  write the last collection's typed snapshot as
///                      JSON (render with tools/heap_report.py)
///   --retainers=N      retained-size diagnostics: top-N dominators of
///                      the typed heap graph, each with a sample root
///                      path
///   --heap-dump=F      stream that graph (nodes, typed edges, roots,
///                      lifetimes) at full/major collections (decode
///                      with tools/heap_graph_report.py)
///
/// Exit codes: 0 success, 1 compile/runtime error, 2 usage or I/O error,
/// 3 verify violations. Diagnostic files are flushed even on abnormal
/// exit.
///
//===----------------------------------------------------------------------===//

#include "driver/Cli.h"

#include <cstdio>

using namespace tfgc;

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  if (!parseCli(Args, O, Err, HelpOnly)) {
    std::fprintf(stderr, "%s\n%s", Err.c_str(), usageText().c_str());
    return 2;
  }
  if (HelpOnly) {
    std::fputs(usageText().c_str(), stdout);
    return 0;
  }
  return runTfgc(O);
}
