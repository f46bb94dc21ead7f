//===- bench/bench_frame_init.cpp - E9: frame zeroing cost ---------------===//
///
/// Paper section 1.1.1's critique of per-procedure descriptors: if the
/// collector assumes every slot of every frame is valid, "all local
/// variables [must be] created as soon as the procedure is called, and
/// immediately initialized. This imposes an additional time and space
/// overhead during execution." Per-call-site routines (the paper's
/// method) trace only initialized slots, so frames need no zeroing. This
/// bench measures words zeroed and the wall-time impact on call-heavy
/// code.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

void report(const char *Config, CompiledProgram &P, const BareRun &C) {
  Stats St;
  bareRunNs(P, C, &St);
  if (JsonSink *Sink = JsonSink::active())
    Sink->record(std::string(gcStrategyName(C.Strategy)) +
                     (C.ForceZeroFrames ? "+zero-frames" : ""),
                 C.Algo, C.HeapBytes, St);
  tableCell(Config);
  tableCell(St.get(StatId::VmCalls));
  tableCell(St.get(StatId::VmFrameWordsZeroed));
  tableCell(St.get(StatId::VmCalls)
                ? (double)St.get(StatId::VmFrameWordsZeroed) /
                      (double)St.get(StatId::VmCalls)
                : 0.0);
  tableEnd();
}

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("frame_init", argc, argv);
  jsonWorkload("nqueens");
  auto P = compileOrDie(wl::nqueens(7));
  // Tagged and Appel zero regardless; ForceZeroFrames adds it to Goldberg.
  const BareRun NoZero{.HeapBytes = 1 << 20};
  const BareRun ForcedZero{.HeapBytes = 1 << 20, .ForceZeroFrames = true};
  const BareRun Appel{.Strategy = GcStrategy::AppelTagFree,
                      .HeapBytes = 1 << 20};
  tableHeader("E9: frame initialization (nqueens 7, call-heavy)",
              "Appel/tagged must zero every frame at entry; per-site "
              "routines trace only initialized slots and skip it",
              {"configuration", "calls", "words zeroed", "words/call"});
  report("goldberg (no zeroing)", *P, NoZero);
  report("goldberg + forced zero", *P, ForcedZero);
  report("appel (must zero)", *P, Appel);
  report("tagged (must zero)", *P,
         {.Strategy = GcStrategy::Tagged, .HeapBytes = 1 << 20});
  std::printf("\nExpected shape: the paper's method zeroes nothing; "
              "Appel/tagged zero every\nframe word on every call — pure "
              "mutator overhead visible in the timings below.\n");
  timingTable("E9t: frame initialization wall time (nqueens 7)",
              {bareTimed("nqueens", "goldberg (no zeroing)", *P, NoZero),
               bareTimed("nqueens", "goldberg + forced zero", *P,
                         ForcedZero),
               bareTimed("nqueens", "appel (must zero)", *P, Appel)});
  Sink.write();
  return 0;
}
