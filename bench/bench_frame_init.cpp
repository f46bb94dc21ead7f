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

void report(const char *Config, const std::string &Src, GcStrategy S,
            bool ForceZero) {
  auto P = compileOrDie(Src);
  Stats St;
  std::string Err;
  auto Col = P->makeCollector(S, GcAlgorithm::Copying, 1 << 20, St, &Err);
  if (!Col)
    std::abort();
  VmOptions VO = defaultVmOptions(S);
  VO.ZeroFrames = ForceZero; // Tagged and Appel zero regardless.
  Vm M(P->Prog, P->Image, *P->Types, *Col, VO);
  RunResult R = M.run();
  if (!R.Ok)
    std::abort();
  tableCell(Config);
  tableCell(St.get(StatId::VmCalls));
  tableCell(St.get(StatId::VmFrameWordsZeroed));
  tableCell(St.get(StatId::VmCalls)
                ? (double)St.get(StatId::VmFrameWordsZeroed) /
                      (double)St.get(StatId::VmCalls)
                : 0.0);
  tableEnd();
}

std::unique_ptr<CompiledProgram> &queens() {
  static auto P = compileOrDie(wl::nqueens(7));
  return P;
}

void BM_GoldbergNoZeroing(benchmark::State &State) {
  timedRun(State, *queens(), GcStrategy::CompiledTagFree,
           GcAlgorithm::Copying, 1 << 20);
}
void BM_GoldbergForcedZeroing(benchmark::State &State) {
  timedRun(State, *queens(), GcStrategy::CompiledTagFree,
           GcAlgorithm::Copying, 1 << 20, /*ZeroFramesOverride=*/true);
}
void BM_AppelZeroes(benchmark::State &State) {
  timedRun(State, *queens(), GcStrategy::AppelTagFree, GcAlgorithm::Copying,
           1 << 20);
}
BENCHMARK(BM_GoldbergNoZeroing);
BENCHMARK(BM_GoldbergForcedZeroing);
BENCHMARK(BM_AppelZeroes);

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("frame_init", argc, argv);
  jsonWorkload("nqueens");
  std::string Src = wl::nqueens(7);
  tableHeader("E9: frame initialization (nqueens 7, call-heavy)",
              "Appel/tagged must zero every frame at entry; per-site "
              "routines trace only initialized slots and skip it",
              {"configuration", "calls", "words zeroed", "words/call"});
  report("goldberg (no zeroing)", Src, GcStrategy::CompiledTagFree, false);
  report("goldberg + forced zero", Src, GcStrategy::CompiledTagFree, true);
  report("appel (must zero)", Src, GcStrategy::AppelTagFree, false);
  report("tagged (must zero)", Src, GcStrategy::Tagged, false);
  std::printf("\nExpected shape: the paper's method zeroes nothing; "
              "Appel/tagged zero every\nframe word on every call — pure "
              "mutator overhead visible in the timings.\n\n");
  benchmark::Initialize(&argc, argv);
  Sink.runBenchmarksAndWrite();
  return 0;
}
