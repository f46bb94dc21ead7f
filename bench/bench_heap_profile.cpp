//===- bench/bench_heap_profile.cpp - E11: heap profiler cost ------------===//
///
/// What does tag-free heap profiling cost? The profiler rides machinery
/// the collector already runs — the type-reconstructing trace — so the
/// claim to verify is that attribution is nearly free:
///
///   off      profiler not attached: the mutator pays one null check per
///            allocation (the Vm::finishAlloc guard). Must be within
///            noise of a build without the profiler at all.
///   profile  allocation-site attribution + typed snapshot: a counter
///            bump and an (addr, site) log append per allocation, a
///            binary-search lookup per first visit during collections.
///   retain   profile + retention diagnostics: a typed heap-graph capture
///            (nodes and traced edges) and one dominator pass on every
///            full/major collection — the expensive tier, priced here so
///            users know what --retainers costs before turning it on in a
///            tight loop.
///
/// Reports wall-clock medians and ratios for listChurn (allocation-heavy,
/// full copying) and generationalChurn (minor-dominated), plus the
/// profiler's own counters. The google-benchmark entries at the bottom
/// feed BENCH_heap_profile.json for the perf trajectory.
///
/// Acceptance line: profile/off ratio <= 1.05 on both workloads.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

CostWorkload ListChurn{"listChurn", wl::listChurn(200, 64)};
CostWorkload GenChurn =
    genWorkload("generationalChurn", wl::generationalChurn(20000, 30, 4000));

enum ProfileMode { Off = 0, Profile = 1, Retain = 2 };

const char *modeName(ProfileMode M) {
  return M == Off ? "off" : M == Profile ? "profile" : "retain";
}

/// One compile-free run of \p W under \p Mode, assembled as tfgc
/// assembles --heap-profile (profile) or --retainers=10 (retain).
std::unique_ptr<Session> profiledRun(CostWorkload &W, ProfileMode Mode,
                                     uint64_t *WallNs = nullptr) {
  CliOptions O = W.options();
  O.HeapProfile = Mode != Off;
  O.Retainers = Mode == Retain ? 10 : 0;
  return sessionRun(W.program(), O, WallNs);
}

std::string jsonLabel(ProfileMode Mode) {
  return std::string(gcStrategyName(GcStrategy::CompiledTagFree)) + "+" +
         modeName(Mode);
}

void reportCost() {
  tableHeader("E11: heap profiler cost (compiled tag-free)",
              "wall-clock medians over 9 interleaved runs; 'ratio' is vs "
              "the profiler off; 'retain' adds dominator-tree retention on "
              "full/major collections",
              {"workload", "mode", "median ms", "ratio", "collections",
               "allocs tracked", "visits tracked"});
  bool Pass = true;
  for (CostWorkload *W : {&ListChurn, &GenChurn}) {
    jsonWorkload(W->Name);
    std::array<uint64_t, 3> Med = medianWallNs<3>(9, [&](size_t M) {
      uint64_t Ns = 0;
      profiledRun(*W, (ProfileMode)M, &Ns);
      return Ns;
    });
    for (ProfileMode Mode : {Off, Profile, Retain}) {
      double Ratio = Med[Off] ? (double)Med[Mode] / (double)Med[Off] : 0.0;
      auto S = profiledRun(*W, Mode);
      jsonRecord(jsonLabel(Mode), *S);
      tableCell(W->Name);
      tableCell(modeName(Mode));
      tableCell((double)Med[Mode] / 1e6);
      tableCell(Ratio);
      tableCell(S->stats().get(StatId::GcCollections));
      tableCell(S->profiler().allocTotal());
      tableCell(S->profiler().visitObjectsTotal());
      tableEnd();
      if (Mode == Profile && Ratio > 1.05)
        Pass = false;
    }
  }
  std::printf(
      "\nmutator-side acceptance is `off` vs a profiler-free build "
      "(identical code path\nbut one null check per allocation); "
      "profile/off <= 1.05 on both workloads: %s\n",
      Pass ? "PASS"
           : "not met — listChurn bounds the mutator-side cost, while\n"
             "generationalChurn is a GC-bound torture test (500+ "
             "collections) that prices\nthe per-visit attribution itself; "
             "see EXPERIMENTS.md E11 for the cost model");
}

void reportSnapshot() {
  // What a snapshot actually contains for a churn workload, and that its
  // invariants hold outside the test suite too.
  CostWorkload Fresh =
      genWorkload("generationalChurn", wl::generationalChurn(20000, 30, 4000));
  auto Run = profiledRun(Fresh, Retain);
  jsonRecord(jsonLabel(Retain), *Run);
  const HeapProfiler::Snapshot &S = Run->profiler().snapshot();
  std::printf("\nlast snapshot: seq=%llu kind=%s objects=%llu bytes=%llu "
              "(covered=%llu) retainers=%zu\n",
              (unsigned long long)S.Seq, gcEventKindName(S.Kind),
              (unsigned long long)S.Objects,
              (unsigned long long)(S.Words * sizeof(Word)),
              (unsigned long long)S.CoveredBytes, S.Retainers.size());
  if (S.Valid && S.kindBytes() != S.CoveredBytes) {
    std::fprintf(stderr, "snapshot invariant violated in bench run\n");
    std::abort();
  }
}

void BM_ListChurn(benchmark::State &State, ProfileMode Mode) {
  for (auto _ : State) {
    uint64_t W = 0;
    auto S = profiledRun(ListChurn, Mode, &W);
    State.counters["collections"] =
        (double)S->stats().get(StatId::GcCollections);
    benchmark::DoNotOptimize(W);
  }
}

void BM_GenChurn(benchmark::State &State, ProfileMode Mode) {
  for (auto _ : State) {
    uint64_t W = 0;
    auto S = profiledRun(GenChurn, Mode, &W);
    State.counters["collections"] =
        (double)S->stats().get(StatId::GcCollections);
    benchmark::DoNotOptimize(W);
  }
}

BENCHMARK_CAPTURE(BM_ListChurn, off, Off);
BENCHMARK_CAPTURE(BM_ListChurn, profile, Profile);
BENCHMARK_CAPTURE(BM_ListChurn, retain, Retain);
BENCHMARK_CAPTURE(BM_GenChurn, off, Off);
BENCHMARK_CAPTURE(BM_GenChurn, profile, Profile);
BENCHMARK_CAPTURE(BM_GenChurn, retain, Retain);

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("heap_profile", argc, argv);
  reportCost();
  reportSnapshot();
  std::printf(
      "\nExpected shape: 'profile' costs about a third more than 'off' on "
      "both workloads\n(EXPERIMENTS.md E11: ~1.3-1.4x on a 4-vCPU VM, so "
      "the 1.05 bar is not met) — a\ncounter bump and a vector append per "
      "allocation, and a site lookup per first\nvisit. 'retain' pays a "
      "further premium per full/major collection for the graph\ncapture "
      "and dominator pass: ~1.15x 'profile' on listChurn, ~3x on "
      "generationalChurn.\n\n");
  benchmark::Initialize(&argc, argv);
  Sink.runBenchmarksAndWrite();
  return 0;
}
