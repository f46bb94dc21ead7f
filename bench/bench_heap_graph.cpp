//===- bench/bench_heap_graph.cpp - E17: heap-graph capture cost ---------===//
///
/// What does the typed heap-graph pipeline cost? The graph rides the
/// profiler's first-visit hook, which itself rides the collector's
/// type-reconstructing trace, so the claim to verify is that the whole
/// subsystem is free until a capture actually fires:
///
///   off      neither profiler nor graph attached: the seed-equivalent
///            path. `--heap-dump` absent leaves the mutator and the
///            tracers bit-identical to a build without HeapGraph.
///   profile  profiler attached, its graph without a destination so no
///            capture fires: the E11 baseline this bench layers on.
///   armed    profiler + graph attached with a huge --heap-dump-every,
///            so the every-N gate rejects every capture: zero chunks,
///            and the per-visit cost is a single predicted-false
///            branch. This is the "dump-off" state the E17 acceptance
///            prices.
///   dump     profiler + graph capturing at EVERY full/major collection
///            (--heap-dump-every=1): node+edge recording, dominator
///            retention, serialization, and the sink write, priced so
///            users know what a dump-heavy run costs before tracing a
///            leak in a tight loop.
///
/// Reports wall-clock medians over interleaved runs (page cache, CPU
/// frequency, and load drift hit every mode equally) for listChurn
/// (allocation-heavy, full copying) and generationalChurn
/// (minor-dominated — minors are never captured, so `dump` only pays at
/// majors).
///
/// Acceptance line (E17): armed/profile <= 1.01 on listChurn — dumps
/// switched off cost at most 1% on top of profiling alone.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

CostWorkload ListChurn{"listChurn", wl::listChurn(1000, 64)};
CostWorkload GenChurn =
    genWorkload("generationalChurn", wl::generationalChurn(20000, 30, 4000));

enum GraphMode { Off = 0, Profile = 1, Armed = 2, Dump = 3 };
constexpr int NumModes = 4;

const char *modeName(GraphMode M) {
  switch (M) {
  case Off:
    return "off";
  case Profile:
    return "profile";
  case Armed:
    return "armed";
  default:
    return "dump";
  }
}

/// One compile-free run of \p W under \p Mode, assembled as tfgc
/// assembles --heap-profile with a sink-only heap graph (no fs jitter)
/// gated by --heap-dump-every; optionally the run's wall time, chunk
/// count and dumped bytes.
std::unique_ptr<Session> graphedRun(CostWorkload &W, GraphMode Mode,
                                    uint64_t *WallNs = nullptr,
                                    uint64_t *Chunks = nullptr,
                                    uint64_t *Bytes = nullptr) {
  CliOptions O = W.options();
  O.HeapProfile = Mode != Off;
  O.HeapDumpEvery = Mode == Armed ? 1u << 30 : 1;
  uint64_t Dumped = 0;
  auto S = sessionRun(W.program(), O, WallNs, [&](Session &Sn) {
    if (Mode == Armed || Mode == Dump)
      Sn.graph().setChunkSink(
          [&Dumped](const std::string &Chunk) { Dumped += Chunk.size(); });
  });
  S->graph().setChunkSink(nullptr); // Dumped dies with this frame.
  if (Chunks)
    *Chunks = S->graph().chunksWritten();
  if (Bytes)
    *Bytes = Dumped;
  return S;
}

void reportCost() {
  tableHeader("E17: heap-graph capture cost (compiled tag-free)",
              "wall-clock medians over 9 interleaved runs; 'ratio' is vs "
              "'profile' (the E11 baseline); 'armed' gates captures off "
              "with a huge every-N, 'dump' captures every full/major",
              {"workload", "mode", "median ms", "ratio", "collections",
               "chunks", "dump KiB"});
  bool Pass = true;
  for (CostWorkload *W : {&ListChurn, &GenChurn}) {
    jsonWorkload(W->Name);
    std::vector<uint64_t> Med = medianWallNs(NumModes, 9, [&](size_t M) {
      uint64_t Ns = 0;
      graphedRun(*W, (GraphMode)M, &Ns);
      return Ns;
    });
    for (GraphMode Mode : {Off, Profile, Armed, Dump}) {
      double Ratio =
          Med[Profile] ? (double)Med[Mode] / (double)Med[Profile] : 0.0;
      uint64_t Chunks = 0, Bytes = 0;
      auto S = graphedRun(*W, Mode, nullptr, &Chunks, &Bytes);
      jsonRecord(std::string(gcStrategyName(GcStrategy::CompiledTagFree)) +
                     "+" + modeName(Mode),
                 *S);
      tableCell(W->Name);
      tableCell(modeName(Mode));
      tableCell((double)Med[Mode] / 1e6);
      tableCell(Ratio);
      tableCell(S->stats().get(StatId::GcCollections));
      tableCell(Chunks);
      tableCell((double)Bytes / 1024.0);
      tableEnd();
      if (W == &ListChurn && Mode == Armed &&
          Ratio > 1.01)
        Pass = false;
    }
  }
  std::printf(
      "\nE17 acceptance — dumps off (armed) cost <= 1.01x profiling alone "
      "on listChurn: %s\n",
      Pass ? "PASS"
           : "not met this run — the armed path adds one predicted-false "
             "branch per\nfirst-visit and captures nothing; rerun on a "
             "quiet machine before reading\nanything into a miss");
}

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("heap_graph", argc, argv);
  reportCost();
  std::printf(
      "\nExpected shape: 'off' is the seed path (no profiler, no graph — "
      "`--heap-dump`\nabsent leaves the tracers untouched); 'armed' tracks "
      "'profile' within noise; 'dump'\npays per capture for edge "
      "recording, dominators, and serialization — visible on\nlistChurn "
      "(every collection is a full) and small on generationalChurn "
      "(minors\nare never captured).\n\n");
  Sink.write();
  return 0;
}
