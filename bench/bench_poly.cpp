//===- bench/bench_poly.cpp - E7: polymorphic collection -----------------===//
///
/// Paper section 3 vs section 1.1.1: Goldberg's method traverses the
/// stack at most twice (one pointer-reversal pass, one oldest-to-newest
/// pass threading type GC routines); Appel's reconstruction walks the
/// dynamic chain downward for every polymorphic frame, which is quadratic
/// in stack depth. This bench sweeps the depth of a polymorphic stack and
/// reports chain steps, reversal steps, type-GC closures built, and pause
/// times.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

void reportRow(int Depth, const char *Name, const Stats &St) {
  uint64_t N = St.get(StatId::GcCollections);
  tableCell((uint64_t)Depth);
  tableCell(Name);
  tableCell(N);
  tableCell(St.get(StatId::GcPtrReversalSteps));
  tableCell(St.get(StatId::GcChainSteps));
  tableCell(St.get(StatId::GcTgNodes));
  tableCell(St.get(StatId::GcTgCacheHits));
  tableCell(St.get(StatId::GcTgCacheMisses));
  tableCell(N ? (double)St.get(StatId::GcPauseNsTotal) / (double)N / 1000.0
              : 0.0);
  tableEnd();
}

void reportDepth(int Depth) {
  jsonWorkload("polyDeep/" + std::to_string(Depth));
  Stats G = runOnce(wl::polyDeep(Depth, 48), GcStrategy::CompiledTagFree,
                    GcAlgorithm::Copying, 1 << 12, /*Stress=*/true);
  reportRow(Depth, "goldberg", G);
  Stats A = runOnce(wl::polyDeep(Depth, 48), GcStrategy::AppelTagFree,
                    GcAlgorithm::Copying, 1 << 12, /*Stress=*/true);
  reportRow(Depth, "appel", A);
  // Ablation: specialize away the polymorphism entirely (code growth in
  // exchange for purely monomorphic collection — the alternative the
  // paper's section 3 exists to avoid).
  CompileOptions Mono;
  Mono.Monomorphise = true;
  Stats M = runOnce(wl::polyDeep(Depth, 48), GcStrategy::CompiledTagFree,
                    GcAlgorithm::Copying, 1 << 12, /*Stress=*/true, Mono);
  reportRow(Depth, "monomorphised", M);
}

/// Wall time at depth 96 (unstressed) and on the paper's own section-3
/// program (stressed), both on a 4 KiB heap.
void reportTimings() {
  CompileOptions Mono;
  Mono.Monomorphise = true;
  auto Deep = compileOrDie(wl::polyDeep(96, 300));
  auto DeepMono = compileOrDie(wl::polyDeep(96, 300), Mono);
  auto Paper = compileOrDie(wl::polyPaper());
  const GcStrategy Appel = GcStrategy::AppelTagFree;
  const GcStrategy Interp = GcStrategy::InterpretedTagFree;
  timingTable(
      "E7t: polymorphic collection wall time (4 KiB heap)",
      {bareTimed("polyDeep/96", "goldberg", *Deep, {.HeapBytes = 1 << 12}),
       bareTimed("polyDeep/96", "appel", *Deep,
                 {.Strategy = Appel, .HeapBytes = 1 << 12}),
       bareTimed("polyDeep/96", "monomorphised", *DeepMono,
                 {.HeapBytes = 1 << 12}),
       bareTimed("polyPaper, stress", "goldberg", *Paper,
                 {.HeapBytes = 1 << 12, .Stress = true}),
       bareTimed("polyPaper, stress", "interpreted", *Paper,
                 {.Strategy = Interp, .HeapBytes = 1 << 12, .Stress = true}),
       bareTimed("polyPaper, stress", "appel", *Paper,
                 {.Strategy = Appel, .HeapBytes = 1 << 12, .Stress = true})});
}

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("poly", argc, argv);
  tableHeader("E7: polymorphic frames, Goldberg vs Appel (polyDeep sweep)",
              "ptr reversal steps grow linearly with depth; Appel chain "
              "steps grow quadratically",
              {"depth", "method", "collections", "reversal steps",
               "chain steps", "tg closures", "cache hits", "cache misses",
               "avg pause us"});
  for (int Depth : {8, 16, 32, 64, 128})
    reportDepth(Depth);
  std::printf("\nExpected shape: goldberg chain steps are always zero "
              "(single two-pass traversal);\nappel's grow ~quadratically "
              "with depth — the cost the paper's method avoids.\n"
              "Ground-type closures are cached across collections: cache "
              "hits dwarf misses\nonce the second collection runs, so tg "
              "closures built stays near-flat in depth.\n");
  reportTimings();
  Sink.write();
  return 0;
}
