//===- bench/bench_mutator.cpp - E1/E13: mutator-side costs --------------===//
///
/// E1 — paper claim (section 1, "More efficient execution"): manipulating
/// type tags costs the mutator — integers must be untagged before
/// arithmetic and retagged after, and floats are boxed. The tag-free
/// strategies pay none of that. This bench runs allocation-free integer
/// arithmetic and a float kernel under the tagged and tag-free value
/// models and reports both wall time and the counted tag operations /
/// float boxes.
///
/// E13 — mutator fast path: the same VM executes under two
/// configurations, interleaved A/B with medians so machine noise cancels:
///
///   A (baseline)  --dispatch=switch, fusion off, floats boxed — the
///                 pre-fast-path interpreter;
///   B (fast)      threaded dispatch, superinstruction fusion, float
///                 self-tagging — the production defaults.
///
/// Both run the identical decoded semantics (the dispatch-equivalence
/// test suite holds the GC counters bit-identical), so the delta is pure
/// dispatch + fusion + boxing cost.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

void printDispatchTable() {
  struct Kernel {
    const char *Name;
    std::unique_ptr<CompiledProgram> P;
    GcStrategy S;
  } Kernels[] = {
      {"arith", compileOrDie(wl::arithKernel(200000)),
       GcStrategy::CompiledTagFree},
      {"floatMath", compileOrDie(wl::floatMath(300000)), GcStrategy::Tagged},
      {"opcodeMix", compileOrDie(wl::opcodeMix(200000)),
       GcStrategy::CompiledTagFree},
  };

  tableHeader(
      "E13: mutator fast path (interleaved A/B, median of 7 rounds)",
      "A = switch dispatch, no fusion, boxed floats, no tail calls; "
      "B = threaded + fused + self-tagged + frame-reusing tail calls",
      {"kernel", "A ms (median)", "B ms (median)", "speedup", "B superinstrs",
       "B tail calls", "B float boxes"});
  for (Kernel &K : Kernels) {
    // Mode 0 is A, mode 1 is B; St keeps each mode's last run.
    Stats St[2];
    std::vector<uint64_t> Med = medianWallNs(2, 7, [&](size_t M) {
      return bareRunNs(*K.P,
                       {.Strategy = K.S, .HeapBytes = 1 << 22,
                        .FastPath = M == 1},
                       &St[M]);
    });
    if (JsonSink *Sink = JsonSink::active()) {
      Sink->setWorkload(std::string(K.Name) + "/e13-baseline");
      Sink->record(gcStrategyName(K.S), GcAlgorithm::Copying, 1 << 22, St[0]);
      Sink->setWorkload(std::string(K.Name) + "/e13-fastpath");
      Sink->record(gcStrategyName(K.S), GcAlgorithm::Copying, 1 << 22, St[1]);
    }
    tableCell(K.Name);
    tableCell((double)Med[0] / 1e6);
    tableCell((double)Med[1] / 1e6);
    tableCell((double)Med[0] / (double)Med[1]);
    tableCell(St[1].get(StatId::VmSuperinstructions));
    tableCell(St[1].get(StatId::VmTailCalls));
    tableCell(St[1].get(StatId::VmFloatBoxes));
    tableEnd();
  }
  std::printf("\nExpected shape: >=1.5x on arith/floatMath; baseline "
              "executes zero superinstructions;\nself-tagging drives "
              "vm.float_boxes to 0 on the pure-float kernel.\n");
}

/// E1's kernels: the arith and float kernels on a copying heap that
/// never fills, and collection throughput on a small mark-sweep heap.
struct Kernel {
  const char *Name;
  std::string Src;
  GcAlgorithm Algo;
  size_t Heap;
};

std::vector<Kernel> kernels() {
  return {
      {"arith", wl::arithKernel(200000), GcAlgorithm::Copying, 1 << 22},
      {"float", wl::floatKernel(64, 200), GcAlgorithm::Copying, 1 << 22},
      {"listChurn", wl::listChurn(200, 64), GcAlgorithm::MarkSweep, 1 << 14},
  };
}

const GcStrategy Models[] = {GcStrategy::Tagged, GcStrategy::CompiledTagFree};

const char *modelName(GcStrategy S) {
  return S == GcStrategy::Tagged ? "tagged" : "tag-free";
}

std::string rowName(const Kernel &K) {
  return std::string(K.Name) + (K.Algo == GcAlgorithm::MarkSweep ? "/ms" : "");
}

void printTable() {
  tableHeader("E1: mutator overhead of tagging",
              "arith kernel: 200k iterations of add/mul/mod; float kernel: "
              "float list build+sum",
              {"workload", "model", "vm steps", "tag ops", "float boxes",
               "heap allocs"});
  for (const Kernel &K : kernels()) {
    jsonWorkload(K.Name);
    for (GcStrategy S : Models) {
      Stats St = runOnce(K.Src, S, K.Algo, K.Heap);
      tableCell(rowName(K));
      tableCell(modelName(S));
      tableCell(St.get(StatId::VmSteps));
      tableCell(St.get(StatId::VmTagOps));
      tableCell(St.get(StatId::VmFloatBoxes));
      tableCell(St.get(StatId::HeapObjectsAllocated));
      tableEnd();
    }
  }
  std::printf("\nExpected shape: identical step counts; the tagged model "
              "additionally executes\ntag strip/reinstate ops and boxes "
              "every float, visible in the timings below.\n");
}

void printTimings() {
  std::vector<std::unique_ptr<CompiledProgram>> Programs;
  std::vector<Timed> Rows;
  for (const Kernel &K : kernels()) {
    Programs.push_back(compileOrDie(K.Src));
    for (GcStrategy S : Models)
      Rows.push_back(bareTimed(
          rowName(K), modelName(S), *Programs.back(),
          {.Strategy = S, .Algo = K.Algo, .HeapBytes = K.Heap}));
  }
  timingTable("E1t: mutator wall time, tagged vs tag-free", Rows);
}

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("mutator", argc, argv);
  printTable();
  printTimings();
  printDispatchTable();
  Sink.write();
  return 0;
}
