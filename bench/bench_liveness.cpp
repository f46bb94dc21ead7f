//===- bench/bench_liveness.cpp - E5: live-variable accuracy -------------===//
///
/// Paper claim (section 1, "More accurate recognition of live data and
/// garbage"): per-call-site routines trace only variables that are still
/// live, so dead structures are reclaimed promptly. The deadVars workload
/// drops a large list just before a long allocating call; this bench
/// compares retained work with liveness on, liveness off, and under the
/// strategies that cannot use liveness at all (tagged scan, Appel
/// per-procedure descriptors).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

void report(const char *Config, const std::string &Src, GcStrategy S,
            bool UseLiveness, size_t HeapBytes) {
  CompileOptions O;
  O.UseLiveness = UseLiveness;
  Stats St = runOnce(Src, S, GcAlgorithm::Copying, HeapBytes, true, O);
  uint64_t N = St.get(StatId::GcCollections);
  tableCell(Config);
  tableCell(N);
  tableCell(St.get(StatId::GcObjectsVisited));
  tableCell(St.get(StatId::GcWordsVisited));
  tableCell(N ? (double)St.get(StatId::GcWordsVisited) / (double)N : 0.0);
  tableCell(St.get(StatId::GcSlotsTraced));
  tableEnd();
}

/// Wall time on an 8 KiB heap without stress, where the retained dead
/// list costs collections as well as copying.
void reportTimings(const std::string &Src) {
  CompileOptions NoLiveness;
  NoLiveness.UseLiveness = false;
  auto Live = compileOrDie(Src);
  auto NoLive = compileOrDie(Src, NoLiveness);
  timingTable("E5t: deadVars wall time at an 8 KiB heap",
              {bareTimed("deadVars", "compiled+liveness", *Live,
                         {.HeapBytes = 1 << 13}),
               bareTimed("deadVars", "compiled, no liveness", *NoLive,
                         {.HeapBytes = 1 << 13}),
               bareTimed("deadVars", "tagged (scan all)", *Live,
                         {.Strategy = GcStrategy::Tagged,
                          .HeapBytes = 1 << 13})});
}

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("liveness", argc, argv);
  jsonWorkload("deadVars");
  std::string Src = wl::deadVars(600, 600);
  tableHeader("E5: dead-variable retention (deadVars 600/600, GC stress)",
              "a 600-cons list dies before a 600-cons allocating call; "
              "words visited measures what each configuration keeps "
              "copying",
              {"configuration", "collections", "objs visited",
               "words visited", "words/collection", "slots traced"});
  report("compiled+liveness", Src, GcStrategy::CompiledTagFree, true,
         1 << 20);
  report("compiled, no liveness", Src, GcStrategy::CompiledTagFree, false,
         1 << 20);
  report("interpreted+liveness", Src, GcStrategy::InterpretedTagFree, true,
         1 << 20);
  report("appel (all slots)", Src, GcStrategy::AppelTagFree, true, 1 << 20);
  report("tagged (scan all)", Src, GcStrategy::Tagged, true, 1 << 20);
  std::printf("\nExpected shape: with liveness the dead list is not "
              "traced, so words/collection\ndrops sharply; no-liveness, "
              "Appel and tagged all keep dragging the dead list\nthrough "
              "every collection.\n");
  reportTimings(Src);
  Sink.write();
  return 0;
}
