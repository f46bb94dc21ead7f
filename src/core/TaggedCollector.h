//===- core/TaggedCollector.h - Tagged baseline -----------------*- C++ -*-===//
///
/// \file
/// The program-independent baseline the paper wants to beat: every word
/// carries a tag bit, every object a header, and the collector needs no
/// compiler-generated metadata at all — it scans every slot of every frame
/// and every payload word of every Scan-kind object by tag bit. The costs
/// show up elsewhere: headers (E2), boxed floats (E1/E2), tag arithmetic
/// (E1), and no dead-variable filtering (E5).
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_CORE_TAGGEDCOLLECTOR_H
#define TFGC_CORE_TAGGEDCOLLECTOR_H

#include "core/Collector.h"
#include "core/Space.h"

namespace tfgc {

class TaggedCollector : public Collector {
public:
  TaggedCollector(GcAlgorithm Algo, size_t HeapBytes, Stats &St,
                  size_t NurseryBytes = 0)
      : Collector(ValueModel::Tagged, Algo, HeapBytes, St, NurseryBytes) {}

  /// The tag scan reads every slot of every frame.
  bool scansUninitializedSlots() const override { return true; }

protected:
  void traceRoots(RootSet &Roots, Space &Sp) override;
  void traceRemset(Space &Sp) override;

private:
  /// Traces one word by tag bit + header, queueing Scan-kind payloads.
  /// Counters land in \p S; \p Census non-null routes census increments
  /// into a GC worker's private accumulator (and suppresses the profiler,
  /// whose visit stream is serial-only). These run on the concrete space
  /// (dispatchSpace), so the per-object space calls are direct.
  template <class SpaceT>
  Word traceWord(SpaceT &Sp, std::vector<Word> &ScanList, Word W, Stats &S,
                 CensusCounts *Census);
  template <class SpaceT>
  void drainScanList(SpaceT &Sp, std::vector<Word> &ScanList, Stats &S,
                     CensusCounts *Census);
  template <class SpaceT>
  void traceOneStack(TaskStack &Stack, SpaceT &Sp,
                     std::vector<Word> &ScanList, Stats &S,
                     CensusCounts *Census);
};

} // namespace tfgc

#endif // TFGC_CORE_TAGGEDCOLLECTOR_H
