//===- core/AppelCollector.h - Appel-style baseline -------------*- C++ -*-===//
///
/// \file
/// The paper's reconstruction of Appel '89 (section 1.1.1): one descriptor
/// per procedure covering every slot, frames walked newest to oldest, and
/// polymorphic frames resolved by recursively walking *down* the dynamic
/// chain until ground types are found — independently for every frame, so
/// deep polymorphic stacks pay a quadratic number of chain steps (the cost
/// the paper's single oldest-to-newest pass avoids; measured by E7).
///
/// Requires zero-initialized frames (every slot is traced whether or not
/// the program has initialized it yet) — E9 measures that mutator cost.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_CORE_APPELCOLLECTOR_H
#define TFGC_CORE_APPELCOLLECTOR_H

#include "core/Collector.h"
#include "core/Tracer.h"

namespace tfgc {

class AppelCollector : public Collector {
public:
  AppelCollector(GcAlgorithm Algo, size_t HeapBytes, Stats &St,
                 const IrProgram &Prog, const CodeImage &Img,
                 TypeContext &Types, AppelMetadata *AM,
                 bool GlogerDummies = false, size_t NurseryBytes = 0);

  /// One descriptor per procedure covers every slot, live or not.
  bool scansUninitializedSlots() const override { return true; }

protected:
  void traceRoots(RootSet &Roots, Space &Sp) override;
  void traceRemset(Space &Sp) override;

private:
  const IrProgram &Prog;
  const CodeImage &Img;
  TypeContext &Types;
  AppelMetadata *AM;
  bool GlogerDummies;
  /// Lives as long as the collector so the cross-collection ground-type
  /// closure cache pays off; reset() after every traceRoots pass drops the
  /// per-collection nodes.
  TypeGcEngine Eng;
  /// One gray stack per GC worker (index 0 also serves the serial trace
  /// and the remembered set), kept across collections.
  std::vector<GrayStack> Gray;

  /// Walks the dynamic chain downward from frame \p Idx until the type
  /// parameters of its function are ground (paper section 3's description
  /// of Appel's approach). Counters land in \p S (a worker's private
  /// domain on the parallel path).
  std::vector<const TypeGc *> resolveBinds(TaskStack &Stack, uint32_t Idx,
                                           TypeGcEngine &Eng,
                                           TagFreeTracer &Tr, Stats &S);

  /// Traces one task's stack newest-to-oldest. \p T is the telemetry to
  /// charge phase spans to; parallel GC workers pass nullptr along with
  /// their private engine/stats.
  void traceOneStack(TaskStack &Stack, TagFreeTracer &Tr, TypeGcEngine &E,
                     Stats &S, Telemetry *T);
};

} // namespace tfgc

#endif // TFGC_CORE_APPELCOLLECTOR_H
