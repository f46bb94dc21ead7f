//===- core/GoldbergCollector.h - The paper's collector ---------*- C++ -*-===//
///
/// \file
/// The tag-free collector of Goldberg '91. Monomorphic frames are traced
/// by the frame GC routine selected through the suspended return address
/// (Figure 2); polymorphic programs use the section-3 algorithm: an
/// explicit pointer-reversal pass over the dynamic links, then one
/// oldest-to-newest walk in which each frame's routine passes the type GC
/// routines for the callee's type parameters to the next frame's routine.
/// The stack is traversed at most twice, as the paper promises.
///
/// The Method parameter selects the compiled method (flat routines) or the
/// interpreted method (descriptors) for ground types.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_CORE_GOLDBERGCOLLECTOR_H
#define TFGC_CORE_GOLDBERGCOLLECTOR_H

#include "core/Collector.h"
#include "core/Tracer.h"

namespace tfgc {

class GoldbergCollector : public Collector {
public:
  GoldbergCollector(TraceMethod Method, GcAlgorithm Algo, size_t HeapBytes,
                    Stats &St, const IrProgram &Prog, const CodeImage &Img,
                    TypeContext &Types, const CompiledMetadata *CM,
                    InterpretedMetadata *IM, bool GlogerDummies = false,
                    size_t NurseryBytes = 0);

protected:
  void traceRoots(RootSet &Roots, Space &Sp) override;
  void traceRemset(Space &Sp) override;

private:
  TraceMethod Method;
  const IrProgram &Prog;
  const CodeImage &Img;
  TypeContext &Types;
  const CompiledMetadata *CM;
  InterpretedMetadata *IM;
  bool GlogerDummies;
  /// Lives as long as the collector so the cross-collection ground-type
  /// closure cache pays off; reset() after every traceRoots pass drops the
  /// per-collection nodes.
  TypeGcEngine Eng;
  /// One gray stack per GC worker (index 0 also serves the serial trace
  /// and the remembered set), kept across collections.
  std::vector<GrayStack> Gray;

  const std::vector<ClosureParamPath> &paramPaths(FuncId Fn) const;

  /// Traces one task's stack — the pointer-reversal pass plus the
  /// oldest-to-newest walk — against the given tracer, engine, and
  /// counter domain. \p T is the telemetry to charge phase spans to;
  /// parallel GC workers pass nullptr (spans are collector-thread-only)
  /// and their own engine/stats, so worker state never crosses threads.
  void traceOneStack(TaskStack &Stack, TagFreeTracer &Tr, TypeGcEngine &E,
                     Stats &S, Telemetry *T);
};

} // namespace tfgc

#endif // TFGC_CORE_GOLDBERGCOLLECTOR_H
