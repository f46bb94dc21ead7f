//===- core/Tracer.h - Tag-free tracing engine ------------------*- C++ -*-===//
///
/// \file
/// Executes the compiler-generated GC metadata over untagged heap values.
/// One instance lives for the duration of a single collection. Three
/// tracing paths exist, matching the artifacts the compiler produced:
///
///   traceCompiled  flat compiled type routines (the compiled method)
///   traceDesc      descriptor-graph interpretation (the interpreted
///                  method / Appel's descriptors)
///   traceTg        type-GC-routine closures built during this collection
///                  (polymorphic slots, paper section 3)
///
/// Closure values are traced through their code pointer: the word before
/// the code entry names the lambda, whose metadata gives the environment
/// layout and the extraction paths for its type parameters (sections 2.2
/// and 3, Figure 4).
///
/// All three paths run the tail field iteratively so that tracing a
/// million-element list does not recurse a million deep.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_CORE_TRACER_H
#define TFGC_CORE_TRACER_H

#include "core/Space.h"
#include "core/TypeGc.h"
#include "gcmeta/AppelMeta.h"
#include "gcmeta/CodeImage.h"
#include "gcmeta/CompiledRoutines.h"
#include "gcmeta/InterpretedMeta.h"
#include "support/HeapGraph.h"

#include <deque>

namespace tfgc {

enum class TraceMethod : uint8_t { Compiled, Interpreted, Appel };

/// Binding of one datatype parameter during descriptor interpretation:
/// a descriptor plus the environment its own Param nodes resolve in.
struct DescEnvNode;
struct DescBinding {
  DescId D = 0;
  const DescEnvNode *Env = nullptr;
};
struct DescEnvNode {
  std::vector<DescBinding> Binds;
};

class TagFreeTracer {
public:
  TagFreeTracer(const IrProgram &Prog, const CodeImage &Img,
                TypeGcEngine &Eng, Space &Sp, Stats &St, TraceMethod Method,
                const CompiledMetadata *CM, InterpretedMetadata *IM,
                AppelMetadata *AM, bool GlogerDummies = false,
                Telemetry *Tel = nullptr, HeapProfiler *Prof = nullptr)
      : Prog(Prog), Img(Img), Eng(Eng), Sp(Sp), St(St), Method(Method),
        CM(CM), IM(IM), AM(AM), GlogerDummies(GlogerDummies), Tel(Tel),
        Prof(Prof), Graph(Prof ? Prof->capture() : nullptr) {}

  /// Binds one closure type parameter: by extraction path, or — under the
  /// Goldberg & Gloger '92 rule — to const_gc when no path exists (a value
  /// whose type cannot be reconstructed can never be inspected, so it need
  /// not be traced).
  const TypeGc *bindParam(const ClosureParamPath &P, const TypeGc *FunTg);

  /// Ground value of compiled routine \p R. Returns the new reference.
  Word traceCompiled(Word V, RoutineId R);

  /// Value by descriptor interpretation. \p Env resolves Param nodes (the
  /// surrounding Data descriptor's type arguments); top-level descriptors
  /// are ground and take nullptr.
  Word traceDesc(Word V, DescId D, const DescEnvNode *Env);

  /// Value by type-GC-routine closure.
  Word traceTg(Word V, const TypeGc *Tg);

  /// Closure value. \p FunTg is the function-type routine (for recovering
  /// the lambda's type parameters); when null, \p StaticFunTy (ground) is
  /// evaluated instead if needed.
  Word traceClosureValue(Word V, const TypeGc *FunTg, Type *StaticFunTy);

  /// Frame tracing (Env required whenever the routine has open slots).
  /// \p Func names the frame's function for the heap-graph root labels.
  void traceFrame(Word *Slots, const FrameRoutine &FR, const TgEnv *Env,
                  uint32_t Func);
  void traceFrame(Word *Slots, const FrameDescriptor &FD, const TgEnv *Env,
                  uint32_t Func);

  /// Routes census increments into a thread-local accumulator instead of
  /// the (shared, unsynchronized) Telemetry event. Parallel GC workers
  /// set this on their private tracer; the collecting thread merges the
  /// accumulators with Telemetry::censusBulk after the workers join.
  void setCensusSink(CensusCounts *C) { Census = C; }

private:
  const IrProgram &Prog;
  const CodeImage &Img;
  TypeGcEngine &Eng;
  Space &Sp;
  Stats &St;
  TraceMethod Method;
  const CompiledMetadata *CM;
  InterpretedMetadata *IM;
  AppelMetadata *AM;
  bool GlogerDummies;
  Telemetry *Tel;
  HeapProfiler *Prof;
  CensusCounts *Census = nullptr;
  /// The graph capturing this collection, or null. Cached at construction
  /// (tracers are built per collection, after the profiler decided
  /// whether this collection's graph is captured): the edge and root
  /// hooks stay a single predictable branch when off.
  HeapGraph *const Graph;

  /// First-visit hook next to every visitNew; the (kind, words) increments
  /// mirror the gc.objects_visited / gc.words_visited counter increments.
  /// Feeds the telemetry census and — with the old→new address pair — the
  /// heap profiler's typed snapshot and allocation-site side table.
  void visit(Word Old, Word New, CensusKind K, uint64_t Words) {
    if (Census)
      Census->record(K, Words);
    else if (Tel)
      Tel->census(K, Words);
    if (Prof) [[unlikely]]
      Prof->recordVisit(Old, New, K, Words);
  }

  /// Heap-graph edge hook: records that field \p Field of the object at
  /// (post-move) \p Parent holds \p Child. Parent 0 marks a root slot —
  /// traceFrame records those as roots. Only called under `if (Graph)`
  /// and only for fields whose type can hold a reference; children that
  /// are no object (null, nullary constructors) are filtered when the
  /// capture is finalized.
  void edge(Word Parent, uint32_t Field, Word Child) {
    if (Parent)
      Graph->recordEdge(Parent, Field, Child);
  }

  /// False for a Leaf descriptor (after binding a parameter under
  /// \p Env): its word is an unboxed value, never an edge or a root, even
  /// when its bits equal a live address. The interpreted method walks
  /// such fields too, so its edge hooks ask first.
  bool holdsRef(DescId D, const DescEnvNode *Env) {
    return descTable().desc(resolveArg(D, Env).D).Kind != DescKind::Leaf;
  }

  DescriptorTable &descTable() {
    return Method == TraceMethod::Appel ? AM->descriptors()
                                        : IM->descriptors();
  }
  /// Environments built during this collection (stable addresses).
  std::deque<DescEnvNode> EnvStorage;

  DescBinding resolveArg(DescId A, const DescEnvNode *Env);
  bool bindingsEqual(const DescBinding &A, const DescBinding &B);
};

} // namespace tfgc

#endif // TFGC_CORE_TRACER_H
