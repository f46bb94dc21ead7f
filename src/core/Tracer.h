//===- core/Tracer.h - Tag-free tracing engine ------------------*- C++ -*-===//
///
/// \file
/// Executes the compiler-generated GC metadata over untagged heap values.
/// One instance lives for the duration of a single collection. Three ways
/// of tracing a value exist, matching the artifacts the compiler produced:
///
///   compiled     flat compiled type routines (the compiled method)
///   descriptor   descriptor-graph interpretation (the interpreted method
///                / Appel's descriptors)
///   type-GC      type-GC-routine closures built during this collection
///                (polymorphic slots, paper section 3)
///
/// Closure values are traced through their code pointer: the word before
/// the code entry names the lambda, whose metadata gives the environment
/// layout and the extraction paths for its type parameters (sections 2.2
/// and 3, Figure 4).
///
/// All three run in one loop over an explicit gray stack, so the C++
/// stack stays flat however deeply the heap nests. An untagged object
/// cannot say what it is, so each gray entry carries its slot's type: a
/// compiled routine, a descriptor with its environment, or a type-GC
/// closure. Visiting an object pushes its fields in reverse and continues
/// straight into the first, which reproduces a recursive depth-first
/// pre-order exactly: the same to-space layout, counters and heap-graph
/// edges. The loop is instantiated once per concrete Space; each trace
/// call (a frame, a remembered slot) dispatches on the space kind once and
/// counts in locals that it flushes into Stats and the census at its end.
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
#include <unordered_map>

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

/// One pending slot of the trace loop: where it is, how to trace what it
/// holds, and — for the heap-graph edge — which object field it is.
struct GrayEntry {
  enum class How : uint8_t { Compiled, Desc, Tg };
  /// Field of a slot outside any object (a frame slot, a remembered
  /// slot): it records no heap-graph edge.
  static constexpr uint32_t Root = ~0u;

  Word *Slot;
  union {
    const DescEnvNode *Env; ///< Desc: resolves the descriptor's Params.
    const TypeGc *Tg;       ///< Tg: the slot's type-GC closure.
  };
  uint32_t Id;    ///< Compiled: RoutineId. Desc: DescId.
  uint32_t Field; ///< Payload index of Slot in its object, or Root.
  How K;
};

/// A trace loop's pending entries. The collector owns one per GC worker
/// and keeps its storage across collections; between trace calls it is
/// empty.
using GrayStack = std::vector<GrayEntry>;

class TagFreeTracer {
public:
  TagFreeTracer(const IrProgram &Prog, const CodeImage &Img,
                TypeGcEngine &Eng, Space &Sp, Stats &St, TraceMethod Method,
                const CompiledMetadata *CM, InterpretedMetadata *IM,
                AppelMetadata *AM, GrayStack &Gray,
                bool GlogerDummies = false, Telemetry *Tel = nullptr,
                HeapProfiler *Prof = nullptr)
      : Prog(Prog), Img(Img), Eng(Eng), Sp(Sp), St(St), Method(Method),
        CM(CM), IM(IM), AM(AM), Gray(Gray), GlogerDummies(GlogerDummies),
        Tel(Tel), Prof(Prof), Graph(Prof ? Prof->capture() : nullptr) {}

  /// Binds one closure type parameter: by extraction path, or — under the
  /// Goldberg & Gloger '92 rule — to const_gc when no path exists (a value
  /// whose type cannot be reconstructed can never be inspected, so it need
  /// not be traced).
  const TypeGc *bindParam(const ClosureParamPath &P, const TypeGc *FunTg);

  /// Frame tracing (Env required whenever the routine has open slots).
  /// \p Func names the frame's function for the heap-graph root labels.
  void traceFrame(Word *Slots, const FrameRoutine &FR, const TgEnv *Env,
                  uint32_t Func);
  void traceFrame(Word *Slots, const FrameDescriptor &FD, const TgEnv *Env,
                  uint32_t Func);

  /// One remembered slot, traced by its type-GC closure \p Tg.
  void traceSlot(Word *Slot, const TypeGc *Tg);

  /// Routes census increments into a thread-local accumulator instead of
  /// the (shared, unsynchronized) Telemetry event. Parallel GC workers
  /// set this on their private tracer; the collecting thread merges the
  /// accumulators with Telemetry::censusBulk after the workers join.
  void setCensusSink(CensusCounts *C) { Census = C; }

private:
  /// What one trace call counts, flushed once at its end.
  struct Tally {
    uint64_t Slots = 0, Objects = 0, Words = 0;
    uint64_t Actions = 0, DescSteps = 0, TgSteps = 0;
    CensusCounts Census;
  };

  const IrProgram &Prog;
  const CodeImage &Img;
  TypeGcEngine &Eng;
  Space &Sp;
  Stats &St;
  TraceMethod Method;
  const CompiledMetadata *CM;
  InterpretedMetadata *IM;
  AppelMetadata *AM;
  GrayStack &Gray;
  bool GlogerDummies;
  Telemetry *Tel;
  HeapProfiler *Prof;
  CensusCounts *Census = nullptr;
  /// The graph capturing this collection, or null. Cached at construction
  /// (tracers are built per collection, after the profiler decided
  /// whether this collection's graph is captured): the edge and root
  /// hooks stay a single predictable branch when off.
  HeapGraph *const Graph;

  /// Per-closure scratch: its type-parameter bindings and the type-GC
  /// closures of its open environment fields (reused, not reallocated).
  std::vector<const TypeGc *> ClosureBinds, OpenTgs;

  /// Environments of open datatype fields, one per (Data descriptor,
  /// environment) pair met during this collection (stable addresses).
  struct EnvKeyHash {
    size_t operator()(const std::pair<DescId, const DescEnvNode *> &K) const {
      return std::hash<const void *>()(K.second) * 31 + K.first;
    }
  };
  std::unordered_map<std::pair<DescId, const DescEnvNode *>,
                     const DescEnvNode *, EnvKeyHash>
      FieldEnvs;
  std::deque<DescEnvNode> EnvStorage;

  template <class SpaceT> void drain(SpaceT &S, GrayEntry E, Tally &T);
  template <class SpaceT>
  void traceFrameIn(SpaceT &S, Word *Slots, const FrameRoutine &FR,
                    const TgEnv *Env, uint32_t Func);
  template <class SpaceT>
  void traceFrameIn(SpaceT &S, Word *Slots, const FrameDescriptor &FD,
                    const TgEnv *Env, uint32_t Func);
  void flush(const Tally &T);

  DescriptorTable &descTable() {
    return Method == TraceMethod::Appel ? AM->descriptors()
                                        : IM->descriptors();
  }

  DescBinding resolveArg(DescId A, const DescEnvNode *Env);
  bool bindingsEqual(const DescBinding &A, const DescBinding &B);
  /// The environment of Data descriptor \p D's arguments resolved under
  /// \p Env (the run-time analogue of instantiating its shape).
  const DescEnvNode *fieldEnv(DescId D, const DescEnvNode *Env);
};

} // namespace tfgc

#endif // TFGC_CORE_TRACER_H
