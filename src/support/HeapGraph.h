//===- support/HeapGraph.h - Typed heap-graph dumps -------------*- C++ -*-===//
///
/// \file
/// Typed object-graph capture riding the tag-free trace. The paper's
/// machinery reconstructs every live object's shape at collection time;
/// this subsystem additionally records, during selected collections, the
/// *edges* the tracers follow (parent object, field index, child object)
/// — only fields whose reconstructed type can hold a reference, so an
/// unboxed int never becomes an edge — and runs one dominator pass
/// (Cooper-Harvey-Kennedy) over the rooted graph. Two views read it:
///
///  * `--heap-dump=FILE` streams the graph, one self-contained chunk per
///    captured collection; `tools/heap_graph_report.py` decodes, checks,
///    and diffs the chunks.
///  * `--retainers=N` fills HeapProfiler::Snapshot::Retainers with the
///    top-N nodes by retained size, each with one sample root path.
///
/// Capture policy: graphs are captured at **full and major** collections
/// only (a minor's trace covers the nursery, so its "graph" would dangle
/// into the untraced tenured set). With `--retainers` every eligible
/// collection is captured; a dump destination additionally serializes
/// every `--heap-dump-every=N`-th eligible collection, and the dump
/// bytes do not depend on whether retainers are on. Chunks are
/// serialized and flushed as soon as the collection finishes, so a run
/// that exits abnormally (e.g. verify-violation exit 3) still leaves
/// every captured chunk decodable on disk; the Cli artifact-flush path
/// calls finish() to close the stream on every exit.
///
/// Each chunk carries, besides nodes (address, census kind, alloc site —
/// whose static type string reconstructs the node's type — and size) and
/// edges (field index), the per-site *retained* sizes from the dominator
/// pass, their deltas against the previous chunk (the differential
/// leak-attribution signal), and the cumulative per-site lifetime
/// statistics the profiler maintains (survival curves, death-age
/// histograms, promotion attribution).
///
/// Chunk framing: `"TFGH"` magic, u8 version, u8 flags (bit0 =
/// tagged headers), u16 reserved, u32 little-endian body length, body.
/// Body fields are LEB128 varints (zigzag for signed); strings are
/// length-prefixed. See serializeChunk() for the field order — the
/// Python decoder mirrors it exactly.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SUPPORT_HEAPGRAPH_H
#define TFGC_SUPPORT_HEAPGRAPH_H

#include "support/HeapProfile.h"

#include <array>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

namespace tfgc {

/// One row of the per-site retained-size table of a capture.
struct SiteRetainedRow {
  uint32_t Site = 0; ///< numSites() == the unknown bucket.
  uint64_t LiveObjects = 0;
  uint64_t LiveWords = 0;
  uint64_t RetainedBytes = 0;
  /// Retained delta vs the previous capture (0 for the first capture;
  /// negative when the site shrank). Ranking by this column is the
  /// leak-suspect report.
  int64_t DeltaBytes = 0;
  /// Growth vs the FIRST capture (in-memory only, not serialized — the
  /// report tool recomputes deltas across chunks). Consecutive-capture
  /// deltas are noisy: a stack root transiently pointing into a
  /// structure chops its owner's dominator subtree for one capture, so
  /// the owner's per-interval delta can spike when the root retreats.
  /// First-to-last growth averages such transients out; rankedDeltas()
  /// ranks by it, matching heap_graph_report.py --diff.
  int64_t GrowthBytes = 0;
  /// Live-object growth vs the first capture; breaks retained-growth
  /// ties in rankedDeltas(): a dominator that merely holds a growing
  /// structure (one ref cell) stays at constant object count, while
  /// the site actually leaking accumulates objects.
  int64_t GrowthObjects = 0;
};

class HeapGraph {
public:
  /// Opens the dump stream. Returns false (and sets \p Err) when the
  /// file cannot be created.
  bool openFile(const std::string &Path, std::string *Err);

  /// Capture every N-th eligible (full/major) collection; 0/1 = all.
  void setEvery(uint64_t N) { Every = N ? N : 1; }

  /// Also hand each serialized chunk (framed, same bytes as the file)
  /// to \p S — the introspection server republishes the latest one at
  /// /heapdump.
  void setChunkSink(std::function<void(const std::string &)> S) {
    Sink = std::move(S);
  }

  /// Site/function tables, the header model, and the retainer count
  /// (0 = none), borrowed from the profiler's configuration (stable after
  /// driver setup).
  void configure(const std::vector<AllocSiteDesc> *Sites,
                 const std::vector<std::string> *FuncNames,
                 bool TaggedHeaders, unsigned TopRetainers);

  /// True once a dump destination (file or sink) exists.
  bool active() const { return OutOpen || (bool)Sink; }

  // -- Capture lifecycle (driven by the HeapProfiler) ----------------------

  /// Called at the start of every collection the profiler sees; returns
  /// true when this collection's graph should be captured: an eligible
  /// kind, and either retainers are wanted or a destination exists and
  /// the every-N gate passes (only the latter is serialized). Clears the
  /// capture buffers when it fires.
  bool beginCapture(GcEventKind Kind);

  /// A copying grow-loop retraces from scratch; the aborted round's
  /// partial node/edge/root capture is dropped.
  void resetCapture();

  /// First-visit hook (new address, i.e. post-move).
  void recordNode(Word Addr, uint32_t Site, CensusKind K, uint64_t Words) {
    Nodes.push_back({Addr, Words, Site, (uint8_t)K});
  }

  /// One traced reference: \p Parent and \p Child are post-move
  /// addresses; \p Field is the payload slot index in the parent.
  /// Non-reference children (immediates) are filtered at finalize.
  void recordEdge(Word Parent, uint32_t Field, Word Child) {
    Edges.push_back({Parent, Child, Field});
  }

  /// One traced stack slot, read after the trace moved its referent.
  /// Finalize orders roots by slot address — oldest frame first, slots
  /// ascending, whatever order the strategy walked the stack in.
  void recordRoot(const Word *Where, uint32_t Func, uint32_t Slot) {
    Roots.push_back({Func, Slot, *Where, Where});
  }

  /// Ends a capture: resolves edges against the node set and runs the
  /// dominator pass. With retainers on, replaces \p Retainers with the
  /// top-N nodes by retained size; for a dumped capture, folds per-site
  /// retained sizes, serializes the chunk, and appends it to the dump
  /// file (flushed immediately) and the sink. \p Lifetimes/\p AllocCounts
  /// may be empty when site tracking is off.
  void finalizeCapture(
      uint64_t Seq, GcEventKind Kind, uint64_t CoveredBytes,
      const std::array<HeapProfiler::Tally, NumCensusKinds> &ByKind,
      const std::vector<HeapProfiler::SiteLifetime> &Lifetimes,
      const std::vector<uint64_t> &AllocCounts,
      std::vector<RetainerInfo> &Retainers);

  /// Flushes and closes the dump stream (idempotent). Wired into the
  /// Cli artifact-flush path so abnormal exits keep the dump.
  void finish();

  // -- Results (tests, introspection) --------------------------------------

  /// Describes the last *dumped* capture (retainer-only captures leave it
  /// alone).
  struct CaptureInfo {
    bool Valid = false;
    uint64_t Seq = 0;
    GcEventKind Kind = GcEventKind::Full;
    uint64_t Nodes = 0;
    uint64_t Edges = 0;    ///< Edges that resolved to node pairs.
    uint64_t RootRefs = 0; ///< Roots that resolved to a node.
    std::array<HeapProfiler::Tally, NumCensusKinds> ByKind{};
    /// Ranked by RetainedBytes descending.
    std::vector<SiteRetainedRow> Retained;
  };
  const CaptureInfo &lastCapture() const { return Last; }
  uint64_t chunksWritten() const { return Chunks; }

  /// The last capture's rows re-ranked by retained-size growth — the
  /// leak-suspect order `heap_graph_report.py --diff` prints.
  std::vector<SiteRetainedRow> rankedDeltas() const;

private:
  struct NodeRec {
    Word Addr;
    uint64_t Words;
    uint32_t Site;
    uint8_t Kind;
  };
  struct EdgeRec {
    Word Parent;
    Word Child;
    uint32_t Field;
  };
  /// The top-N nodes by retained size, each with one BFS root path, from
  /// the dominator pass's graph (node N = the virtual root).
  void rankRetainers(
      const std::vector<std::vector<uint32_t>> &Succ,
      const std::vector<int> &RpoNum, const std::vector<uint64_t> &Retained,
      const std::vector<std::pair<uint32_t, uint32_t>> &RootsResolved,
      std::vector<RetainerInfo> &Out) const;

  std::string serializeChunk(
      uint64_t Seq, GcEventKind Kind, uint64_t CoveredBytes,
      const std::vector<std::pair<uint32_t, uint32_t>>
          &RootsResolved, // (root idx, node idx)
      const std::vector<HeapRoot> &Roots,
      const std::vector<std::array<uint32_t, 3>> &E,
      const std::vector<HeapProfiler::SiteLifetime> &Lifetimes,
      const std::vector<uint64_t> &AllocCounts,
      const std::array<HeapProfiler::Tally, NumCensusKinds> &FooterByKind)
      const;

  const std::vector<AllocSiteDesc> *Sites = nullptr;
  const std::vector<std::string> *FuncNames = nullptr;
  bool TaggedHeaders = false;
  unsigned TopRetainers = 0;

  std::ofstream Out;
  bool OutOpen = false;
  std::function<void(const std::string &)> Sink;
  uint64_t Every = 1;
  uint64_t EligibleSeen = 0;
  uint64_t Chunks = 0;
  bool Dump = false; ///< The current capture is serialized.

  std::vector<NodeRec> Nodes;
  std::vector<EdgeRec> Edges;
  std::vector<HeapRoot> Roots;

  /// Previous chunk's retained-by-site (index = site, last = unknown),
  /// for the delta column.
  std::vector<uint64_t> PrevRetained;
  std::vector<uint64_t> FirstRetained;
  std::vector<uint64_t> FirstLiveObjects;
  bool HavePrev = false;
  bool HaveFirst = false;

  CaptureInfo Last;
};

} // namespace tfgc

#endif // TFGC_SUPPORT_HEAPGRAPH_H
