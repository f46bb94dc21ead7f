//===- support/HeapProfile.h - Tag-free heap profiler -----------*- C++ -*-===//
///
/// \file
/// Heap profiling that rides the tag-free trace instead of per-object
/// headers. The paper's central machinery — exact type reconstruction for
/// every live object at collection time — already produces, for free, the
/// facts a heap profiler normally pays header bytes for. Three layers:
///
///  * **Allocation-site attribution.** Lowering assigns every allocation
///    opcode a dense AllocSiteId; the VM's allocation path bumps a flat
///    per-site counter and appends (address, site) to an allocation log.
///    No hashing, no branching beyond the enable check; off by default.
///
///  * **Typed live snapshots.** During a collection's trace, the same
///    first-visit hook the telemetry census uses attributes each object's
///    words to its reconstructed shape (CensusKind) and — via a side table
///    keyed by object address, maintained across copies and promotions —
///    to the site that allocated it. The side table is rebuilt from the
///    visit stream each collection: a visit maps the object's *old*
///    address to its site and records the *new* address for the next
///    collection, so the table follows objects through semispace flips,
///    nursery evacuation, and promotion without touching the mutator.
///
///  * **Retention diagnostics.** The profiler owns no edges: at full and
///    major collections an attached HeapGraph captures the typed edges
///    the tracers follow, and its one dominator pass (Cooper-Harvey-
///    Kennedy over the rooted graph) both feeds `--heap-dump` and fills
///    the snapshot's top-N retainers by retained size, each with a
///    sample root path (stack frame + slot from the frame roots).
///
/// The profiler is paused during the post-GC verify pass (which re-runs
/// the tracers) exactly like the telemetry census, so its per-collection
/// tallies see each live object once. Snapshot invariant: the per-kind
/// byte totals of a snapshot sum to the bytes the collection covered
/// (full heap for full/major collections, survivors + promotions for a
/// minor), and the per-site object totals sum to the same object count.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SUPPORT_HEAPPROFILE_H
#define TFGC_SUPPORT_HEAPPROFILE_H

#include "runtime/Value.h"
#include "support/Telemetry.h"

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace tfgc {

class HeapGraph;

/// Debug label of one allocation site (mirrors gcmeta's AllocSiteDebug;
/// duplicated here so the support layer does not depend on the IR).
struct AllocSiteDesc {
  std::string Func;
  uint32_t Line = 0;
  uint32_t Col = 0;
  std::string TypeStr;
};

/// A labeled stack root of a heap-graph capture.
struct HeapRoot {
  uint32_t Func = ~0u; ///< Index into the function-name table.
  uint32_t Slot = 0;
  Word Value = 0;
  const Word *Where = nullptr; ///< The traced slot; orders the roots.
};

/// One retained-size report row.
struct RetainerInfo {
  Word Addr = 0;
  uint32_t Site = ~0u;
  CensusKind Kind = CensusKind::NumKinds;
  uint64_t SelfBytes = 0;
  uint64_t RetainedBytes = 0;
  std::vector<std::string> Path; ///< Sample root path, root first.
};

class HeapProfiler {
public:
  /// Site id used for objects whose allocation predates profiling (or
  /// whose address was never logged).
  static constexpr uint32_t UnknownSite = ~0u;

  struct Tally {
    uint64_t Objects = 0;
    uint64_t Words = 0;
  };

  /// Cumulative lifetime statistics of one allocation site (ages are
  /// measured in collections the object was subject to — a tenured
  /// object sits out the minors, so under the generational algorithm
  /// this reads as "minors survived" until promotion).
  struct SiteLifetime {
    /// Objects that reached age exactly 1 / 2 / 4 / 8 — the survival
    /// curve. Monotone non-increasing by construction (reaching age 4
    /// implies having reached 2).
    std::array<uint64_t, 4> Survived{};
    /// Age-at-death histogram, bucketed by ageBucket().
    std::array<uint64_t, 8> DeathHist{};
    uint64_t Deaths = 0;
    uint64_t PromotedObjects = 0;
    /// Census words (payload + tagged header) promoted to tenured —
    /// sums across sites to `gc.promoted_words`.
    uint64_t PromotedWords = 0;
  };

  /// The ages the survival curve samples.
  static constexpr std::array<uint32_t, 4> SurvivalAges = {1, 2, 4, 8};

  /// Histogram bucket of an age: 0,1,2,3 exact, then 4-7, 8-15, 16-31,
  /// 32+.
  static uint32_t ageBucket(uint64_t Age) {
    if (Age < 4)
      return (uint32_t)Age;
    if (Age < 8)
      return 4;
    if (Age < 16)
      return 5;
    if (Age < 32)
      return 6;
    return 7;
  }

  /// The profile of one collection (the latest one traced). Overwritten
  /// per collection; `tfgc --heap-snapshot` serializes the last one.
  struct Snapshot {
    bool Valid = false;
    uint64_t Seq = 0;
    GcEventKind Kind = GcEventKind::Full;
    uint64_t CoveredBytes = 0; ///< Live bytes the trace covered.
    uint64_t Objects = 0;
    uint64_t Words = 0;
    std::array<Tally, NumCensusKinds> ByKind{};
    /// Indexed by AllocSiteId; [numSites()] is the unknown bucket. Empty
    /// when site tracking is off.
    std::vector<Tally> BySite;
    bool HasGenSplit = false;
    Tally Nursery, Tenured;
    std::vector<RetainerInfo> Retainers;
    bool RetainersComputed = false;
    /// Age observations of this collection's visits (one per visited
    /// object when site tracking is on): total and ageBucket() histogram.
    /// Invariant: AgeObservations == Objects.
    uint64_t AgeObservations = 0;
    std::array<uint64_t, 8> AgeHist{};

    uint64_t kindBytes() const {
      uint64_t S = 0;
      for (const Tally &T : ByKind)
        S += T.Words;
      return S * sizeof(Word);
    }
  };

  // -- Configuration (driver / test harness) --------------------------------

  /// Master switch; every hook is a cheap no-op while disabled.
  void setEnabled(bool E) { Enabled = E; }
  bool enabled() const { return Enabled; }

  /// Installs the allocation-site table and turns site attribution on.
  void setSites(std::vector<AllocSiteDesc> S);
  size_t numSites() const { return Sites.size(); }
  bool siteTracking() const { return !Sites.empty(); }

  /// Function names for labeling retention roots ("name:slotN").
  void setFunctionNames(std::vector<std::string> Names) {
    FuncNames = std::move(Names);
  }

  /// Report the top \p N retainers after each full/major collection
  /// (0 = none). The attached HeapGraph computes them from its capture,
  /// so N > 0 requires setHeapGraph.
  void setRetainers(unsigned N) { TopRetainers = N; }

  /// Tagged-model objects carry a header word; graph chunks say so.
  void setTaggedHeaders(bool T) { TaggedHeaders = T; }

  void setLabel(std::string L) { Label = std::move(L); }

  /// Attaches the heap graph; beginCollection asks it whether to capture
  /// this collection's graph and the visit/edge hooks feed it.
  void setHeapGraph(HeapGraph *G) { Graph = G; }

  // -- Heap-graph hook (tracer hot path) ------------------------------------

  /// The graph capturing the current collection, or null — also while
  /// paused, since the verify pass re-runs the tracers. The tracers cache
  /// it at construction (it never changes mid-trace) and record typed
  /// edges and roots into it directly.
  HeapGraph *capture() const {
    return GraphActive && !Paused ? Graph : nullptr;
  }

  // -- Mutator hot path -----------------------------------------------------

  /// Called after every successful allocation. \p Addr is the payload
  /// address (what the tracers later see as the object reference). One
  /// counter bump + one push_back; the per-site counts are derived from
  /// the log at collection time so the mutator touches as little profiler
  /// state as possible.
  void recordAlloc(uint32_t AllocId, Word Addr) {
    if (!Enabled)
      return;
    ++AllocTotal;
    if (AllocId < SiteAllocCounts.size())
      AddrLog.push_back({Addr, AllocId});
  }

  uint64_t allocTotal() const { return AllocTotal; }
  uint64_t allocCount(uint32_t Site) const {
    uint64_t N = SiteAllocCounts[Site];
    for (const AddrSite &E : AddrLog) // Pending, not yet folded in.
      if (E.Site == Site)
        ++N;
    return N;
  }

  // -- Collection lifecycle (driven by the collector) -----------------------

  /// Starts profiling one collection: resets the per-collection tallies
  /// and merges the allocation log into the address side table.
  /// \p IsTenured classifies *new* (post-trace) addresses for the
  /// nursery/tenured split; pass nullptr outside the generational
  /// algorithm.
  void beginCollection(GcEventKind Kind, std::function<bool(Word)> IsTenured);

  /// A copying grow-loop retraces the survivors in a fresh round; the
  /// previous round's new addresses become this round's old addresses.
  void beginTraceRound();

  /// While paused, visits are ignored (the post-GC verify pass re-runs
  /// the tracing code).
  void setPaused(bool P) { Paused = P; }

  /// First-visit hook, paired with the telemetry census: \p Words is the
  /// object's census size (payload, +1 header word under tagged).
  void recordVisit(Word OldRef, Word NewRef, CensusKind K, uint64_t Words);

  /// Ends the collection: rebuilds the side table for the next cycle
  /// (keeping unvisited entries that \p KeepUnvisited says survived — the
  /// tenured objects a minor collection never traces), snapshots the
  /// tallies, and finalizes the graph capture (if any).
  void finishCollection(uint64_t CoveredBytes,
                        const std::function<bool(Word)> &KeepUnvisited);

  uint64_t visitObjectsTotal() const { return VisitObjectsTotal; }

  // -- Results --------------------------------------------------------------

  const Snapshot &snapshot() const { return Snap; }
  const AllocSiteDesc &site(uint32_t Id) const { return Sites[Id]; }

  /// Cumulative lifetime stats of a site (pass numSites() for the
  /// unknown bucket). Empty-table safe only when siteTracking().
  const SiteLifetime &lifetime(uint32_t Site) const { return Life[Site]; }
  const std::vector<SiteLifetime> &lifetimes() const { return Life; }

  /// Cumulative per-site allocation counts with the pending log folded
  /// in (same accounting as allocCount, vectorized for the dump).
  std::vector<uint64_t> allocCountsNow() const;

  /// Sum of per-site promoted words — equals `gc.promoted_words`.
  uint64_t promotedWordsAttributed() const {
    uint64_t S = 0;
    for (const SiteLifetime &L : Life)
      S += L.PromotedWords;
    return S;
  }

  /// Serializes the latest snapshot (plus cumulative allocation counts)
  /// as one JSON document; `tools/heap_report.py` renders and diffs it.
  void writeSnapshotJson(std::ostream &OS) const;

private:
  /// Per-entry age bits: low 24 bits = collections survived (saturating),
  /// bit 31 = the object has been observed in tenured space (promotion
  /// already attributed).
  static constexpr uint32_t AgeMask = 0xffffffu;
  static constexpr uint32_t TenuredBit = 1u << 31;

  struct AddrSite {
    Word Addr;
    uint32_t Site;
    uint32_t AgeBits = 0;
  };

  void resetCollectionTallies();
  void buildLookupIndex();
  /// Finds (and consumes) the Lookup entry for \p OldRef; SIZE_MAX on
  /// miss.
  size_t lookupIndex(Word OldRef);
  /// Folds the unconsumed, not-kept Lookup entries into the death
  /// histograms (they were live last cycle and were not visited by a
  /// full-coverage trace — dead).
  void accountDeaths(const std::function<bool(Word)> &Keep);

  bool Enabled = false;
  bool Paused = false;
  bool InCollection = false;
  bool TaggedHeaders = false;
  unsigned TopRetainers = 0;
  std::string Label;

  std::vector<AllocSiteDesc> Sites;
  std::vector<std::string> FuncNames;
  std::vector<uint64_t> SiteAllocCounts; ///< Flat, indexed by AllocSiteId.
  uint64_t AllocTotal = 0;
  uint64_t VisitObjectsTotal = 0;

  /// Address → site across collections. Table holds the survivors of the
  /// last collection (sorted by address); AddrLog the allocations since.
  /// beginCollection merges them into Lookup; visits consume Lookup
  /// entries and refill NextTable with post-trace addresses.
  ///
  /// Under the generational algorithm the table is partitioned: entries
  /// whose object lives in tenured space sit in TenSet, which a minor
  /// collection never merges, scans, or sorts — a minor trace cannot
  /// visit a tenured object, so its lookup set is nursery-bounded
  /// (Table young survivors + AddrLog) no matter how large the tenured
  /// generation grows. Promotions append to TenSet at minor finish;
  /// major/full collections consume TenSet wholesale and rebuild it from
  /// the visit stream.
  std::vector<AddrSite> Table;
  std::vector<AddrSite> TenSet; ///< Unsorted; bump addresses are unique.
  std::vector<AddrSite> AddrLog;
  std::vector<AddrSite> Lookup;
  std::vector<AddrSite> NextTable;
  std::vector<uint8_t> Consumed; ///< Parallel to Lookup.
  bool MinorScope = false; ///< Current collection traces the nursery only.
  bool FirstRound = true; ///< Ages bump once per collection, not per round.

  /// O(1) visit-time lookup: word-granular slots, each holding
  /// (epoch << 24 | Lookup index). The sorted table is clustered into
  /// contiguous address regions (a >64 KiB gap starts a new region — the
  /// young, tenured, and semispace blocks are separate allocations that
  /// can sit anywhere in memory), and the regions share one compact slot
  /// array, so gaps between spaces cost nothing. Stale slots are skipped
  /// by epoch compare, so rebuilding never clears the array. When the
  /// summed spans outgrow DenseSlotCap (or the address set fragments into
  /// too many regions), lookupSite falls back to binary search.
  struct DenseRegion {
    Word Base = 0;
    Word End = 0; ///< Last entry address (inclusive).
    uint64_t SlotOff = 0;
  };
  static constexpr uint64_t DenseSlotCap = 1u << 22; ///< 16 MiB aux max.
  static constexpr size_t MaxDenseRegions = 16;
  std::vector<uint32_t> Dense; ///< 8-bit epoch | 24-bit Lookup index.
  std::vector<DenseRegion> Regions;
  bool DenseValid = false;
  uint32_t DenseEpoch = 0; ///< Runs 1..255; Dense is cleared on wrap.
  std::vector<AddrSite> MergeScratch;

  /// Per-collection tallies (current collection while tracing).
  std::array<Tally, NumCensusKinds> CurKind{};
  std::vector<Tally> CurSite; ///< numSites()+1; last = unknown.
  Tally CurNursery, CurTenured;
  uint64_t CurObjects = 0, CurWords = 0;
  GcEventKind CurEventKind = GcEventKind::Full;
  std::function<bool(Word)> IsTenured;
  uint64_t Collections = 0;

  /// Cumulative per-site lifetime stats; numSites()+1 entries (last =
  /// unknown bucket), sized with the site table.
  std::vector<SiteLifetime> Life;
  /// Per-collection age observations (reset per trace round with the
  /// other tallies; each visited object contributes its current age).
  uint64_t CurAgeObs = 0;
  std::array<uint64_t, 8> CurAgeHist{};

  HeapGraph *Graph = nullptr;
  bool GraphActive = false; ///< This collection's graph is being captured.

  Snapshot Snap;
};

} // namespace tfgc

#endif // TFGC_SUPPORT_HEAPPROFILE_H
