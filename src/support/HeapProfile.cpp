//===- support/HeapProfile.cpp --------------------------------------------===//

#include "support/HeapProfile.h"

#include "support/HeapGraph.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <ostream>

using namespace tfgc;

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':  Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    default:
      if ((unsigned char)C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

void HeapProfiler::setSites(std::vector<AllocSiteDesc> S) {
  Sites = std::move(S);
  SiteAllocCounts.assign(Sites.size(), 0);
  CurSite.assign(Sites.size() + 1, Tally{});
  Life.assign(Sites.size() + 1, SiteLifetime{});
}

std::vector<uint64_t> HeapProfiler::allocCountsNow() const {
  std::vector<uint64_t> Counts = SiteAllocCounts;
  for (const AddrSite &E : AddrLog) // Allocated since the last collection.
    if (E.Site < Counts.size())
      ++Counts[E.Site];
  return Counts;
}

void HeapProfiler::resetCollectionTallies() {
  CurKind.fill(Tally{});
  CurSite.assign(Sites.size() + 1, Tally{});
  CurNursery = Tally{};
  CurTenured = Tally{};
  CurObjects = 0;
  CurWords = 0;
  CurAgeObs = 0;
  CurAgeHist.fill(0);
}

void HeapProfiler::beginCollection(GcEventKind Kind,
                                   std::function<bool(Word)> IsTenuredFn) {
  if (!Enabled)
    return;
  assert(!InCollection && "nested collection");
  InCollection = true;
  Paused = false;
  CurEventKind = Kind;
  IsTenured = std::move(IsTenuredFn);
  MinorScope = Kind == GcEventKind::Minor && (bool)IsTenured;
  FirstRound = true;
  GraphActive = false;
  assert((Graph || !TopRetainers) && "retainers need an attached HeapGraph");
  if (Graph) {
    Graph->configure(&Sites, &FuncNames, TaggedHeaders, TopRetainers);
    GraphActive = Graph->beginCapture(Kind);
  }
  resetCollectionTallies();
  if (siteTracking()) {
    // Merge the allocation log into the survivor table. Addresses are
    // disjoint in the steady state (the mutator only bump-allocates past
    // the survivors, and dead blocks left the table at their collection),
    // but a last-wins merge keeps a reused address correct anyway: on a
    // tie std::merge emits the first range's entry first and the dedup
    // below keeps the last duplicate, so the newest source wins.
    //
    // A minor trace never visits a tenured object, so TenSet stays out of
    // the merge entirely — the per-minor cost is nursery-bounded instead
    // of growing with every promotion since the last major. Table is
    // sorted by construction and TenSet accumulates in promotion (bump)
    // order, so only the allocation log needs an actual sort.
    auto ByAddr = [](const AddrSite &A, const AddrSite &B) {
      return A.Addr < B.Addr;
    };
    // Fold the log into the cumulative per-site counts here, off the
    // mutator's allocation path.
    for (const AddrSite &E : AddrLog)
      ++SiteAllocCounts[E.Site];
    std::sort(AddrLog.begin(), AddrLog.end(), ByAddr);
    Lookup.clear();
    if (MinorScope) {
      Lookup.resize(Table.size() + AddrLog.size());
      std::merge(Table.begin(), Table.end(), AddrLog.begin(), AddrLog.end(),
                 Lookup.begin(), ByAddr);
    } else {
      if (!std::is_sorted(TenSet.begin(), TenSet.end(), ByAddr))
        std::sort(TenSet.begin(), TenSet.end(), ByAddr);
      MergeScratch.resize(Table.size() + TenSet.size());
      std::merge(Table.begin(), Table.end(), TenSet.begin(), TenSet.end(),
                 MergeScratch.begin(), ByAddr);
      TenSet.clear();
      Lookup.resize(MergeScratch.size() + AddrLog.size());
      std::merge(MergeScratch.begin(), MergeScratch.end(), AddrLog.begin(),
                 AddrLog.end(), Lookup.begin(), ByAddr);
    }
    AddrLog.clear();
    size_t Keep = 0;
    for (size_t I = 0; I < Lookup.size(); ++I) {
      if (I + 1 < Lookup.size() && Lookup[I + 1].Addr == Lookup[I].Addr)
        continue; // An older entry for the same address: drop it.
      Lookup[Keep++] = Lookup[I];
    }
    Lookup.resize(Keep);
    Consumed.assign(Lookup.size(), 0);
    NextTable.clear();
    buildLookupIndex();
  }
}

void HeapProfiler::buildLookupIndex() {
  DenseValid = false;
  if (Lookup.empty())
    return;
  constexpr uint64_t GapWords = (64 * 1024) / sizeof(Word);
  Regions.clear();
  uint64_t Slots = 0;
  size_t Start = 0;
  for (size_t I = 1; I <= Lookup.size(); ++I) {
    if (I < Lookup.size() &&
        (Lookup[I].Addr - Lookup[I - 1].Addr) / sizeof(Word) <= GapWords)
      continue;
    Word Base = Lookup[Start].Addr;
    Regions.push_back({Base, Lookup[I - 1].Addr, Slots});
    Slots += (Lookup[I - 1].Addr - Base) / sizeof(Word) + 1;
    Start = I;
  }
  if (Slots > DenseSlotCap || Regions.size() > MaxDenseRegions ||
      Lookup.size() >= (1u << 24)) {
    Regions.clear();
    return; // Pathologically sparse or fragmented: binary-search fallback.
  }
  if (++DenseEpoch == 256) {
    // Epoch wrap: stale slots from 255 rebuilds ago could alias.
    std::fill(Dense.begin(), Dense.end(), 0);
    DenseEpoch = 1;
  }
  if (Dense.size() < Slots)
    Dense.resize(Slots, 0);
  size_t R = 0;
  for (size_t I = 0; I < Lookup.size(); ++I) {
    while (Lookup[I].Addr > Regions[R].End)
      ++R;
    Dense[Regions[R].SlotOff +
          (Lookup[I].Addr - Regions[R].Base) / sizeof(Word)] =
        (DenseEpoch << 24) | (uint32_t)I;
  }
  DenseValid = true;
}

void HeapProfiler::beginTraceRound() {
  if (!Enabled || !InCollection)
    return;
  resetCollectionTallies();
  FirstRound = false;
  if (GraphActive)
    Graph->resetCapture();
  if (siteTracking()) {
    // The grow loop only retraces after a *complete* round (the free-
    // space check runs post-trace), so the outgoing Lookup's unconsumed
    // entries are genuinely dead — account them now; they will not be
    // seen again. Grow rounds are full-heap, so nothing is "kept".
    accountDeaths(nullptr);
    // The previous round's post-trace addresses are this round's
    // pre-trace addresses (the grow loop flips spaces and retraces).
    Lookup = std::move(NextTable);
    NextTable.clear();
    auto ByAddr = [](const AddrSite &A, const AddrSite &B) {
      return A.Addr < B.Addr;
    };
    if (!std::is_sorted(Lookup.begin(), Lookup.end(), ByAddr))
      std::sort(Lookup.begin(), Lookup.end(), ByAddr);
    Consumed.assign(Lookup.size(), 0);
    buildLookupIndex();
  }
}

size_t HeapProfiler::lookupIndex(Word OldRef) {
  size_t Idx;
  if (DenseValid) {
    // Regions are sorted and few; first region whose end covers the
    // address decides (a miss inside a gap holds no table entry).
    const DenseRegion *Hit = nullptr;
    for (const DenseRegion &R : Regions) {
      if (OldRef > R.End)
        continue;
      if (OldRef >= R.Base)
        Hit = &R;
      break;
    }
    if (!Hit)
      return SIZE_MAX;
    uint32_t E =
        Dense[Hit->SlotOff + (OldRef - Hit->Base) / sizeof(Word)];
    if ((E >> 24) != DenseEpoch)
      return SIZE_MAX;
    Idx = E & 0xffffffu;
    if (Lookup[Idx].Addr != OldRef)
      return SIZE_MAX; // Misaligned probe rounded onto a neighbor.
  } else {
    auto It = std::lower_bound(
        Lookup.begin(), Lookup.end(), OldRef,
        [](const AddrSite &A, Word W) { return A.Addr < W; });
    if (It == Lookup.end() || It->Addr != OldRef)
      return SIZE_MAX;
    Idx = (size_t)(It - Lookup.begin());
  }
  Consumed[Idx] = 1;
  return Idx;
}

void HeapProfiler::accountDeaths(const std::function<bool(Word)> &Keep) {
  if (!siteTracking())
    return;
  for (size_t I = 0; I < Lookup.size(); ++I) {
    if (Consumed[I])
      continue;
    if (Keep && Keep(Lookup[I].Addr))
      continue;
    uint32_t Site = Lookup[I].Site;
    SiteLifetime &L = Life[Site == UnknownSite ? Sites.size() : Site];
    ++L.DeathHist[ageBucket(Lookup[I].AgeBits & AgeMask)];
    ++L.Deaths;
  }
}

void HeapProfiler::recordVisit(Word OldRef, Word NewRef, CensusKind K,
                               uint64_t Words) {
  if (!Enabled || Paused || !InCollection)
    return;
  ++CurObjects;
  CurWords += Words;
  Tally &KT = CurKind[(size_t)K];
  ++KT.Objects;
  KT.Words += Words;
  ++VisitObjectsTotal;
  // During a major every survivor is evacuated into the tenured to-space,
  // whose addresses the from-space IsTenured predicate does not cover
  // until the region pointers flip at endMajor.
  const bool DestTenured =
      IsTenured &&
      (CurEventKind == GcEventKind::Major || IsTenured(NewRef));
  uint32_t Site = UnknownSite;
  if (siteTracking()) {
    size_t Idx = lookupIndex(OldRef);
    uint32_t AgeBits;
    bool WasTenured;
    if (Idx != SIZE_MAX) {
      Site = Lookup[Idx].Site;
      AgeBits = Lookup[Idx].AgeBits;
      WasTenured = (AgeBits & TenuredBit) != 0;
      if (FirstRound) {
        // The object survived one more collection. A grow-loop retrace
        // revisits the same live set, so only the first round ages; a
        // retrace's lookup table already holds the incremented age.
        uint32_t Age = AgeBits & AgeMask;
        if (Age < AgeMask)
          ++Age;
        AgeBits = (AgeBits & ~AgeMask) | Age;
        size_t LifeIdx = Site == UnknownSite ? Sites.size() : Site;
        for (size_t M = 0; M < SurvivalAges.size(); ++M)
          if (Age == SurvivalAges[M])
            ++Life[LifeIdx].Survived[M];
      }
    } else {
      // Never logged (allocation predates profiling): age unknown —
      // count it as having survived this one collection, and infer the
      // generation it came from by its pre-trace address.
      AgeBits = 1;
      WasTenured = IsTenured && IsTenured(OldRef);
      if (WasTenured)
        AgeBits |= TenuredBit;
    }
    size_t LifeIdx = Site == UnknownSite ? Sites.size() : Site;
    Tally &ST = CurSite[LifeIdx];
    ++ST.Objects;
    ST.Words += Words;
    ++CurAgeObs;
    ++CurAgeHist[ageBucket(AgeBits & AgeMask)];
    if (DestTenured) {
      if (!WasTenured && FirstRound) {
        ++Life[LifeIdx].PromotedObjects;
        Life[LifeIdx].PromotedWords += Words;
      }
      AgeBits |= TenuredBit;
    }
    NextTable.push_back({NewRef, Site, AgeBits});
  }
  if (IsTenured) {
    Tally &GT = DestTenured ? CurTenured : CurNursery;
    ++GT.Objects;
    GT.Words += Words;
  }
  if (GraphActive)
    Graph->recordNode(NewRef, Site == UnknownSite ? (uint32_t)Sites.size()
                                                  : Site,
                      K, Words);
}

void HeapProfiler::finishCollection(
    uint64_t CoveredBytes, const std::function<bool(Word)> &KeepUnvisited) {
  if (!Enabled || !InCollection)
    return;
  InCollection = false;
  Paused = false;

  if (siteTracking()) {
    // Unconsumed entries that nothing keeps were live last cycle and
    // went unvisited by this (full-coverage-for-them) trace: they died.
    // Their stored age — not incremented — is the age at death.
    accountDeaths(KeepUnvisited);
    // Rebuild the table for the next cycle: everything the trace visited
    // (at its new address) plus the unvisited entries that survive a
    // partial-coverage collection (tenured objects during a minor).
    if (KeepUnvisited)
      for (size_t I = 0; I < Lookup.size(); ++I)
        if (!Consumed[I] && KeepUnvisited(Lookup[I].Addr))
          NextTable.push_back(Lookup[I]);
    if (IsTenured) {
      // Route tenured entries (promotions, and after a major the whole
      // live set) to TenSet so they stop costing the minors anything.
      size_t Keep = 0;
      for (const AddrSite &E : NextTable) {
        if (IsTenured(E.Addr))
          TenSet.push_back(E);
        else
          NextTable[Keep++] = E;
      }
      NextTable.resize(Keep);
    }
    // Visit order follows bump allocation of the new addresses, so the
    // rebuilt table is usually already sorted.
    auto ByAddr = [](const AddrSite &A, const AddrSite &B) {
      return A.Addr < B.Addr;
    };
    if (!std::is_sorted(NextTable.begin(), NextTable.end(), ByAddr))
      std::sort(NextTable.begin(), NextTable.end(), ByAddr);
    Table = std::move(NextTable);
    NextTable.clear();
    Lookup.clear();
    Consumed.clear();
  }

  Snap.Valid = true;
  Snap.Seq = Collections++;
  Snap.Kind = CurEventKind;
  Snap.CoveredBytes = CoveredBytes;
  Snap.Objects = CurObjects;
  Snap.Words = CurWords;
  Snap.ByKind = CurKind;
  Snap.BySite = siteTracking() ? CurSite : std::vector<Tally>{};
  Snap.HasGenSplit = (bool)IsTenured;
  Snap.Nursery = CurNursery;
  Snap.Tenured = CurTenured;
  Snap.Retainers.clear();
  Snap.AgeObservations = CurAgeObs;
  Snap.AgeHist = CurAgeHist;
  // Retainers ride the graph capture, which skips minor collections: a
  // minor's trace covers the young generation only, so dominator math
  // over it would misattribute retention.
  Snap.RetainersComputed = GraphActive && TopRetainers > 0;
  if (GraphActive) {
    Graph->finalizeCapture(Snap.Seq, CurEventKind, CoveredBytes, CurKind,
                           Life, allocCountsNow(), Snap.Retainers);
    GraphActive = false;
  }
  IsTenured = nullptr;
}

void HeapProfiler::writeSnapshotJson(std::ostream &OS) const {
  OS << "{\n  \"schema\": 1,\n  \"tool\": \"tfgc-heap-profile\",\n";
  OS << "  \"label\": \"" << jsonEscape(Label) << "\",\n";
  OS << "  \"valid\": " << (Snap.Valid ? "true" : "false") << ",\n";
  OS << "  \"site_tracking\": " << (siteTracking() ? "true" : "false")
     << ",\n";
  OS << "  \"collection\": {\"seq\": " << Snap.Seq << ", \"kind\": \""
     << gcEventKindName(Snap.Kind) << "\"},\n";
  OS << "  \"used_bytes\": " << Snap.CoveredBytes << ",\n";
  OS << "  \"objects\": " << Snap.Objects << ",\n";
  OS << "  \"bytes\": " << Snap.Words * sizeof(Word) << ",\n";

  OS << "  \"by_kind\": [";
  bool First = true;
  for (size_t I = 0; I < NumCensusKinds; ++I) {
    const Tally &T = Snap.ByKind[I];
    if (!T.Objects)
      continue;
    OS << (First ? "" : ",") << "\n    {\"kind\": \""
       << censusKindName((CensusKind)I) << "\", \"objects\": " << T.Objects
       << ", \"bytes\": " << T.Words * sizeof(Word) << "}";
    First = false;
  }
  OS << (First ? "]" : "\n  ]") << ",\n";

  auto SiteFields = [&](uint32_t Id) {
    const AllocSiteDesc &D = Sites[Id];
    OS << "\"site\": " << Id << ", \"func\": \"" << jsonEscape(D.Func)
       << "\", \"line\": " << D.Line << ", \"col\": " << D.Col
       << ", \"type\": \"" << jsonEscape(D.TypeStr) << "\"";
  };

  OS << "  \"by_site\": [";
  First = true;
  for (size_t I = 0; I < Snap.BySite.size(); ++I) {
    const Tally &T = Snap.BySite[I];
    if (!T.Objects)
      continue;
    OS << (First ? "" : ",") << "\n    {";
    if (I < Sites.size())
      SiteFields((uint32_t)I);
    else
      OS << "\"site\": -1, \"func\": \"<unknown>\", \"line\": 0, "
            "\"col\": 0, \"type\": \"\"";
    OS << ", \"objects\": " << T.Objects
       << ", \"bytes\": " << T.Words * sizeof(Word) << "}";
    First = false;
  }
  OS << (First ? "]" : "\n  ]") << ",\n";

  if (Snap.HasGenSplit) {
    OS << "  \"gen\": {\"nursery_objects\": " << Snap.Nursery.Objects
       << ", \"nursery_bytes\": " << Snap.Nursery.Words * sizeof(Word)
       << ", \"tenured_objects\": " << Snap.Tenured.Objects
       << ", \"tenured_bytes\": " << Snap.Tenured.Words * sizeof(Word)
       << "},\n";
  }

  if (siteTracking()) {
    OS << "  \"age_observations\": " << Snap.AgeObservations << ",\n";
    OS << "  \"age_hist\": [";
    for (size_t I = 0; I < Snap.AgeHist.size(); ++I)
      OS << (I ? ", " : "") << Snap.AgeHist[I];
    OS << "],\n";
    OS << "  \"lifetime\": [";
    First = true;
    for (size_t I = 0; I < Life.size(); ++I) {
      const SiteLifetime &L = Life[I];
      bool Any = L.Deaths || L.PromotedObjects;
      for (uint64_t S : L.Survived)
        Any = Any || S;
      if (!Any)
        continue;
      OS << (First ? "" : ",") << "\n    {\"site\": "
         << (I < Sites.size() ? (int64_t)I : -1) << ", \"survived\": [";
      for (size_t M = 0; M < L.Survived.size(); ++M)
        OS << (M ? ", " : "") << L.Survived[M];
      OS << "], \"deaths\": " << L.Deaths << ", \"death_hist\": [";
      for (size_t M = 0; M < L.DeathHist.size(); ++M)
        OS << (M ? ", " : "") << L.DeathHist[M];
      OS << "], \"promoted_objects\": " << L.PromotedObjects
         << ", \"promoted_words\": " << L.PromotedWords << "}";
      First = false;
    }
    OS << (First ? "]" : "\n  ]") << ",\n";
  }
  OS << "  \"alloc_total\": " << AllocTotal << ",\n";
  OS << "  \"alloc_sites\": [";
  First = true;
  std::vector<uint64_t> Counts = allocCountsNow();
  for (size_t I = 0; I < Counts.size(); ++I) {
    if (!Counts[I])
      continue;
    OS << (First ? "" : ",") << "\n    {";
    SiteFields((uint32_t)I);
    OS << ", \"count\": " << Counts[I] << "}";
    First = false;
  }
  OS << (First ? "]" : "\n  ]");

  if (Snap.RetainersComputed) {
    OS << ",\n  \"retainers\": [";
    First = true;
    for (const RetainerInfo &R : Snap.Retainers) {
      OS << (First ? "" : ",") << "\n    {\"addr\": \"0x" << std::hex
         << R.Addr << std::dec << "\", \"kind\": \""
         << censusKindName(R.Kind) << "\", \"site\": "
         << (R.Site == UnknownSite ? -1 : (int64_t)R.Site)
         << ", \"self_bytes\": " << R.SelfBytes
         << ", \"retained_bytes\": " << R.RetainedBytes << ", \"path\": [";
      for (size_t I = 0; I < R.Path.size(); ++I)
        OS << (I ? ", " : "") << '"' << jsonEscape(R.Path[I]) << '"';
      OS << "]}";
      First = false;
    }
    OS << (First ? "]" : "\n  ]");
  }
  OS << "\n}\n";
}
