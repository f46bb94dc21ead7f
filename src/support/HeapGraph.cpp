//===- support/HeapGraph.cpp ----------------------------------------------===//

#include "support/HeapGraph.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

using namespace tfgc;

namespace {

void putVarint(std::string &S, uint64_t V) {
  while (V >= 0x80) {
    S.push_back((char)(0x80 | (V & 0x7f)));
    V >>= 7;
  }
  S.push_back((char)V);
}

void putZigzag(std::string &S, int64_t V) {
  putVarint(S, ((uint64_t)V << 1) ^ (uint64_t)(V >> 63));
}

void putStr(std::string &S, const std::string &Str) {
  putVarint(S, Str.size());
  S += Str;
}

constexpr uint32_t NoNode = ~0u;

} // namespace

bool HeapGraph::openFile(const std::string &Path, std::string *Err) {
  Out.open(Path, std::ios::binary | std::ios::trunc);
  if (!Out) {
    if (Err)
      *Err = "cannot open heap-dump file: " + Path;
    return false;
  }
  OutOpen = true;
  return true;
}

void HeapGraph::configure(const std::vector<AllocSiteDesc> *S,
                          const std::vector<std::string> *F, bool Tagged,
                          unsigned Retainers) {
  Sites = S;
  FuncNames = F;
  TaggedHeaders = Tagged;
  TopRetainers = Retainers;
}

bool HeapGraph::beginCapture(GcEventKind Kind) {
  // Minors trace the nursery only; a partial graph would dangle into
  // the untraced tenured set, so only full/major collections are
  // eligible (and count against the every-N gate).
  if (Kind == GcEventKind::Minor)
    return false;
  // Fire on the Nth, 2Nth, ... eligible collection (not the first): a
  // huge N is a true off-switch, which is also what makes the armed
  // state free — see bench_heap_graph. The gate counts only while a
  // destination exists, so retainers never shift which chunks are
  // written.
  Dump = active() && ++EligibleSeen % Every == 0;
  if (!Dump && !TopRetainers)
    return false;
  resetCapture();
  return true;
}

void HeapGraph::resetCapture() {
  Nodes.clear();
  Edges.clear();
  Roots.clear();
}

void HeapGraph::finalizeCapture(
    uint64_t Seq, GcEventKind Kind, uint64_t CoveredBytes,
    const std::array<HeapProfiler::Tally, NumCensusKinds> &ByKind,
    const std::vector<HeapProfiler::SiteLifetime> &Lifetimes,
    const std::vector<uint64_t> &AllocCounts,
    std::vector<RetainerInfo> &Retainers) {
  const size_t SiteCount = Sites ? Sites->size() : 0;
  const size_t NumSlots = SiteCount + 1; // Last slot = unknown bucket.

  // Addresses are unique (one first-visit per object per round).
  std::sort(Nodes.begin(), Nodes.end(),
            [](const NodeRec &A, const NodeRec &B) { return A.Addr < B.Addr; });
  const size_t N = Nodes.size();
  auto FindNode = [&](Word W) -> uint32_t {
    auto It = std::lower_bound(
        Nodes.begin(), Nodes.end(), W,
        [](const NodeRec &A, Word V) { return A.Addr < V; });
    if (It == Nodes.end() || It->Addr != W)
      return NoNode;
    return (uint32_t)(It - Nodes.begin());
  };

  // Resolve recorded references against the node set. The tracers
  // record only fields (and root slots) whose reconstructed type or tag
  // says they can hold a reference; children that are no object
  // (nullary constructors, nulls) drop out here.
  std::vector<std::array<uint32_t, 3>> E; // {src, field, dst}
  E.reserve(Edges.size() / 2);
  for (const EdgeRec &Ed : Edges) {
    uint32_t D = FindNode(Ed.Child), S = FindNode(Ed.Parent);
    if (D != NoNode && S != NoNode)
      E.push_back({S, Ed.Field, D});
  }
  std::sort(E.begin(), E.end());
  E.erase(std::unique(E.begin(), E.end()), E.end());

  // Stack order: a frame's slots sit above its caller's (std::less: the
  // slots of several task stacks are unrelated arrays).
  std::sort(Roots.begin(), Roots.end(),
            [](const HeapRoot &A, const HeapRoot &B) {
              return std::less<const Word *>()(A.Where, B.Where);
            });
  std::vector<std::pair<uint32_t, uint32_t>> RootsResolved; // (root, node)
  for (size_t I = 0; I < Roots.size(); ++I) {
    uint32_t D = FindNode(Roots[I].Value);
    if (D != NoNode)
      RootsResolved.push_back({(uint32_t)I, D});
  }

  // -- Dominators (Cooper-Harvey-Kennedy) over the captured graph, from
  // a virtual root N whose successors are the resolved root nodes.
  const uint32_t RootN = (uint32_t)N;
  std::vector<std::vector<uint32_t>> Succ(N + 1);
  for (const auto &[RI, NI] : RootsResolved)
    Succ[RootN].push_back(NI);
  for (const auto &Ed : E)
    Succ[Ed[0]].push_back(Ed[2]);

  std::vector<int> RpoNum(N + 1, -1);
  std::vector<uint32_t> Order;
  {
    std::vector<uint32_t> Post;
    std::vector<std::pair<uint32_t, size_t>> Stack;
    std::vector<uint8_t> Visited(N + 1, 0);
    Stack.push_back({RootN, 0});
    Visited[RootN] = 1;
    while (!Stack.empty()) {
      auto &[V, Ei] = Stack.back();
      if (Ei < Succ[V].size()) {
        uint32_t W = Succ[V][Ei++];
        if (!Visited[W]) {
          Visited[W] = 1;
          Stack.push_back({W, 0});
        }
      } else {
        Post.push_back(V);
        Stack.pop_back();
      }
    }
    Order.assign(Post.rbegin(), Post.rend());
    for (size_t I = 0; I < Order.size(); ++I)
      RpoNum[Order[I]] = (int)I;
  }
  std::vector<std::vector<uint32_t>> Pred(N + 1);
  for (uint32_t V : Order)
    for (uint32_t W : Succ[V])
      if (RpoNum[W] >= 0)
        Pred[W].push_back(V);

  std::vector<int> Idom(N + 1, -1);
  Idom[RootN] = (int)RootN;
  auto Intersect = [&](int A, int B) {
    while (A != B) {
      while (RpoNum[A] > RpoNum[B])
        A = Idom[A];
      while (RpoNum[B] > RpoNum[A])
        B = Idom[B];
    }
    return A;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t I = 1; I < Order.size(); ++I) {
      uint32_t V = Order[I];
      int NewIdom = -1;
      for (uint32_t P : Pred[V]) {
        if (Idom[P] == -1)
          continue;
        NewIdom = NewIdom == -1 ? (int)P : Intersect((int)P, NewIdom);
      }
      if (NewIdom != -1 && Idom[V] != NewIdom) {
        Idom[V] = NewIdom;
        Changed = true;
      }
    }
  }

  // Reverse RPO visits children before their idom (an idom's RPO number
  // is always smaller), so one bottom-up pass accumulates exactly.
  std::vector<uint64_t> Retained(N + 1, 0);
  for (size_t I = 0; I < N; ++I)
    if (RpoNum[I] >= 0)
      Retained[I] = Nodes[I].Words * sizeof(Word);
  for (size_t I = Order.size(); I-- > 1;) {
    uint32_t V = Order[I];
    if (Idom[V] >= 0)
      Retained[(size_t)Idom[V]] += Retained[V];
  }

  if (TopRetainers)
    rankRetainers(Succ, RpoNum, Retained, RootsResolved, Retainers);
  if (!Dump) {
    resetCapture();
    return;
  }

  // -- Per-site retained with same-site dedup: a node contributes its
  // retained bytes to its site only when no *strict* dominator ancestor
  // shares the site — a list spine of one site counts its head once,
  // not every cons cell's nested subtree. One DFS over the dominator
  // tree with per-site depth counters does it in O(n).
  std::vector<uint64_t> SiteRetainedB(NumSlots, 0);
  {
    std::vector<std::vector<uint32_t>> Kids(N + 1);
    for (uint32_t V = 0; V < (uint32_t)N; ++V)
      if (RpoNum[V] >= 0 && Idom[V] >= 0 && Idom[V] != (int)V)
        Kids[(size_t)Idom[V]].push_back(V);
    std::vector<uint32_t> SiteDepth(NumSlots, 0);
    // (node, entered) DFS; RootN has no site.
    std::vector<std::pair<uint32_t, bool>> Stack{{RootN, false}};
    while (!Stack.empty()) {
      auto [V, Entered] = Stack.back();
      uint32_t Slot = V < N ? Nodes[V].Site : (uint32_t)NumSlots;
      if (Entered) {
        Stack.pop_back();
        if (Slot < NumSlots)
          --SiteDepth[Slot];
        continue;
      }
      Stack.back().second = true;
      if (Slot < NumSlots) {
        if (SiteDepth[Slot] == 0)
          SiteRetainedB[Slot] += Retained[V];
        ++SiteDepth[Slot];
      }
      for (uint32_t K : Kids[V])
        Stack.push_back({K, false});
    }
  }

  // -- Per-site live tallies and the capture summary.
  std::vector<HeapProfiler::Tally> SiteLive(NumSlots);
  Last = CaptureInfo{};
  Last.Valid = true;
  Last.Seq = Seq;
  Last.Kind = Kind;
  Last.Nodes = N;
  Last.Edges = E.size();
  Last.RootRefs = RootsResolved.size();
  for (const NodeRec &Nd : Nodes) {
    // Graph-derived census (the chunk footer carries the profiler's own
    // tallies; tests and --check compare the two).
    HeapProfiler::Tally &KT = Last.ByKind[Nd.Kind];
    ++KT.Objects;
    KT.Words += Nd.Words;
    uint32_t Slot = Nd.Site < NumSlots ? Nd.Site : (uint32_t)SiteCount;
    ++SiteLive[Slot].Objects;
    SiteLive[Slot].Words += Nd.Words;
  }

  if (PrevRetained.size() != NumSlots)
    PrevRetained.assign(NumSlots, 0);
  // Baseline for growth ranking: the first capture of the run. New
  // sites discovered later simply have a zero baseline.
  if (FirstRetained.size() < NumSlots)
    FirstRetained.resize(NumSlots, 0);
  if (FirstLiveObjects.size() < NumSlots)
    FirstLiveObjects.resize(NumSlots, 0);
  for (uint32_t Slot = 0; Slot < (uint32_t)NumSlots; ++Slot) {
    if (!SiteLive[Slot].Objects && !SiteRetainedB[Slot] &&
        !PrevRetained[Slot])
      continue;
    SiteRetainedRow Row;
    Row.Site = Slot;
    Row.LiveObjects = SiteLive[Slot].Objects;
    Row.LiveWords = SiteLive[Slot].Words;
    Row.RetainedBytes = SiteRetainedB[Slot];
    Row.DeltaBytes = HavePrev ? (int64_t)SiteRetainedB[Slot] -
                                    (int64_t)PrevRetained[Slot]
                              : 0;
    Row.GrowthBytes = HaveFirst ? (int64_t)SiteRetainedB[Slot] -
                                      (int64_t)FirstRetained[Slot]
                                : 0;
    Row.GrowthObjects = HaveFirst ? (int64_t)SiteLive[Slot].Objects -
                                        (int64_t)FirstLiveObjects[Slot]
                                  : 0;
    Last.Retained.push_back(Row);
  }
  std::sort(Last.Retained.begin(), Last.Retained.end(),
            [](const SiteRetainedRow &A, const SiteRetainedRow &B) {
              if (A.RetainedBytes != B.RetainedBytes)
                return A.RetainedBytes > B.RetainedBytes;
              return A.Site < B.Site;
            });
  if (!HaveFirst) {
    FirstRetained = SiteRetainedB;
    for (uint32_t Slot = 0; Slot < (uint32_t)NumSlots; ++Slot)
      FirstLiveObjects[Slot] = SiteLive[Slot].Objects;
    HaveFirst = true;
  }
  PrevRetained = std::move(SiteRetainedB);
  HavePrev = true;

  // -- Serialize, stream, publish. Flushed per chunk so an abnormal
  // exit (verify violation, crash) keeps everything captured so far.
  std::string Body = serializeChunk(Seq, Kind, CoveredBytes, RootsResolved,
                                    Roots, E, Lifetimes, AllocCounts, ByKind);
  std::string Framed;
  Framed.reserve(Body.size() + 12);
  Framed += "TFGH";
  Framed.push_back((char)1); // version
  Framed.push_back((char)(TaggedHeaders ? 1 : 0));
  Framed.push_back(0);
  Framed.push_back(0);
  uint32_t Len = (uint32_t)Body.size();
  for (int I = 0; I < 4; ++I)
    Framed.push_back((char)((Len >> (8 * I)) & 0xff));
  Framed += Body;
  if (OutOpen) {
    Out.write(Framed.data(), (std::streamsize)Framed.size());
    Out.flush();
  }
  ++Chunks;
  if (Sink)
    Sink(Framed);
  resetCapture();
}

void HeapGraph::rankRetainers(
    const std::vector<std::vector<uint32_t>> &Succ,
    const std::vector<int> &RpoNum, const std::vector<uint64_t> &Retained,
    const std::vector<std::pair<uint32_t, uint32_t>> &RootsResolved,
    std::vector<RetainerInfo> &Out) const {
  const size_t N = Nodes.size();
  const uint32_t RootN = (uint32_t)N;
  const size_t SiteCount = Sites ? Sites->size() : 0;

  std::vector<uint32_t> Ranked;
  for (uint32_t V = 0; V < (uint32_t)N; ++V)
    if (RpoNum[V] >= 0)
      Ranked.push_back(V);
  // Ties go to the earlier node in reverse postorder (unique per node,
  // so the ranking is deterministic).
  size_t Top = std::min<size_t>(Ranked.size(), TopRetainers);
  std::partial_sort(Ranked.begin(), Ranked.begin() + Top, Ranked.end(),
                    [&](uint32_t A, uint32_t B) {
                      if (Retained[A] != Retained[B])
                        return Retained[A] > Retained[B];
                      return RpoNum[A] < RpoNum[B];
                    });
  Ranked.resize(Top);

  // BFS parents give each reported retainer one sample root path.
  std::vector<int> Parent(N + 1, -1);
  std::vector<uint32_t> Queue{RootN};
  for (size_t Qi = 0; Qi < Queue.size(); ++Qi)
    for (uint32_t W : Succ[Queue[Qi]])
      if (Parent[W] < 0) {
        Parent[W] = (int)Queue[Qi];
        Queue.push_back(W);
      }
  auto Descr = [&](uint32_t V) {
    const NodeRec &Nd = Nodes[V];
    std::string S = censusKindName((CensusKind)Nd.Kind);
    if (Nd.Site < SiteCount) {
      const AllocSiteDesc &D = (*Sites)[Nd.Site];
      S += "@" + D.Func + (D.Line ? ":" + std::to_string(D.Line) : "");
    }
    return S;
  };

  Out.clear();
  for (uint32_t V : Ranked) {
    const NodeRec &Nd = Nodes[V];
    RetainerInfo R;
    R.Addr = Nd.Addr;
    R.Site = Nd.Site < SiteCount ? Nd.Site : HeapProfiler::UnknownSite;
    R.Kind = (CensusKind)Nd.Kind;
    R.SelfBytes = Nd.Words * sizeof(Word);
    R.RetainedBytes = Retained[V];
    // Climb the BFS tree to the root; cap the sample path so a deep list
    // spine reports its head, not a thousand hops.
    std::vector<uint32_t> Chain;
    for (int C = (int)V; C != (int)RootN && Chain.size() < 64; C = Parent[C])
      Chain.push_back((uint32_t)C);
    // Label a root-held head with the first root slot that holds it.
    for (const auto &[RI, NI] : RootsResolved)
      if (NI == Chain.back()) {
        const HeapRoot &Root = Roots[RI];
        R.Path.push_back((FuncNames && Root.Func < FuncNames->size()
                              ? (*FuncNames)[Root.Func]
                              : "fn" + std::to_string(Root.Func)) +
                         ":slot" + std::to_string(Root.Slot));
        break;
      }
    size_t Shown = 0;
    for (size_t I = Chain.size(); I-- > 0 && Shown < 12; ++Shown)
      R.Path.push_back(Descr(Chain[I]));
    Out.push_back(std::move(R));
  }
}

std::string HeapGraph::serializeChunk(
    uint64_t Seq, GcEventKind Kind, uint64_t CoveredBytes,
    const std::vector<std::pair<uint32_t, uint32_t>> &RootsResolved,
    const std::vector<HeapRoot> &Roots,
    const std::vector<std::array<uint32_t, 3>> &E,
    const std::vector<HeapProfiler::SiteLifetime> &Lifetimes,
    const std::vector<uint64_t> &AllocCounts,
    const std::array<HeapProfiler::Tally, NumCensusKinds> &FooterByKind)
    const {
  const size_t SiteCount = Sites ? Sites->size() : 0;
  std::string B;
  B.reserve(64 + Nodes.size() * 6 + E.size() * 4);

  putVarint(B, Seq);
  B.push_back((char)Kind);
  putVarint(B, CoveredBytes);

  // Site table (chunks are self-contained: /heapdump serves one alone).
  putVarint(B, SiteCount);
  for (size_t I = 0; I < SiteCount; ++I) {
    const AllocSiteDesc &D = (*Sites)[I];
    putStr(B, D.Func);
    putVarint(B, D.Line);
    putVarint(B, D.Col);
    putStr(B, D.TypeStr);
  }
  putVarint(B, FuncNames ? FuncNames->size() : 0);
  if (FuncNames)
    for (const std::string &F : *FuncNames)
      putStr(B, F);

  // Nodes, address-sorted and delta-encoded. Site SiteCount = unknown.
  putVarint(B, Nodes.size());
  Word Prev = 0;
  for (const NodeRec &Nd : Nodes) {
    putVarint(B, (uint64_t)(Nd.Addr - Prev));
    Prev = Nd.Addr;
    B.push_back((char)Nd.Kind);
    putVarint(B, Nd.Site);
    putVarint(B, Nd.Words);
  }

  // Edges, sorted by source; source delta-encoded.
  putVarint(B, E.size());
  uint32_t PrevSrc = 0;
  for (const auto &Ed : E) {
    putVarint(B, Ed[0] - PrevSrc);
    PrevSrc = Ed[0];
    putVarint(B, Ed[1]);
    putVarint(B, Ed[2]);
  }

  // Roots that resolved to a node: function, slot, node index.
  putVarint(B, RootsResolved.size());
  for (const auto &[RI, NI] : RootsResolved) {
    putVarint(B, Roots[RI].Func);
    putVarint(B, Roots[RI].Slot);
    putVarint(B, NI);
  }

  // Per-site live + retained (+ delta vs previous capture).
  putVarint(B, Last.Retained.size());
  for (const SiteRetainedRow &R : Last.Retained) {
    putVarint(B, R.Site);
    putVarint(B, R.LiveObjects);
    putVarint(B, R.LiveWords);
    putVarint(B, R.RetainedBytes);
    putZigzag(B, R.DeltaBytes);
  }

  // Cumulative per-site lifetime stats (empty when site tracking off).
  size_t LifeRows = 0;
  for (size_t I = 0; I < Lifetimes.size(); ++I) {
    const HeapProfiler::SiteLifetime &L = Lifetimes[I];
    bool Any = L.Deaths || L.PromotedObjects;
    for (uint64_t S : L.Survived)
      Any = Any || S;
    if (Any || (I < AllocCounts.size() && AllocCounts[I]))
      ++LifeRows;
  }
  putVarint(B, LifeRows);
  for (size_t I = 0; I < Lifetimes.size(); ++I) {
    const HeapProfiler::SiteLifetime &L = Lifetimes[I];
    bool Any = L.Deaths || L.PromotedObjects;
    for (uint64_t S : L.Survived)
      Any = Any || S;
    if (!Any && !(I < AllocCounts.size() && AllocCounts[I]))
      continue;
    putVarint(B, I);
    for (uint64_t S : L.Survived)
      putVarint(B, S);
    putVarint(B, L.Deaths);
    for (uint64_t D : L.DeathHist)
      putVarint(B, D);
    putVarint(B, L.PromotedObjects);
    putVarint(B, L.PromotedWords);
    putVarint(B, I < AllocCounts.size() ? AllocCounts[I] : 0);
  }

  // Census footer: the profiler's own per-kind tallies — the decoder
  // cross-checks the node-derived sums against these.
  putVarint(B, NumCensusKinds);
  uint64_t TotalObjects = 0, TotalWords = 0;
  for (size_t I = 0; I < NumCensusKinds; ++I) {
    putStr(B, censusKindName((CensusKind)I));
    putVarint(B, FooterByKind[I].Objects);
    putVarint(B, FooterByKind[I].Words);
    TotalObjects += FooterByKind[I].Objects;
    TotalWords += FooterByKind[I].Words;
  }
  putVarint(B, TotalObjects);
  putVarint(B, TotalWords);
  return B;
}

std::vector<SiteRetainedRow> HeapGraph::rankedDeltas() const {
  std::vector<SiteRetainedRow> Rows = Last.Retained;
  std::sort(Rows.begin(), Rows.end(),
            [](const SiteRetainedRow &A, const SiteRetainedRow &B) {
              if (A.GrowthBytes != B.GrowthBytes)
                return A.GrowthBytes > B.GrowthBytes;
              // A dominator that merely holds a growing structure (one
              // ref cell) ties the leaking site on retained growth but
              // stays at a constant object count; the leak accumulates.
              if (A.GrowthObjects != B.GrowthObjects)
                return A.GrowthObjects > B.GrowthObjects;
              return A.Site < B.Site;
            });
  return Rows;
}

void HeapGraph::finish() {
  if (OutOpen) {
    Out.flush();
    Out.close();
    OutOpen = false;
  }
}
