//===- core/Collector.cpp -------------------------------------------------===//

#include "core/Collector.h"
#include "core/Space.h"
#include "gcmeta/CompiledRoutines.h"
#include "sched/WorkSteal.h"
#include "support/FlightRecorder.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

using namespace tfgc;

const char *tfgc::gcAlgorithmName(GcAlgorithm A) {
  switch (A) {
  case GcAlgorithm::Copying:      return "copying";
  case GcAlgorithm::MarkSweep:    return "marksweep";
  case GcAlgorithm::Generational: return "generational";
  }
  return "?";
}

const char *tfgc::gcStrategyName(GcStrategy S) {
  switch (S) {
  case GcStrategy::Tagged:             return "tagged";
  case GcStrategy::CompiledTagFree:    return "compiled-tagfree";
  case GcStrategy::InterpretedTagFree: return "interpreted-tagfree";
  case GcStrategy::AppelTagFree:       return "appel-tagfree";
  }
  return "?";
}

Collector::Collector(ValueModel Model, GcAlgorithm Algo, size_t HeapBytes,
                     Stats &St, size_t NurseryBytes)
    : Model(Model), Algo(Algo), St(St) {
  if (Algo == GcAlgorithm::Copying) {
    Copying = std::make_unique<Heap>(HeapBytes);
  } else if (Algo == GcAlgorithm::MarkSweep) {
    Ms = std::make_unique<MarkSweepHeap>(HeapBytes);
  } else {
    size_t Nursery = NurseryBytes ? NurseryBytes : HeapBytes / 8;
    Nursery = std::min(Nursery, HeapBytes);
    Gen = std::make_unique<GenHeap>(HeapBytes - Nursery, Nursery);
  }
}

Word *Collector::tryAllocatePayload(size_t PayloadWords, ObjKind Kind,
                                    StatsShard *Sh) {
  assert(PayloadWords > 0);
  assert((Ms || !ParallelMutators) &&
         "OS-thread mutators over a bump heap allocate through their TLAB");
  size_t Total =
      Model == ValueModel::Tagged ? PayloadWords + 1 : PayloadWords;
  Word *P;
  if (Ms && ParallelMutators) {
    // Mark-sweep has free lists, not a bump cursor: serialize.
    std::lock_guard<std::mutex> Lock(MutatorMutex);
    P = Ms->tryAllocate(Total);
  } else {
    P = Copying ? Copying->tryAllocate(Total)
        : Ms    ? Ms->tryAllocate(Total)
                : Gen->tryAllocate(Total);
  }
  if (!P)
    return nullptr;
  if (Sh)
    Sh->add(StatId::HeapObjectsAllocated);
  else
    St.add(StatId::HeapObjectsAllocated);
  if (Model == ValueModel::Tagged) {
    P[0] = makeHeader((uint32_t)PayloadWords, Kind);
    return P + 1;
  }
  return P;
}

bool Collector::refillTlab(Tlab &T, size_t MinWords) {
  assert(mutatorRegion() && "TLABs carve off a bump heap");
  BumpRegion &W = T.Window;
  bool Ok = Copying ? Copying->refillTlab(MinWords, Tlab::ChunkWords,
                                          W.Cursor, W.End)
                    : Gen->refillTlab(MinWords, Tlab::ChunkWords, W.Cursor,
                                      W.End);
  if (!Ok)
    return false;
  ++T.Refills;
  if (T.Flight) [[unlikely]]
    T.Flight->record(FlightEventType::TlabRefill, 0,
                     (uint64_t)(W.End - W.Cursor) * sizeof(Word), T.Refills);
  return true;
}

void Collector::setFlightRecorder(FlightRecorder *F) {
  Flight = F;
  Tel.setFlightRing(F ? &F->gcRing() : nullptr);
}

void Collector::setGcThreads(unsigned N) {
  GcThreads = N ? N : 1;
  if (Copying)
    Copying->setParallelTracing(GcThreads);
  if (Gen)
    Gen->setParallelTracing(GcThreads);
}

bool Collector::traceStacksParallel(
    RootSet &Roots, Space &Sp,
    const std::function<void(TaskStack &Stack, Space &WorkerSp,
                             Stats &WorkerSt, CensusCounts &WorkerCensus,
                             unsigned Worker)> &TraceStack) {
  unsigned NumStacks = (unsigned)Roots.Stacks.size();
  if (GcThreads < 2 || Prof || NumStacks < 2)
    return false;
  unsigned K = std::min(GcThreads, NumStacks);

  // A worker's private world: a sibling Space targeting the same heap
  // through the claim/publish protocol, a counter domain, a census
  // accumulator, and a deque of stack indices. unique_ptr because the
  // deque holds atomics (not movable).
  struct WorkerCtx {
    std::unique_ptr<Space> Sp;
    Stats St;
    CensusCounts Census;
    WorkStealDeque<uint32_t> Deque;
  };
  std::vector<std::unique_ptr<WorkerCtx>> Workers;
  for (unsigned W = 0; W < K; ++W) {
    auto C = std::make_unique<WorkerCtx>();
    C->Sp = Sp.makeWorkerSpace();
    if (!C->Sp)
      return false; // CheckSpace / unarmed heap: serial only.
    Workers.push_back(std::move(C));
  }
  // Seed round-robin before any thread exists (owner-only push is safe:
  // nobody steals yet).
  for (uint32_t I = 0; I < NumStacks; ++I)
    Workers[I % K]->Deque.push(I);

  auto RunWorker = [&](unsigned W) {
    WorkerCtx &C = *Workers[W];
    // Each worker is the sole producer of its own flight ring (drained
    // later, after the joins, by the end-of-collection drain).
    FlightRing *FR = Flight ? &Flight->workerRing(W) : nullptr;
    if (FR)
      FR->record(FlightEventType::TraceWorkerBegin, W);
    uint64_t Steals = 0;
    for (;;) {
      uint32_t Idx;
      bool Ran = false;
      while (C.Deque.pop(Idx)) {
        Ran = true;
        TraceStack(*Roots.Stacks[Idx], *C.Sp, C.St, C.Census, W);
      }
      bool Any = false;
      for (unsigned D = 1; D < K; ++D) {
        WorkStealDeque<uint32_t> &Victim = Workers[(W + D) % K]->Deque;
        if (Victim.steal(Idx)) {
          C.St.add(StatId::GcStackSteals);
          ++Steals;
          TraceStack(*Roots.Stacks[Idx], *C.Sp, C.St, C.Census, W);
          Ran = Any = true;
          break;
        }
        if (!Victim.emptyApprox())
          Any = true; // Lost a race to another thief; sweep again.
      }
      if (!Ran && !Any)
        break;
    }
    if (FR)
      FR->record(FlightEventType::TraceWorkerEnd, W, Steals);
  };

  {
    // Workers run with no telemetry, so the collecting thread charges the
    // whole fan-out to frame dispatch, where the serial trace's frame
    // routines land too.
    PhaseScope Fanout(&Tel, GcPhase::FrameDispatch);
    std::vector<std::thread> Threads;
    Threads.reserve(K - 1);
    for (unsigned W = 1; W < K; ++W)
      Threads.emplace_back([&RunWorker, W] {
        Stats::setThreadLabel("gc-worker");
        RunWorker(W);
      });
    RunWorker(0);
    for (std::thread &Th : Threads)
      Th.join();
  }

  // Single-threaded again (joins give happens-before): merge each
  // worker's space-local tallies, counters, and census.
  for (auto &C : Workers) {
    Sp.mergeWorker(*C->Sp);
    Stats::mergeShard(St.baseShard(), C->St.baseShard());
    Tel.censusBulk(C->Census);
  }
  St.add(StatId::GcParallelTraces);
  St.max(StatId::GcParallelWorkers, K);
  return true;
}

void Collector::collect(RootSet &Roots, size_t NeedPayloadWords) {
  size_t Need = NeedPayloadWords + (Model == ValueModel::Tagged ? 1 : 0);
  if (Gen) {
    collectGenerational(Roots, Need);
    return;
  }
  Tel.beginCollection();
  {
    // The RootScan span stays open for the whole collection so the phase
    // spans partition the pause: finer spans (pointer reversal, frame
    // dispatch, closure build, copy/sweep, verify) nest inside it and
    // steal their time from it, and whatever is in none of them — loop
    // control, counter updates — stays charged to RootScan. The
    // profiler's begin (side-table merge + index build) runs inside the
    // span: its time is pause, so it must be covered by a phase.
    PhaseScope Outer(&Tel, GcPhase::RootScan);
    if (Prof)
      Prof->beginCollection(GcEventKind::Full, nullptr);

    if (Copying) {
      size_t Capacity = Copying->capacityBytes() / sizeof(Word);
      for (bool FirstRound = true;; FirstRound = false) {
        if (!FirstRound && Prof)
          Prof->beginTraceRound();
        {
          PhaseScope P(&Tel, GcPhase::CopySweep);
          Copying->beginCollection(Capacity);
        }
        CopyingSpace Sp(*Copying, Model == ValueModel::Tagged);
        traceRoots(Roots, Sp);
        {
          PhaseScope P(&Tel, GcPhase::CopySweep);
          Copying->endCollection();
        }
        if (Copying->freeWords() >= Need)
          break;
        // Not enough reclaimed: grow and collect again (the roots now live
        // in the new space, which becomes from-space for the next round).
        size_t UsedWords = Copying->usedBytes() / sizeof(Word);
        Capacity = Capacity * 2 > UsedWords + Need ? Capacity * 2
                                                   : (UsedWords + Need) * 2;
        St.add(StatId::GcHeapGrowths);
      }
    } else {
      {
        PhaseScope P(&Tel, GcPhase::CopySweep);
        Ms->beginMark();
      }
      MarkSpace Sp(*Ms, Model == ValueModel::Tagged);
      traceRoots(Roots, Sp);
      size_t Reclaimed;
      {
        PhaseScope P(&Tel, GcPhase::CopySweep);
        Reclaimed = Ms->sweep();
        while (!Ms->canAllocate(Need)) {
          Ms->addSegment();
          St.add(StatId::GcHeapGrowths);
        }
      }
      St.add(StatId::GcBytesReclaimed, Reclaimed);
    }

    St.add(StatId::GcCollections);

    if (VerifyAfterGc)
      verifyPass(Roots);

    if (Prof && Prof->enabled()) {
      uint64_t Covered = Copying ? (uint64_t)Copying->usedBytes()
                                 : Ms->liveWordsAfterSweep() * sizeof(Word);
      Prof->finishCollection(Covered, nullptr);
    }

    // Finish while the RootScan span is still open: finishCollection's
    // one clock read closes the span AND stamps the pause, leaving zero
    // end-of-collection slack (Outer's destructor then no-ops because
    // the collection is already closed).
    finishPause(Copying ? Copying->survivorWords()
                        : Ms->liveWordsAfterSweep());
  }
  epochSafepoint();
  // World still stopped: every ring's producer is parked or joined, so
  // the drain reads quiescent rings and the chunk lands globally ordered.
  if (Flight)
    Flight->maybeDrain();
}

void Collector::finishPause(uint64_t LiveWordsAfter) {
  // One clock for the counters and the pause histogram; the counters
  // exclude the diagnostic verify pass, which the event carries as its
  // own phase.
  const GcEvent &E = Tel.finishCollection(LiveWordsAfter, heapCapacityBytes());
  uint64_t Ns = E.PauseNs - E.PhaseNs[(size_t)GcPhase::Verify];
  St.add(StatId::GcPauseNsTotal, Ns);
  St.max(StatId::GcPauseNsMax, Ns);
}

void Collector::verifyPass(RootSet &Roots) {
  // Note: the verification pass re-runs the frame routines, so work
  // counters (objects visited, trace steps) double while it is on —
  // enable it in correctness tests only.
  PhaseScope V(&Tel, GcPhase::Verify);
  // The re-trace must not re-count census objects or re-enter the
  // tracing phases; its whole duration is charged to Verify. The heap
  // profiler pauses for the same reason: its per-collection tallies must
  // see each live object exactly once.
  Tel.setPaused(true);
  if (Prof)
    Prof->setPaused(true);
  CheckSpace Check(
      [this](Word P) {
        return Copying ? Copying->contains(P)
               : Ms    ? Ms->contains(P)
                       : Gen->contains(P);
      },
      Model == ValueModel::Tagged);
  traceRoots(Roots, Check);
  Tel.setPaused(false);
  if (Prof)
    Prof->setPaused(false);
  St.add(StatId::GcVerifyPasses);
  St.add(StatId::GcVerifyViolations, Check.violations());
  if (InjectVerifyViolation)
    St.add(StatId::GcVerifyViolations, 1);
}

bool Collector::recordRemset(Word *Slot, Type *Ty) {
  // Concurrent mutators race here (the fast-path filters in writeBarrier
  // are read-only); cooperative runs never contend.
  std::unique_lock<std::mutex> Lock(MutatorMutex, std::defer_lock);
  if (ParallelMutators)
    Lock.lock();
  if (Model != ValueModel::Tagged && (!Ty || !isGroundType(Ty))) {
    // Without headers a slot holding a non-ground-typed value cannot be
    // rescanned standalone (its layout depends on a frame's type-GC
    // environment, which the barrier does not have). Rare in practice:
    // mutation opcodes are monomorphic in every workload we generate.
    // Escalate the next collection to a full major, which needs no
    // remembered set.
    RemsetImprecise = true;
    return false;
  }
  if (!RemsetIndex.insert(Slot).second)
    return false; // Same tenured slot already buffered this cycle.
  Remset.push_back({Slot, Ty});
  return true;
}

void Collector::pruneRemset() {
  // After a non-promoting minor every traced entry was patched to the
  // survivor's new address, so entries stay valid; drop the ones whose
  // slot no longer holds a young pointer (the store was overwritten, or
  // it was a conservative false positive on an unboxed value).
  size_t Keep = 0;
  for (const RemsetEntry &E : Remset) {
    Word V = *E.Slot;
    bool Young = Model == ValueModel::Tagged
                     ? isTaggedPointer(V) && Gen->inNursery(V)
                     : Gen->inNursery(V);
    if (Young)
      Remset[Keep++] = E;
  }
  Remset.resize(Keep);
  RemsetIndex.clear();
  for (const RemsetEntry &E : Remset)
    RemsetIndex.insert(E.Slot);
}

void Collector::collectGenerational(RootSet &Roots, size_t Need) {
  // A minor collection is only sound/useful when (a) the remembered set
  // is precise, (b) the request fits a freshly emptied nursery, and (c)
  // the tenured space could absorb the whole nursery fill (so en-masse
  // promotion and remset-target promotion cannot overflow mid-trace).
  bool NeedMajor = RemsetImprecise || Need > Gen->nurseryCapacityWords() ||
                   Gen->tenuredFreeWords() < Gen->nurseryUsedWords();
  if (!NeedMajor) {
    ++MinorsSincePromotion;
    bool Promote = MinorsSincePromotion >= PromoteEvery;
    minorCollection(Roots, Promote);
    if (Promote)
      MinorsSincePromotion = 0;
    // Nursery still too full (long-lived young data): escalate.
    NeedMajor = Gen->nurseryFreeWords() < Need;
  }
  if (NeedMajor)
    majorCollection(Roots, Need);
  // One epoch per world pause, even when a minor escalated into a major.
  epochSafepoint();
  if (Flight)
    Flight->maybeDrain();
}

void Collector::minorCollection(RootSet &Roots, bool Promote) {
  Tel.beginCollection(GcEventKind::Minor);
  // Same span discipline as collect(): RootScan stays open for the whole
  // pause, finer phases nest inside it (the profiler's side-table merge
  // included), finishCollection closes both.
  PhaseScope Outer(&Tel, GcPhase::RootScan);
  if (Prof)
    Prof->beginCollection(GcEventKind::Minor,
                          [this](Word W) { return Gen->inTenured(W); });

  uint64_t YoungBefore =
      LiveYoungObjects + (St.get(StatId::HeapObjectsAllocated) - AllocSnapshot);

  {
    PhaseScope P(&Tel, GcPhase::CopySweep);
    Gen->beginMinor();
  }
  GenMinorSpace Sp(*Gen, Model == ValueModel::Tagged, Promote);
  traceRoots(Roots, Sp);
  {
    PhaseScope P(&Tel, GcPhase::RemsetScan);
    traceRemset(Sp);
  }
  {
    PhaseScope P(&Tel, GcPhase::CopySweep);
    Gen->endMinor();
  }

  if (Promote) {
    // En-masse promotion leaves the nursery empty, so no old→young edge
    // survives and the remembered set restarts from scratch.
    Remset.clear();
    RemsetIndex.clear();
  } else {
    pruneRemset();
  }

  PromotedObjectsTotal += Sp.promotedObjects();
  DeadYoungObjectsTotal +=
      YoungBefore - (Sp.promotedObjects() + Sp.survivorObjects());
  LiveYoungObjects = Sp.survivorObjects();
  AllocSnapshot = St.get(StatId::HeapObjectsAllocated);
  if (Sp.promotedWords())
    St.add(StatId::GcPromotedWords, Sp.promotedWords());

  St.add(StatId::GcCollections);
  St.add(StatId::GcMinorCollections);

  if (VerifyAfterGc)
    verifyPass(Roots);

  if (Prof && Prof->enabled()) {
    // A minor collection traces the young generation only: its snapshot
    // covers survivors + promotions, and the side-table entries of
    // untraced tenured objects carry over to the next collection.
    uint64_t Covered =
        (Sp.survivorWords() + Sp.promotedWords()) * sizeof(Word);
    Prof->finishCollection(Covered,
                           [this](Word W) { return Gen->inTenured(W); });
  }

  finishPause(Gen->nurseryUsedWords() + Gen->tenuredUsedWords());
}

void Collector::majorCollection(RootSet &Roots, size_t Need) {
  Tel.beginCollection(GcEventKind::Major);
  PhaseScope Outer(&Tel, GcPhase::RootScan);
  if (Prof)
    Prof->beginCollection(GcEventKind::Major,
                          [this](Word W) { return Gen->inTenured(W); });

  uint64_t YoungBefore =
      LiveYoungObjects + (St.get(StatId::HeapObjectsAllocated) - AllocSnapshot);
  size_t CapacityBefore = heapCapacityBytes();

  // Size the to-space from the live upper bound (everything currently
  // resident), with headroom for the pending request and enough tenured
  // free space that future minors can promote a full nursery.
  size_t LiveUpper = Gen->tenuredUsedWords() + Gen->nurseryUsedWords();
  size_t Cap = std::max(2 * LiveUpper,
                        LiveUpper + 2 * Gen->nurseryCapacityWords());
  Cap = std::max(Cap, LiveUpper + 2 * Need);

  {
    PhaseScope P(&Tel, GcPhase::CopySweep);
    Gen->beginMajor(Cap);
  }
  GenMajorSpace Sp(*Gen, Model == ValueModel::Tagged);
  traceRoots(Roots, Sp);
  {
    PhaseScope P(&Tel, GcPhase::CopySweep);
    Gen->endMajor();
  }

  // Everything young was either evacuated (now old) or died; the nursery
  // is empty and every remset entry is stale.
  Remset.clear();
  RemsetIndex.clear();
  RemsetImprecise = false;
  MinorsSincePromotion = 0;

  PromotedObjectsTotal += Sp.youngEvacuatedObjects();
  DeadYoungObjectsTotal += YoungBefore - Sp.youngEvacuatedObjects();
  LiveYoungObjects = 0;
  AllocSnapshot = St.get(StatId::HeapObjectsAllocated);
  if (Sp.youngEvacuatedWords())
    St.add(StatId::GcPromotedWords, Sp.youngEvacuatedWords());

  if (Gen->nurseryFreeWords() < Need)
    Gen->growNursery(2 * Need);
  if (heapCapacityBytes() > CapacityBefore)
    St.add(StatId::GcHeapGrowths);

  St.add(StatId::GcCollections);
  St.add(StatId::GcMajorCollections);

  if (VerifyAfterGc)
    verifyPass(Roots);

  if (Prof && Prof->enabled())
    Prof->finishCollection((uint64_t)Gen->usedBytes(), nullptr);

  finishPause(Gen->nurseryUsedWords() + Gen->tenuredUsedWords());
}

void Collector::epochSafepoint() {
  if (!Agg)
    return;
  // The mutators are stopped (this runs inside the collection pause), so
  // publishing derived stats and folding the shards is race-free. The
  // fold itself is allocation-free and runs at every pause; the derived
  // gauges (percentiles, phase/census breakdowns) build dynamic string
  // names, so mid-run they refresh at most every 10 ms — a /metrics
  // scrape sees counters from *this* pause and gauges at most one
  // scrape-interval stale. Run-end artifacts always get a full publish
  // (Vm::flushCounters), so final totals are exact.
  auto Now = std::chrono::steady_clock::now();
  if (LastDerivedPublish.time_since_epoch().count() == 0 ||
      Now - LastDerivedPublish >= std::chrono::milliseconds(10)) {
    publishTelemetryStats();
    LastDerivedPublish = Now;
  }
  Agg->fold(SafepointKind::Collection);
}

void Collector::publishTelemetryStats() {
  // Derived stats use dynamic string names (phase/census breakdowns are
  // data-dependent); every caller is at a safepoint, so legalize them.
  Stats::SafepointScope Scope(St);
  const LogHistogram &Pause = Tel.pauseHistogram();
  if (Pause.count()) {
    St.set(StatId::GcPauseNsP50, Pause.percentile(50));
    St.set(StatId::GcPauseNsP90, Pause.percentile(90));
    St.set(StatId::GcPauseNsP99, Pause.percentile(99));
  }
  for (size_t I = 0; I < NumGcPhases; ++I)
    if (uint64_t Total = Tel.phaseNsTotal((GcPhase)I))
      St.set(std::string("gc.phase_") + gcPhaseName((GcPhase)I) + "_ns",
             Total);
  for (size_t I = 0; I < NumCensusKinds; ++I) {
    CensusKind K = (CensusKind)I;
    if (uint64_t Objects = Tel.censusObjectsTotal(K)) {
      std::string Base = std::string("gc.census_") + censusKindName(K);
      St.set(Base + "_objects", Objects);
      St.set(Base + "_words", Tel.censusWordsTotal(K));
    }
  }
  for (GcEventKind K : {GcEventKind::Minor, GcEventKind::Major}) {
    const LogHistogram &H = Tel.pauseHistogram(K);
    if (!H.count())
      continue;
    std::string Base = std::string("gc.") + gcEventKindName(K);
    St.set(Base + "_pause_ns_p50", H.percentile(50));
    St.set(Base + "_pause_ns_p90", H.percentile(90));
    St.set(Base + "_pause_ns_p99", H.percentile(99));
  }
  if (Gen) {
    // Young-object census: allocated == promoted + dead + resident holds
    // at every flush point (resident = survivors at the last collection
    // plus allocations since).
    St.set("gc.promoted_objects", PromotedObjectsTotal);
    St.set("gc.young_dead_objects", DeadYoungObjectsTotal);
    St.set("gc.nursery_resident_objects",
           LiveYoungObjects +
               (St.get(StatId::HeapObjectsAllocated) - AllocSnapshot));
  }
  if (Prof && Prof->enabled()) {
    St.set("heap.profile_allocs", Prof->allocTotal());
    St.set("heap.profile_visit_objects", Prof->visitObjectsTotal());
    // Promotion attribution: per-site tenured words, summing (exactly) to
    // gc.promoted_words. Sites with no promotions publish nothing.
    const auto &Life = Prof->lifetimes();
    uint64_t Attributed = 0;
    for (size_t I = 0; I < Life.size(); ++I) {
      if (!Life[I].PromotedWords)
        continue;
      Attributed += Life[I].PromotedWords;
      St.set("site." + std::to_string(I) + ".promoted_words",
             Life[I].PromotedWords);
    }
    if (Attributed)
      St.set("heap.promoted_words_attributed", Attributed);
  }
  const LogHistogram &Stop = Tel.worldStopDelayHistogram();
  if (Stop.count()) {
    St.set("task.world_stop_delay_ns_p50", Stop.percentile(50));
    St.set("task.world_stop_delay_ns_p90", Stop.percentile(90));
    St.set("task.world_stop_delay_ns_p99", Stop.percentile(99));
  }
  if (Mon)
    Mon->publishStats(St);
}

size_t Collector::heapUsedBytes() const {
  return Copying ? Copying->usedBytes()
         : Ms    ? Ms->usedBytes()
                 : Gen->usedBytes();
}

size_t Collector::heapCapacityBytes() const {
  return Copying ? Copying->capacityBytes()
         : Ms    ? Ms->capacityBytes()
                 : Gen->capacityBytes();
}

uint64_t Collector::bytesAllocatedTotal() const {
  return Copying ? Copying->bytesAllocatedTotal()
         : Ms    ? Ms->bytesAllocatedTotal()
                 : Gen->bytesAllocatedTotal();
}
