//===- tests/generational_test.cpp - Generational collection --------------===//
///
/// The generational algorithm's soundness hinges on the write barrier and
/// the remembered set: a tenured object mutated to point at a nursery
/// object must keep that object alive across minor collections even
/// though tenured objects are never rescanned. These tests drive
/// mutation-heavy workloads across every strategy and algorithm, check
/// the remembered-set bookkeeping (dedup, pruning), the closure
/// cycle-patching path, the young-object census invariant, and the
/// minor/major telemetry split.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "workloads/Programs.h"

#include <gtest/gtest.h>

namespace {

using namespace tfgc;
using namespace tfgc::test;

/// Mutually recursive local closures: lowering emits SetClosureField to
/// patch the capture cycle after both closures are allocated. Allocation
/// churn keeps collections happening while the cycle is live.
const char *CycleProgram = R"(
fun build (n : int) : int list =
  if n = 0 then [] else n :: build (n - 1);

fun len (xs : int list) : int =
  case xs of [] => 0 | _ :: t => 1 + len t;

fun mk (k : int) : int -> int =
  let fun even (n : int) : int =
        if n = 0 then k + len (build 5) else odd (n - 1)
      and odd (n : int) : int = if n = 0 then 0 - k else even (n - 1)
  in even end;

val f = mk 100;
val g = mk 7;
f 10 + g 9 + len (build 200)
)";

/// Runs \p Source under Generational with after-GC graph verification on.
SessionRun runGenerationalVerified(const std::string &Source, GcStrategy S,
                                   size_t HeapBytes, size_t NurseryBytes,
                                   bool Stress) {
  CliOptions O =
      sessionOptions(S, GcAlgorithm::Generational, HeapBytes, NurseryBytes);
  O.Verify = true;
  O.Stress = Stress;
  return runSession(Source, O);
}

TEST(Generational, MutationWorkloadsAgreeAcrossStrategiesAndAlgorithms) {
  const std::string Workloads[] = {
      workloads::refCells(400),
      workloads::listChurn(60, 16),
      workloads::higherOrder(40),
  };
  for (const std::string &Src : Workloads) {
    std::string Expected;
    for (GcStrategy S : AllStrategies) {
      for (GcAlgorithm A : AllAlgorithms) {
        ExecResult R = execProgram(Src, S, A, 1 << 14, /*GcStress=*/true);
        ASSERT_TRUE(R.CompileOk) << R.CompileError;
        ASSERT_TRUE(R.Run.Ok) << R.Run.Error << " under "
                              << gcStrategyName(S) << "/"
                              << gcAlgorithmName(A);
        if (Expected.empty())
          Expected = R.Run.Value;
        else
          EXPECT_EQ(Expected, R.Run.Value)
              << gcStrategyName(S) << "/" << gcAlgorithmName(A);
      }
    }
  }
}

TEST(Generational, OldToYoungRefsSurviveMinorsUnderVerify) {
  // refCells mutates a long-lived ref cell (tenured after promotion) to
  // point at freshly consed nursery lists, and patches a ref cycle
  // through datatype nodes — the old→young edges only the remembered set
  // keeps alive. The verify pass retraces the full graph after every
  // collection and counts escaped references.
  for (GcStrategy S : AllStrategies) {
    SessionRun R = runGenerationalVerified(workloads::refCells(400), S,
                                           1 << 15, 1 << 12,
                                           /*Stress=*/true);
    ASSERT_TRUE(R);
    const Stats &St = R.stats();
    EXPECT_FALSE(R.R.Value.empty());
    EXPECT_GT(St.get(StatId::GcVerifyPasses), 0u);
    EXPECT_EQ(St.get(StatId::GcVerifyViolations), 0u)
        << "under " << gcStrategyName(S);
    EXPECT_GT(St.get(StatId::GcMinorCollections), 0u);
    EXPECT_GT(St.get(StatId::GcBarrierOps), 0u);
  }
}

TEST(Generational, ClosureCyclePatchSurvivesMinorCollections) {
  std::string Expected;
  for (GcStrategy S : AllStrategies) {
    SessionRun R = runGenerationalVerified(CycleProgram, S, 1 << 14, 1 << 11,
                                           /*Stress=*/true);
    ASSERT_TRUE(R);
    const Stats &St = R.stats();
    const std::string &V = R.R.Value;
    EXPECT_EQ(St.get(StatId::GcVerifyViolations), 0u);
    EXPECT_GT(St.get(StatId::GcMinorCollections), 0u);
    if (Expected.empty())
      Expected = V;
    else
      EXPECT_EQ(Expected, V) << "strategy " << gcStrategyName(S);
  }
  // The same program agrees with the non-generational algorithms.
  EXPECT_EQ(Expected, runValue(CycleProgram, GcStrategy::CompiledTagFree,
                               GcAlgorithm::Copying, 1 << 14, true));
}

TEST(Generational, RemsetDeduplicatesRepeatedStores) {
  // refCells stores into the same ref cell thousands of times between
  // collections; the sequential store buffer must record each tenured
  // slot once per collection cycle, not once per store.
  ExecResult R = execProgram(workloads::refCells(2000),
                             GcStrategy::CompiledTagFree,
                             GcAlgorithm::Generational, 1 << 16);
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  uint64_t Barriers = R.St.get(StatId::GcBarrierOps);
  uint64_t Entries = R.St.get(StatId::GcRemsetEntries);
  EXPECT_GT(Barriers, 1000u);
  EXPECT_GT(Entries, 0u);
  // Dedup: orders of magnitude fewer entries than barrier executions.
  EXPECT_LT(Entries * 10, Barriers);
}

TEST(Generational, CensusInvariantHolds) {
  // allocated == promoted + young-dead + nursery-resident, at any flush
  // point, for every strategy.
  const std::string Workloads[] = {
      workloads::refCells(1500),
      workloads::listChurn(100, 24),
  };
  for (const std::string &Src : Workloads) {
    for (GcStrategy S : AllStrategies) {
      ExecResult R =
          execProgram(Src, S, GcAlgorithm::Generational, 1 << 15);
      ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
      uint64_t Allocated = R.St.get(StatId::HeapObjectsAllocated);
      uint64_t Promoted = R.St.get("gc.promoted_objects");
      uint64_t Dead = R.St.get("gc.young_dead_objects");
      uint64_t Resident = R.St.get("gc.nursery_resident_objects");
      EXPECT_EQ(Allocated, Promoted + Dead + Resident)
          << gcStrategyName(S) << ": " << Promoted << " promoted + " << Dead
          << " dead + " << Resident << " resident";
    }
  }
}

TEST(Generational, MinorAndMajorCollectionsBothHappen) {
  // binary_trees keeps a live tree per depth while churning temporaries:
  // small nursery ⇒ many minors; promotions eventually fill tenured ⇒
  // majors. Stats and telemetry must agree on the per-kind counts.
  SessionRun R = runSession(
      workloads::binaryTrees(7, 6),
      sessionOptions(GcStrategy::CompiledTagFree, GcAlgorithm::Generational,
                     1 << 14, 1 << 10));
  ASSERT_TRUE(R);
  const Stats &St = R.stats();

  uint64_t Minors = St.get(StatId::GcMinorCollections);
  uint64_t Majors = St.get(StatId::GcMajorCollections);
  EXPECT_GT(Minors, 0u);
  EXPECT_GT(Majors, 0u);
  EXPECT_EQ(Minors + Majors, St.get(StatId::GcCollections));

  const Telemetry &Tel = R.S->collector().telemetry();
  EXPECT_EQ(Minors, Tel.collections(GcEventKind::Minor));
  EXPECT_EQ(Majors, Tel.collections(GcEventKind::Major));
  EXPECT_EQ(0u, Tel.collections(GcEventKind::Full));
  EXPECT_EQ(Minors, Tel.pauseHistogram(GcEventKind::Minor).count());
  EXPECT_EQ(Majors, Tel.pauseHistogram(GcEventKind::Major).count());
  EXPECT_GT(St.get(StatId::GcPromotedWords), 0u);
}

TEST(Generational, NurseryBytesOptionBoundsMinorWork) {
  // A larger nursery means fewer minor collections for the same
  // allocation volume.
  ExecResult Small =
      execProgram(workloads::listChurn(80, 20), GcStrategy::CompiledTagFree,
                  GcAlgorithm::Generational, 1 << 17, false, {}, 1 << 11);
  ExecResult Large =
      execProgram(workloads::listChurn(80, 20), GcStrategy::CompiledTagFree,
                  GcAlgorithm::Generational, 1 << 17, false, {}, 1 << 14);
  ASSERT_TRUE(Small.Run.Ok) << Small.Run.Error;
  ASSERT_TRUE(Large.Run.Ok) << Large.Run.Error;
  EXPECT_EQ(Small.Run.Value, Large.Run.Value);
  EXPECT_GT(Small.St.get(StatId::GcMinorCollections),
            Large.St.get(StatId::GcMinorCollections));
}

} // namespace
