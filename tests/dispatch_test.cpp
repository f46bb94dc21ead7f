//===- tests/dispatch_test.cpp - Mutator fast-path equivalence ------------===//
///
/// The fast path (vm/VmExec.inc) must be an *observation-preserving*
/// rebuild of the interpreter: switch and threaded dispatch execute the
/// same decoded stream, fusion rewrites only windows whose slot state at
/// every GC point is untouched, and float self-tagging changes the value
/// representation without changing program results. This suite pins:
///
///  * bit-identical deterministic counters (visits, census, remsets,
///    promotions, steps, ...) across switch/threaded under all four
///    strategies x three algorithms with --verify re-tracing;
///  * fused vs unfused sequential runs identical except the
///    superinstruction counter itself;
///  * float self-tag round-trips (bit-preserving) and the NaN/Inf/
///    denormal fallback to boxing;
///  * the fuel-counter safepoint poll: bounded yield latency with a
///    pending GC, guaranteed forward progress, and exec() budgets that
///    are smaller than one fused superinstruction;
///  * fusion-plan well-formedness on real lowered IR.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "ir/Fusion.h"
#include "support/Monitor.h"
#include "tasking/Tasking.h"
#include "workloads/Programs.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

/// One complete run under an explicit fast-path configuration.
struct ModeRun {
  bool CollectorOk = false;
  bool Ok = false;
  std::string Value;
  std::string Output;
  std::string Error;
  /// Deterministic counters only: wall-clock keys (*_ns*) are dropped,
  /// everything else must match bit-for-bit across dispatch modes.
  std::map<std::string, uint64_t> Counters;
};

ModeRun runMode(CompiledProgram &P, GcStrategy S, GcAlgorithm A,
                size_t HeapBytes, DispatchMode D, bool Fuse, bool SelfTag,
                bool Verify = true, bool TailCalls = true,
                bool Stress = false) {
  CliOptions O = sessionOptions(S, A, HeapBytes);
  O.Dispatch = D;
  O.Fuse = Fuse;
  O.FloatSelfTag = SelfTag;
  O.Verify = Verify;
  O.TailCalls = TailCalls;
  O.Stress = Stress;
  ModeRun R;
  Session Sn(P, O);
  R.CollectorOk = Sn.open() == 0;
  if (!R.CollectorOk)
    return R;
  RunResult Run = Sn.run();
  R.Ok = Run.Ok;
  R.Value = Run.Value;
  R.Output = Run.Output;
  R.Error = Run.Error;
  R.Counters = deterministicCounters(Sn.stats());
  return R;
}

void expectSameCounters(const ModeRun &A, const ModeRun &B,
                        const std::string &Label) {
  ASSERT_EQ(A.CollectorOk, B.CollectorOk) << Label;
  if (!A.CollectorOk)
    return;
  ASSERT_TRUE(A.Ok) << Label << ": " << A.Error;
  ASSERT_TRUE(B.Ok) << Label << ": " << B.Error;
  EXPECT_EQ(A.Value, B.Value) << Label;
  EXPECT_EQ(A.Output, B.Output) << Label;
  EXPECT_EQ(A.Counters.size(), B.Counters.size()) << Label;
  for (const auto &[Name, Value] : A.Counters) {
    auto It = B.Counters.find(Name);
    ASSERT_NE(It, B.Counters.end()) << Label << ": missing " << Name;
    EXPECT_EQ(Value, It->second) << Label << ": counter " << Name;
  }
}

TEST(Dispatch, AutoResolvesToCompiledInLoop) {
  auto C = compile("1 + 2");
  ASSERT_TRUE(C.P) << C.Error;
  Stats St;
  auto Col = C.P->makeCollector(GcStrategy::CompiledTagFree,
                                GcAlgorithm::Copying, 1 << 16, St);
  ASSERT_TRUE(Col);
  VmOptions VO;
  Vm Auto(C.P->Prog, C.P->Image, *C.P->Types, *Col, VO);
  EXPECT_EQ(Auto.dispatchMode(), Vm::threadedDispatchAvailable()
                                     ? DispatchMode::Threaded
                                     : DispatchMode::Switch);
  EXPECT_TRUE(Auto.run().Ok);
  // An explicit --dispatch=switch always takes the portable loop.
  VO.Dispatch = DispatchMode::Switch;
  Vm Sw(C.P->Prog, C.P->Image, *C.P->Types, *Col, VO);
  EXPECT_EQ(Sw.dispatchMode(), DispatchMode::Switch);
}

TEST(Dispatch, CountersBitIdenticalSwitchVsThreadedEverywhere) {
  if (!Vm::threadedDispatchAvailable())
    GTEST_SKIP() << "threaded dispatch not compiled in";
  // Garbage-heavy workload on a small heap: many collections, heap
  // growth, remset traffic under generational — every deterministic
  // counter must agree between the two loops, verified re-tracing on.
  auto C = compile(wl::listChurn(60, 8));
  ASSERT_TRUE(C.P) << C.Error;
  for (GcStrategy S : AllStrategies) {
    for (GcAlgorithm A : AllAlgorithms) {
      std::string Label = std::string(gcStrategyName(S)) + "/" +
                          gcAlgorithmName(A);
      ModeRun Sw = runMode(*C.P, S, A, 1 << 15, DispatchMode::Switch, true,
                           true);
      ModeRun Th = runMode(*C.P, S, A, 1 << 15, DispatchMode::Threaded, true,
                           true);
      expectSameCounters(Sw, Th, Label);
    }
  }
}

TEST(Dispatch, CountersBitIdenticalOnFloatWorkload) {
  if (!Vm::threadedDispatchAvailable())
    GTEST_SKIP() << "threaded dispatch not compiled in";
  auto C = compile(wl::floatKernel(24, 12));
  ASSERT_TRUE(C.P) << C.Error;
  for (GcStrategy S : AllStrategies) {
    for (bool SelfTag : {true, false}) {
      std::string Label = std::string(gcStrategyName(S)) +
                          (SelfTag ? "/selftag" : "/boxed");
      ModeRun Sw = runMode(*C.P, S, GcAlgorithm::Copying, 1 << 15,
                           DispatchMode::Switch, true, SelfTag);
      ModeRun Th = runMode(*C.P, S, GcAlgorithm::Copying, 1 << 15,
                           DispatchMode::Threaded, true, SelfTag);
      expectSameCounters(Sw, Th, Label);
    }
  }
}

TEST(Dispatch, FusionPreservesEverythingButTheSuperinstructionCounter) {
  // Sequential runs only: under tasking a fused window executes
  // atomically, which legally shifts time-slice boundaries. Sequentially
  // the fusion invariants (all dst slots written, no GC point inside a
  // window, constituent step accounting) make every other deterministic
  // counter — vm.steps included — bit-identical.
  struct Prog {
    const char *Name;
    std::string Src;
  } Progs[] = {
      {"arith", wl::arithKernel(4000)},
      {"churn", wl::listChurn(40, 6)},
      {"nqueens", wl::nqueens(5)},
      {"float", wl::floatKernel(16, 8)},
  };
  for (const Prog &Pr : Progs) {
    auto C = compile(Pr.Src);
    ASSERT_TRUE(C.P) << C.Error;
    for (GcStrategy S : {GcStrategy::Tagged, GcStrategy::CompiledTagFree}) {
      std::string Label = std::string(Pr.Name) + "/" + gcStrategyName(S);
      ModeRun Fused = runMode(*C.P, S, GcAlgorithm::Copying, 1 << 15,
                              DispatchMode::Auto, true, true);
      ModeRun Plain = runMode(*C.P, S, GcAlgorithm::Copying, 1 << 15,
                              DispatchMode::Auto, false, true);
      ASSERT_TRUE(Fused.Ok && Plain.Ok) << Label;
      EXPECT_EQ(Fused.Value, Plain.Value) << Label;
      // The only legal difference.
      EXPECT_EQ(Plain.Counters["vm.superinstructions_executed"], 0u) << Label;
      Fused.Counters.erase("vm.superinstructions_executed");
      Plain.Counters.erase("vm.superinstructions_executed");
      expectSameCounters(Fused, Plain, Label);
    }
  }
}

TEST(Dispatch, SuperinstructionsExecuteOnTheArithKernel) {
  auto C = compile(wl::arithKernel(2000));
  ASSERT_TRUE(C.P) << C.Error;
  ModeRun R = runMode(*C.P, GcStrategy::CompiledTagFree, GcAlgorithm::Copying,
                      1 << 16, DispatchMode::Auto, true, true);
  ASSERT_TRUE(R.Ok) << R.Error;
  // The kernel's loop body is constant-feed arithmetic + compare-branch:
  // the planner must find windows and the VM must execute them.
  EXPECT_GT(R.Counters["vm.superinstructions_executed"], 1000u);
}

TEST(Dispatch, MonitorSamplesIdenticalAcrossModes) {
  if (!Vm::threadedDispatchAvailable())
    GTEST_SKIP() << "threaded dispatch not compiled in";
  // The fuel counter owns sample arming in both loops, and fused
  // superinstructions attribute the sampled step to the constituent
  // opcode class — sample counts and the class profile must match
  // switch vs threaded vs fused exactly.
  auto C = compile(wl::arithKernel(3000));
  ASSERT_TRUE(C.P) << C.Error;
  struct Cfg {
    DispatchMode D;
    bool Fuse;
  } Cfgs[] = {{DispatchMode::Switch, true},
              {DispatchMode::Threaded, true},
              {DispatchMode::Threaded, false}};
  uint64_t Samples[3];
  uint64_t ByClass[3][NumOpClasses];
  for (int I = 0; I < 3; ++I) {
    CliOptions O = sessionOptions(GcStrategy::CompiledTagFree,
                                  GcAlgorithm::Copying, 1 << 16);
    O.Monitor = true;
    O.MonitorSampleSteps = 64;
    O.Dispatch = Cfgs[I].D;
    O.Fuse = Cfgs[I].Fuse;
    Session Sn(*C.P, O);
    ASSERT_EQ(Sn.open(), 0);
    ASSERT_TRUE(Sn.run().Ok);
    const Monitor &Mon = Sn.monitor();
    EXPECT_EQ(Mon.samples(), Sn.stats().get(StatId::VmSteps) / 64)
        << "config " << I;
    Samples[I] = Mon.samples();
    for (size_t K = 0; K < NumOpClasses; ++K)
      ByClass[I][K] = Mon.opClassSamples((OpClass)K);
  }
  for (int I = 1; I < 3; ++I) {
    EXPECT_EQ(Samples[I], Samples[0]) << "config " << I;
    for (size_t K = 0; K < NumOpClasses; ++K)
      EXPECT_EQ(ByClass[I][K], ByClass[0][K])
          << "config " << I << " class " << opClassName((OpClass)K);
  }
}

// -- Float self-tagging ---------------------------------------------------

TEST(FloatSelfTag, RoundTripIsBitPreserving) {
  const double InRange[] = {1.0,     -1.0,       3.141592653589793,
                            1e-50,   -1e-50,     1e50,
                            -1e50,   0.5,        -0.5,
                            65536.0, 1.0 / 3.0,  -123456.789};
  for (double D : InRange) {
    Word W = 0;
    ASSERT_TRUE(trySelfTagFloat(D, W)) << D;
    EXPECT_TRUE(isSelfTagFloat(W)) << D;
    // Disjoint from both tagged-pointer and tagged-immediate patterns:
    // the collectors classify self-tagged floats as non-pointers with
    // their existing tests.
    EXPECT_FALSE(isTaggedPointer(W)) << D;
    EXPECT_FALSE(isTaggedImmediate(W)) << D;
    EXPECT_EQ(floatToWord(selfTagToFloat(W)), floatToWord(D)) << D;
  }
}

TEST(FloatSelfTag, SignedZerosUseReservedWords) {
  Word W = 0;
  ASSERT_TRUE(trySelfTagFloat(0.0, W));
  EXPECT_EQ(W, FloatPosZeroWord);
  ASSERT_TRUE(trySelfTagFloat(-0.0, W));
  EXPECT_EQ(W, FloatNegZeroWord);
  EXPECT_EQ(floatToWord(selfTagToFloat(FloatPosZeroWord)), floatToWord(0.0));
  EXPECT_EQ(floatToWord(selfTagToFloat(FloatNegZeroWord)), floatToWord(-0.0));
  EXPECT_FALSE(isTaggedPointer(FloatPosZeroWord));
  EXPECT_FALSE(isTaggedPointer(FloatNegZeroWord));
}

TEST(FloatSelfTag, OutOfRangeValuesRefuseToSelfTag) {
  const double Boxed[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      5e-324,  // smallest denormal, spelled out
      1e300,   // exponent above 2^257
      -1e300,
      1e-100,  // below 2^-255
  };
  for (double D : Boxed) {
    Word W = 0;
    EXPECT_FALSE(trySelfTagFloat(D, W)) << D;
  }
}

TEST(FloatSelfTag, ExhaustiveRandomPatternsRoundTrip) {
  // Deterministic 64-bit LCG over raw bit patterns: whatever
  // trySelfTagFloat accepts must round-trip to the identical bits, and
  // must never look like a pointer or an immediate.
  uint64_t X = 0x9e3779b97f4a7c15ull;
  int Accepted = 0;
  for (int I = 0; I < 200000; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    double D = wordToFloat(X);
    Word W = 0;
    if (!trySelfTagFloat(D, W))
      continue;
    ++Accepted;
    ASSERT_TRUE(isSelfTagFloat(W));
    ASSERT_FALSE(isTaggedPointer(W));
    ASSERT_FALSE(isTaggedImmediate(W));
    ASSERT_EQ(floatToWord(selfTagToFloat(W)), X);
  }
  // The biased-exponent window admits 512 of the 2048 exponent values —
  // a quarter of uniform bit patterns (but virtually all doubles real
  // programs compute, |x| in [2^-255, 2^257)).
  EXPECT_GT(Accepted, 40000);
}

TEST(FloatSelfTag, NanAndInfFallBackToBoxesAtRuntime) {
  // 0.0 /. 0.0 is NaN and 1.0 /. 0.0 is +inf — both out of self-tag
  // range, so even with self-tagging on they hit the float box path and
  // count in vm.float_boxes. Program results agree with the boxed run.
  const std::string Src = R"(
let val z = 0.0 in
  let val n = z /. z in
    let val i = 1.0 /. z in
      (if n =. n then 100 else 0) + (if i <. 2.0 then 10 else 0) + 1
    end
  end
end
)";
  auto C = compile(Src);
  ASSERT_TRUE(C.P) << C.Error;
  ModeRun Self = runMode(*C.P, GcStrategy::Tagged, GcAlgorithm::Copying,
                         1 << 16, DispatchMode::Auto, true, true);
  ModeRun Box = runMode(*C.P, GcStrategy::Tagged, GcAlgorithm::Copying,
                        1 << 16, DispatchMode::Auto, true, false);
  ASSERT_TRUE(Self.Ok) << Self.Error;
  ASSERT_TRUE(Box.Ok) << Box.Error;
  // NaN =. NaN is false, inf <. 2.0 is false.
  EXPECT_EQ(Self.Value, "1");
  EXPECT_EQ(Self.Value, Box.Value);
  EXPECT_GT(Self.Counters["vm.float_boxes"], 0u);
  EXPECT_GT(Box.Counters["vm.float_boxes"],
            Self.Counters["vm.float_boxes"]);
}

TEST(FloatSelfTag, PureFloatKernelAllocatesNoBoxes) {
  // The E13 acceptance bar: the allocation-free float kernel runs with
  // vm.float_boxes = 0 under the tagged model once floats self-tag.
  auto C = compile(wl::floatMath(5000));
  ASSERT_TRUE(C.P) << C.Error;
  ModeRun Self = runMode(*C.P, GcStrategy::Tagged, GcAlgorithm::Copying,
                         1 << 16, DispatchMode::Auto, true, true);
  ASSERT_TRUE(Self.Ok) << Self.Error;
  EXPECT_EQ(Self.Counters["vm.float_boxes"], 0u);
  ModeRun Box = runMode(*C.P, GcStrategy::Tagged, GcAlgorithm::Copying,
                        1 << 16, DispatchMode::Auto, true, false);
  ASSERT_TRUE(Box.Ok) << Box.Error;
  EXPECT_GT(Box.Counters["vm.float_boxes"], 4000u);
  EXPECT_EQ(Self.Value, Box.Value);
}

// -- Safepoint poll -------------------------------------------------------

struct FakeCoord : GcCoordinator {
  void setPending(bool On) { StopFlag.store(On, std::memory_order_relaxed); }
  void requestGc(size_t) override { setPending(true); }
};

TEST(SafepointPoll, PendingGcYieldsWithinPollPeriod) {
  // With a pending collection, the fuel counter's poll must end the
  // exec() slice within SafepointPollSteps (plus a superinstruction of
  // overshoot), while still guaranteeing forward progress — the old
  // behavior was a check per step; the new one is one poll per 64 steps
  // folded into the same fuel compare.
  auto C = compile(wl::arithKernel(100000));
  ASSERT_TRUE(C.P) << C.Error;
  Stats St;
  std::string Err;
  auto Col = C.P->makeCollector(GcStrategy::CompiledTagFree,
                                GcAlgorithm::Copying, 1 << 20, St, &Err);
  ASSERT_TRUE(Col) << Err;
  FakeCoord Coord;
  VmOptions VO = defaultVmOptions(GcStrategy::CompiledTagFree, false);
  VO.Coord = &Coord;
  VO.Checks = SuspendChecks::AtAllocation;
  Vm M(C.P->Prog, C.P->Image, *C.P->Types, *Col, VO);

  Coord.setPending(true);
  for (int Slice = 0; Slice < 5; ++Slice) {
    uint64_t Before = M.steps();
    StepResult R = M.exec(1'000'000);
    ASSERT_EQ(R, StepResult::Ran) << "slice " << Slice;
    uint64_t Delta = M.steps() - Before;
    EXPECT_GT(Delta, 0u) << "slice " << Slice;
    EXPECT_LE(Delta, Vm::SafepointPollSteps + 4) << "slice " << Slice;
  }
  // Clearing the request lets the program run to completion.
  Coord.setPending(false);
  StepResult R = StepResult::Ran;
  while (R == StepResult::Ran)
    R = M.exec(1'000'000);
  EXPECT_EQ(R, StepResult::Done);
}

TEST(SafepointPoll, TinyBudgetsStillMakeProgress) {
  // exec(1) on a stream containing 2-3 step superinstructions: the
  // budget yield must still commit at least one instruction per slice
  // or the scheduler would livelock.
  auto C = compile(wl::arithKernel(200));
  ASSERT_TRUE(C.P) << C.Error;
  Stats St;
  std::string Err;
  auto Col = C.P->makeCollector(GcStrategy::CompiledTagFree,
                                GcAlgorithm::Copying, 1 << 20, St, &Err);
  ASSERT_TRUE(Col) << Err;
  VmOptions VO = defaultVmOptions(GcStrategy::CompiledTagFree, false);
  Vm M(C.P->Prog, C.P->Image, *C.P->Types, *Col, VO);
  StepResult R = StepResult::Ran;
  uint64_t Slices = 0;
  while (R == StepResult::Ran) {
    uint64_t Before = M.steps();
    R = M.exec(1);
    if (R == StepResult::Ran) {
      ASSERT_GT(M.steps(), Before) << "no progress in slice " << Slices;
    }
    ASSERT_LT(++Slices, 100000u) << "livelock";
  }
  EXPECT_EQ(R, StepResult::Done);
}

TEST(SafepointPoll, TaskingCountersIdenticalSwitchVsThreaded) {
  if (!Vm::threadedDispatchAvailable())
    GTEST_SKIP() << "threaded dispatch not compiled in";
  // Same decoded stream, same slice budgets, same poll points: the
  // whole tasking run — world stops, stop-delay step counts, per-task
  // steps — must agree between the loops. (Fusion stays ON in both: a
  // fused window is atomic w.r.t. slices in both loops; only the
  // fused-vs-unfused comparison is excluded under tasking.)
  auto RunTasking = [&](DispatchMode D) {
    CliOptions O = sessionOptions(GcStrategy::CompiledTagFree,
                                  GcAlgorithm::Copying, 1 << 12);
    O.Threads = 1;
    O.Dispatch = D;
    SessionRun Run = openSession(wl::taskWorkerAndSpinner(), O);
    CompiledProgram &P = *Run.P;
    TaskingRuntime Rt(P.Prog, P.Image, *P.Types, Run.S->collector(),
                      Run.S->taskingOptions());
    FuncId Worker = findFunction(P.Prog, "worker");
    FuncId Spinner = findFunction(P.Prog, "spinner");
    Rt.spawnInt(Worker, {1, 40});
    Rt.spawnInt(Spinner, {40, 2000});
    EXPECT_TRUE(Rt.runAll());
    std::vector<std::string> Values;
    for (const TaskResult &R : Rt.results())
      Values.push_back(R.Value);
    return std::make_pair(Values, deterministicCounters(Run.stats()));
  };
  auto Sw = RunTasking(DispatchMode::Switch);
  auto Th = RunTasking(DispatchMode::Threaded);
  EXPECT_EQ(Sw.first, Th.first);
  EXPECT_EQ(Sw.second, Th.second);
}

// -- Fusion planning ------------------------------------------------------

TEST(Fusion, PlansAreWellFormedOnRealIr) {
  // On every function of a mixed workload: windows in ascending order,
  // non-overlapping, length 2-3, free of GC points (alloc/call sites)
  // and of internal jump targets.
  auto C = compile(wl::nqueens(5) /* call+branch heavy */);
  ASSERT_TRUE(C.P) << C.Error;
  size_t TotalWindows = 0;
  for (const IrFunction &F : C.P->Prog.Functions) {
    std::vector<FusedSeq> Plan = planFusion(F);
    uint32_t PrevEnd = 0;
    std::vector<bool> IsTarget(F.Code.size() + 1, false);
    for (uint32_t T : F.LabelTargets)
      if (T <= F.Code.size())
        IsTarget[T] = true;
    for (const FusedSeq &W : Plan) {
      ++TotalWindows;
      ASSERT_GE(W.Len, 2u);
      ASSERT_LE(W.Len, 3u);
      ASSERT_GE(W.Start, PrevEnd) << F.Name;
      ASSERT_LE(W.Start + W.Len, F.Code.size()) << F.Name;
      for (uint32_t I = W.Start; I < W.Start + (uint32_t)W.Len; ++I) {
        const Instr &In = F.Code[I];
        EXPECT_FALSE(In.isGcPoint())
            << F.Name << " window at " << W.Start << " contains a GC point";
        EXPECT_NE(In.Op, Opcode::Call) << F.Name;
        EXPECT_NE(In.Op, Opcode::CallIndirect) << F.Name;
        if (I > W.Start) {
          EXPECT_FALSE(IsTarget[I])
              << F.Name << " jump target inside window at " << W.Start;
        }
      }
      PrevEnd = W.Start + W.Len;
    }
  }
  EXPECT_GT(TotalWindows, 0u);
}

TEST(Fusion, DivByZeroConstantNeverFuses) {
  // `x mod 0` with a constant 0 must raise the runtime error on the Prim
  // step with the LoadInt already committed — the planner refuses the
  // window so the fused and unfused failure states are identical.
  const std::string Src = "fun f (x : int) : int = x mod 0; f 7";
  auto C = compile(Src);
  ASSERT_TRUE(C.P) << C.Error;
  ModeRun Fused = runMode(*C.P, GcStrategy::CompiledTagFree,
                          GcAlgorithm::Copying, 1 << 16, DispatchMode::Auto,
                          true, true, false);
  ModeRun Plain = runMode(*C.P, GcStrategy::CompiledTagFree,
                          GcAlgorithm::Copying, 1 << 16, DispatchMode::Auto,
                          false, true, false);
  ASSERT_TRUE(Fused.CollectorOk && Plain.CollectorOk);
  EXPECT_FALSE(Fused.Ok);
  EXPECT_FALSE(Plain.Ok);
  EXPECT_EQ(Fused.Error, Plain.Error);
  EXPECT_EQ(Fused.Counters["vm.steps"], Plain.Counters["vm.steps"]);
}

// ---- Self-tail-call elimination ----------------------------------------

TEST(TailCall, SelfRecursionRunsInConstantFrameSpace) {
  // 50k-deep self recursion: with frame reuse the stack never grows, and
  // every recursive transfer is counted in vm.tail_calls. The result must
  // match the frame-per-activation run exactly.
  auto C = compile(workloads::arithKernel(50000));
  ASSERT_TRUE(C.P) << C.Error;
  ModeRun Tc = runMode(*C.P, GcStrategy::CompiledTagFree, GcAlgorithm::Copying,
                       1 << 16, DispatchMode::Auto, true, true);
  ModeRun NoTc =
      runMode(*C.P, GcStrategy::CompiledTagFree, GcAlgorithm::Copying, 1 << 16,
              DispatchMode::Auto, true, true, true, /*TailCalls=*/false);
  ASSERT_TRUE(Tc.Ok) << Tc.Error;
  ASSERT_TRUE(NoTc.Ok) << NoTc.Error;
  EXPECT_EQ(Tc.Value, NoTc.Value);
  EXPECT_EQ(Tc.Counters["vm.tail_calls"], 50000u);
  EXPECT_LE(Tc.Counters["vm.max_frames"], 3u);
  EXPECT_EQ(NoTc.Counters["vm.tail_calls"], 0u);
  EXPECT_GE(NoTc.Counters["vm.max_frames"], 50000u);
}

TEST(TailCall, NonTailRecursionStillPushesFrames) {
  // `n + s (n-1)` uses the result after the call, so the activation is
  // live across it — the decoder must not elide these frames.
  const std::string Src =
      "fun s (n : int) : int = if n = 0 then 0 else n + s (n - 1); s 500";
  auto C = compile(Src);
  ASSERT_TRUE(C.P) << C.Error;
  ModeRun R = runMode(*C.P, GcStrategy::CompiledTagFree, GcAlgorithm::Copying,
                      1 << 16, DispatchMode::Auto, true, true);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value, "125250");
  EXPECT_EQ(R.Counters["vm.tail_calls"], 0u);
  EXPECT_GE(R.Counters["vm.max_frames"], 500u);
}

TEST(TailCall, MutualRecursionIsNotElided) {
  // Only *self* tail calls may reuse the frame (an f->g transfer could
  // change the instantiation Appel's chain reconstruction depends on).
  const std::string Src = "fun isEven (n : int) : bool =\n"
                          "  if n = 0 then true else isOdd (n - 1)\n"
                          "and isOdd (n : int) : bool =\n"
                          "  if n = 0 then false else isEven (n - 1);\n"
                          "isEven 1000";
  auto C = compile(Src);
  if (!C.P)
    GTEST_SKIP() << "mutual recursion not supported by this frontend: "
                 << C.Error;
  ModeRun R = runMode(*C.P, GcStrategy::CompiledTagFree, GcAlgorithm::Copying,
                      1 << 16, DispatchMode::Auto, true, true);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Counters["vm.tail_calls"], 0u);
}

TEST(TailCall, PolymorphicSelfTailCallSurvivesGcEverywhere) {
  // A polymorphic self-tail-recursive builder that allocates on every
  // iteration: under stress every cons collects with only the reused
  // frame live, so all four strategies (Appel chain reconstruction
  // included) must trace the poly slot through the elided activations.
  const std::string Src =
      "fun repl (n : int) (x : 'a) (acc : 'a list) : 'a list =\n"
      "  if n = 0 then acc else repl (n - 1) x (x :: acc);\n"
      "fun count (l : float list) (acc : int) : int =\n"
      "  case l of [] => acc | x :: xs => count xs (acc + 1);\n"
      "count (repl 200 2.5 []) 0";
  auto C = compile(Src);
  ASSERT_TRUE(C.P) << C.Error;
  for (GcStrategy S : AllStrategies) {
    ModeRun R = runMode(*C.P, S, GcAlgorithm::Copying, 1 << 15,
                        DispatchMode::Auto, true, true, /*Verify=*/true,
                        /*TailCalls=*/true, /*Stress=*/true);
    ASSERT_TRUE(R.CollectorOk) << gcStrategyName(S) << ": " << R.Error;
    ASSERT_TRUE(R.Ok) << gcStrategyName(S) << ": " << R.Error;
    EXPECT_EQ(R.Value, "200") << gcStrategyName(S);
    EXPECT_GE(R.Counters["vm.tail_calls"], 200u) << gcStrategyName(S);
    EXPECT_GT(R.Counters["gc.collections"], 0u) << gcStrategyName(S);
    EXPECT_EQ(R.Counters["gc.verify_violations"], 0u) << gcStrategyName(S);
  }
}

TEST(TailCall, CountersBitIdenticalAcrossDispatchModesWithTailCalls) {
  // The tail-call transfer is part of the shared handler body, so the
  // dispatch engines must agree step-for-step on a tail-heavy workload.
  if (!Vm::threadedDispatchAvailable())
    GTEST_SKIP() << "threaded dispatch not compiled in";
  auto C = compile(workloads::arithKernel(20000));
  ASSERT_TRUE(C.P) << C.Error;
  ModeRun Sw = runMode(*C.P, GcStrategy::Tagged, GcAlgorithm::Copying, 1 << 15,
                       DispatchMode::Switch, true, true);
  ModeRun Th = runMode(*C.P, GcStrategy::Tagged, GcAlgorithm::Copying, 1 << 15,
                       DispatchMode::Threaded, true, true);
  expectSameCounters(Sw, Th, "tail-call tagged");
  EXPECT_GT(Sw.Counters["vm.tail_calls"], 0u);
}

} // namespace
