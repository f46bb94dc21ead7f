//===- tests/vm_test.cpp - Language semantics under every strategy -------===//

#include "TestUtil.h"

using namespace tfgc;
using namespace tfgc::test;

namespace {

std::string listChurnSmall() {
  return "fun build (n : int) : int list = if n = 0 then [] "
         "else n :: build (n - 1);\n"
         "fun sum (xs : int list) : int = case xs of Nil => 0 "
         "| Cons(x, r) => x + sum r;\n"
         "sum (build 100)";
}

/// Semantics must be identical under every (strategy, algorithm) pair.
class VmSemantics
    : public ::testing::TestWithParam<std::tuple<GcStrategy, GcAlgorithm>> {
protected:
  std::string eval(const std::string &Source, bool Stress = false,
                   size_t HeapBytes = 1 << 16) {
    auto [S, A] = GetParam();
    ExecResult R = execProgram(Source, S, A, HeapBytes, Stress);
    EXPECT_TRUE(R.CompileOk) << R.CompileError;
    EXPECT_TRUE(R.Run.Ok) << R.Run.Error;
    return R.Run.Value;
  }
  std::string evalError(const std::string &Source) {
    auto [S, A] = GetParam();
    ExecResult R = execProgram(Source, S, A, 1 << 16, false);
    EXPECT_TRUE(R.CompileOk) << R.CompileError;
    EXPECT_FALSE(R.Run.Ok);
    return R.Run.Error;
  }
};

TEST_P(VmSemantics, IntegerArithmetic) {
  EXPECT_EQ(eval("2 + 3 * 4"), "14");
  EXPECT_EQ(eval("(2 + 3) * 4"), "20");
  EXPECT_EQ(eval("7 / 2"), "3");
  EXPECT_EQ(eval("7 mod 3"), "1");
  EXPECT_EQ(eval("~5 + 2"), "-3");
  EXPECT_EQ(eval("1000000007 * 3"), "3000000021");
}

TEST_P(VmSemantics, Comparisons) {
  EXPECT_EQ(eval("(1 < 2, 2 <= 2, 3 > 4, 4 >= 5, 1 = 1, 1 <> 1)"),
            "(true, true, false, false, true, false)");
  EXPECT_EQ(eval("~3 < 2"), "true");
}

TEST_P(VmSemantics, Booleans) {
  EXPECT_EQ(eval("not true"), "false");
  EXPECT_EQ(eval("true andalso false"), "false");
  EXPECT_EQ(eval("false orelse true"), "true");
  // Short-circuit: the second operand must not run.
  EXPECT_EQ(eval("false andalso (1 / 0 = 0)"), "false");
  EXPECT_EQ(eval("true orelse (1 / 0 = 0)"), "true");
}

TEST_P(VmSemantics, Floats) {
  EXPECT_EQ(eval("1.5 +. 2.25"), "3.75");
  EXPECT_EQ(eval("10.0 /. 4.0"), "2.5");
  EXPECT_EQ(eval("(1.0 <. 2.0, 2.0 =. 2.0)"), "(true, true)");
  EXPECT_EQ(eval("real 7 +. 0.5"), "7.5");
  EXPECT_EQ(eval("~2.5 +. 1.0"), "-1.5");
}

TEST_P(VmSemantics, TuplesAndLists) {
  EXPECT_EQ(eval("(1, (2, 3))"), "(1, (2, 3))");
  EXPECT_EQ(eval("[1, 2, 3]"), "[1, 2, 3]");
  EXPECT_EQ(eval("1 :: 2 :: []"), "[1, 2]");
  EXPECT_EQ(eval("[[1], [], [2, 3]]"), "[[1], [], [2, 3]]");
}

TEST_P(VmSemantics, CaseMatching) {
  EXPECT_EQ(eval("case [5, 6] of Nil => 0 | Cons(x, _) => x"), "5");
  EXPECT_EQ(eval("case ([] : int list) of Nil => 7 | Cons(x, _) => x"), "7");
  EXPECT_EQ(eval("case (1, true) of (x, true) => x | (_, false) => 0"), "1");
  EXPECT_EQ(eval("case 3 of 1 => 10 | 3 => 30 | _ => 99"), "30");
  EXPECT_EQ(eval("case [1,2,3] of x :: y :: _ => x + y | _ => 0"), "3");
}

TEST_P(VmSemantics, Datatypes) {
  std::string D = "datatype shape = Point | Circle of float "
                  "| Rect of float * float;\n";
  EXPECT_EQ(eval(D + "case Rect(2.0, 3.0) of Point => 0.0 "
                     "| Circle r => r | Rect(w, h) => w *. h"),
            "6");
  EXPECT_EQ(eval(D + "Circle 1.5"), "Circle(1.5)");
  EXPECT_EQ(eval(D + "Point"), "Point");
}

TEST_P(VmSemantics, Recursion) {
  EXPECT_EQ(eval("fun fact (n : int) : int = "
                 "if n = 0 then 1 else n * fact (n - 1); fact 10"),
            "3628800");
  EXPECT_EQ(eval("fun fib (n : int) : int = if n < 2 then n "
                 "else fib (n - 1) + fib (n - 2); fib 15"),
            "610");
}

TEST_P(VmSemantics, MutualRecursion) {
  EXPECT_EQ(eval("fun even (n : int) : bool = if n = 0 then true "
                 "else odd (n - 1) "
                 "and odd (n : int) : bool = if n = 0 then false "
                 "else even (n - 1); (even 10, odd 10)"),
            "(true, false)");
}

TEST_P(VmSemantics, LocalFunctionsCapture) {
  EXPECT_EQ(eval("let val base = 100 "
                 "fun add (x : int) : int = x + base "
                 "in add 5 end"),
            "105");
}

TEST_P(VmSemantics, LocalRecursiveClosure) {
  EXPECT_EQ(eval("let val step = 2 "
                 "fun upto (i : int) : int list = "
                 "if i > 10 then [] else i :: upto (i + step) "
                 "in upto 0 end"),
            "[0, 2, 4, 6, 8, 10]");
}

TEST_P(VmSemantics, LocalMutualClosures) {
  EXPECT_EQ(eval("let val limit = 6 "
                 "fun ev (n : int) : bool = if n >= limit then true "
                 "else od (n + 1) "
                 "and od (n : int) : bool = if n >= limit then false "
                 "else ev (n + 1) "
                 "in (ev 0, od 0) end"),
            "(true, false)");
}

TEST_P(VmSemantics, Lambdas) {
  EXPECT_EQ(eval("(fn x => x * 3) 7"), "21");
  EXPECT_EQ(eval("let val k = 10 in (fn x => x + k) 5 end"), "15");
  EXPECT_EQ(eval("(fn (a, b) => a - b) (10, 4)"), "6");
}

TEST_P(VmSemantics, FunctionsAsValues) {
  EXPECT_EQ(eval("fun double (x : int) : int = x * 2;\n"
                 "fun apply (f : int -> int) (x : int) : int = f x;\n"
                 "apply double 21"),
            "42");
}

TEST_P(VmSemantics, Refs) {
  EXPECT_EQ(eval("let val r = ref 1 in (r := 41; !r + 1) end"), "42");
  EXPECT_EQ(eval("let val r = ref [1] in (r := 2 :: !r; !r) end"), "[2, 1]");
}

TEST_P(VmSemantics, Print) {
  auto [S, A] = GetParam();
  ExecResult R = execProgram("(print 1; print 22; 0)", S, A);
  ASSERT_TRUE(R.Run.Ok);
  EXPECT_EQ(R.Run.Output, "1\n22\n");
}

TEST_P(VmSemantics, Sequencing) {
  EXPECT_EQ(eval("let val r = ref 0 in (r := 1; r := !r + 5; !r) end"), "6");
}

TEST_P(VmSemantics, DivisionByZero) {
  EXPECT_EQ(evalError("1 / 0"), "division by zero");
  EXPECT_EQ(evalError("1 mod 0"), "division by zero");
}

TEST_P(VmSemantics, MatchFailure) {
  EXPECT_EQ(evalError("case [1] of Nil => 0"), "pattern match failure");
}

TEST_P(VmSemantics, GcStressEquivalence) {
  // Collecting at every allocation must not change results.
  std::string Src = listChurnSmall();
  EXPECT_EQ(eval(Src, false), eval(Src, true, 1 << 12));
}

TEST_P(VmSemantics, SurvivesManyCollections) {
  auto [S, A] = GetParam();
  ExecResult R = execProgram(
      "fun build (n : int) : int list = if n = 0 then [] "
      "else n :: build (n - 1);\n"
      "fun sum (xs : int list) : int = case xs of Nil => 0 "
      "| Cons(x, r) => x + sum r;\n"
      "fun lp (i : int) (acc : int) : int = if i = 0 then acc "
      "else lp (i - 1) (acc + sum (build 64));\n"
      "lp 200 0",
      S, A, 4096, false);
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  EXPECT_EQ(R.Run.Value, std::to_string(200 * (64 * 65 / 2)));
  EXPECT_GT(R.St.get("gc.collections"), 0u);
}

TEST_P(VmSemantics, RefCycleSurvivesCollection) {
  std::string Src =
      "datatype node = End | Link of int * node ref;\n"
      "fun build (n : int) : int list = if n = 0 then [] "
      "else n :: build (n - 1);\n"
      "val a = ref End;\n"
      "val n1 = Link(1, a);\n"
      "val b = ref n1;\n"
      "val n2 = Link(2, b);\n"
      "val mk = a := n2;\n"
      "fun chase (n : node) (fuel : int) : int = case n of End => 0 "
      "| Link(v, r) => if fuel = 0 then v else v + chase (!r) (fuel - 1);\n"
      "let val junk = build 200 in chase n1 5 end";
  EXPECT_EQ(eval(Src, true, 1 << 12), "9"); // 1+2+1+2+1+2
}

TEST(HeapDeathTest, ReadingPastTheNewestInlineAllocationReports) {
  // The VM's inline allocation unpoisons exactly the words it hands out,
  // so the word after the newest object stays poisoned, in the copying
  // heap and in the nursery alike, and inside an OS-thread VM's TLAB
  // window, whose refilled chunk stays poisoned until objects take it.
  if (!PoisonsFreeWords)
    GTEST_SKIP() << "free words are poisoned only under AddressSanitizer";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Compiled C = compile("fun pair (n : int) : int * int = (n, n + 1);\n"
                       "pair 41");
  ASSERT_TRUE(C.P) << C.Error;
  const std::pair<GcStrategy, GcAlgorithm> Configs[] = {
      {GcStrategy::CompiledTagFree, GcAlgorithm::Copying},
      {GcStrategy::CompiledTagFree, GcAlgorithm::Generational},
      {GcStrategy::Tagged, GcAlgorithm::Copying},
  };
  for (auto [S, A] : Configs) {
    SCOPED_TRACE(std::string(gcStrategyName(S)) + "/" + gcAlgorithmName(A));
    Stats St;
    auto Col = C.P->makeCollector(S, A, 1 << 16, St);
    ASSERT_TRUE(Col);
    Vm M(C.P->Prog, C.P->Image, *C.P->Types, *Col, defaultVmOptions(S));
    RunResult R = M.run();
    ASSERT_TRUE(R.Ok) << R.Error;
    // No collection ran, so every object came from the inline path.
    ASSERT_EQ(St.get(StatId::GcCollections), 0u);
    volatile Word *Pair = reinterpret_cast<Word *>(M.returnValue());
    EXPECT_EQ(Pair[1], S == GcStrategy::Tagged ? tagInt(42) : Word(42));
    EXPECT_DEATH((void)Pair[2], "use-after-poison");
  }

  // The OS-thread VM: same program, allocating through a TLAB.
  struct NoStops : GcCoordinator {
    void requestGc(size_t) override { ADD_FAILURE() << "heap exhausted"; }
  };
  for (auto [S, A] : Configs) {
    SCOPED_TRACE(std::string("TLAB, ") + gcStrategyName(S) + "/" +
                 gcAlgorithmName(A));
    Stats St;
    auto Col = C.P->makeCollector(S, A, 1 << 16, St);
    ASSERT_TRUE(Col);
    Col->setParallelMutators(true);
    NoStops Coord;
    Tlab T;
    VmOptions VO = defaultVmOptions(S);
    VO.Checks = SuspendChecks::AtAllocation;
    VO.Coord = &Coord;
    VO.ThreadTlab = &T;
    Vm M(C.P->Prog, C.P->Image, *C.P->Types, *Col, VO);
    StepResult R;
    while ((R = M.exec(UINT64_MAX)) == StepResult::Ran) {
    }
    ASSERT_EQ(R, StepResult::Done) << M.error();
    ASSERT_GT(T.Refills, 0u);
    volatile Word *Pair = reinterpret_cast<Word *>(M.returnValue());
    EXPECT_EQ(Pair[1], S == GcStrategy::Tagged ? tagInt(42) : Word(42));
    EXPECT_DEATH((void)Pair[2], "use-after-poison");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, VmSemantics,
    ::testing::Combine(::testing::ValuesIn(test::AllStrategies),
                       ::testing::ValuesIn(test::AllAlgorithms)),
    [](const auto &Info) {
      // No brackets here: structured bindings contain a bare comma, which
      // the INSTANTIATE macro would split on.
      std::string Name = gcStrategyName(std::get<0>(Info.param));
      for (char &C : Name)
        if (C == '-')
          C = '_';
      switch (std::get<1>(Info.param)) {
      case GcAlgorithm::Copying:      return Name + "_copy";
      case GcAlgorithm::MarkSweep:    return Name + "_ms";
      case GcAlgorithm::Generational: return Name + "_gen";
      }
      return Name;
    });

} // namespace
