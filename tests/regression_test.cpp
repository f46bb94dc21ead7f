//===- tests/regression_test.cpp - Pinned bug fixes ------------------------===//
///
/// Each test here reproduces a bug found during development and pins the
/// fix.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Liveness.h"
#include "workloads/Programs.h"

using namespace tfgc;
using namespace tfgc::test;

namespace {

TEST(Regression, RecursiveTemplateDescriptorsUseEnvChains) {
  // Bug: the interpreted tracer resolved a shape field's Param nodes
  // against the field's own arguments instead of the parent
  // instantiation, blowing the "Param outside datatype context" assert
  // on recursive datatypes with non-tail recursive fields (trees).
  std::string Src =
      "datatype 'a tr = Lf | Nd of 'a tr * 'a * 'a tr;\n"
      "fun ins (t : (int * int) tr) (v : int) : (int * int) tr =\n"
      "  case t of Lf => Nd(Lf, (v, v * 2), Lf)\n"
      "  | Nd(l, p, r) => (case p of (x, _) =>\n"
      "      if v < x then Nd(ins l v, p, r) else Nd(l, p, ins r v));\n"
      "fun tot (t : (int * int) tr) : int =\n"
      "  case t of Lf => 0 | Nd(l, p, r) => (case p of (a, b) => "
      "a + b + tot l + tot r);\n"
      "fun fill (t : (int * int) tr) (i : int) : (int * int) tr =\n"
      "  if i = 0 then t else fill (ins t (i * 13 mod 37)) (i - 1);\n"
      "tot (fill Lf 24)";
  runAllStrategies(Src, 1 << 12);
}

TEST(Regression, NestedCompositeTypeArgumentsInShapes) {
  // A constructor field instantiating the datatype with a *composite* of
  // its parameters (('a * 'a) list) requires real environment chains —
  // flat argument substitution is not enough.
  std::string Src =
      "datatype 'a bag = Empty | More of ('a * 'a) list * 'a bag;\n"
      "fun pairs (n : int) : (int * int) list =\n"
      "  if n = 0 then [] else (n, n * n) :: pairs (n - 1);\n"
      "fun grow (b : int bag) (i : int) : int bag =\n"
      "  if i = 0 then b else grow (More(pairs i, b)) (i - 1);\n"
      "fun weigh (b : int bag) : int =\n"
      "  case b of Empty => 0\n"
      "  | More(ps, rest) =>\n"
      "      (case ps of Nil => 0 | Cons(p, _) => (case p of (a, b2) => "
      "a + b2)) + weigh rest;\n"
      "weigh (grow Empty 12)";
  runAllStrategies(Src, 1 << 12);
}

TEST(Regression, DeepListTracingIsIterative) {
  // The tracers' explicit gray stack keeps the C++ stack flat while
  // tracing a 60k-element list spine (deep_data_test covers a million
  // levels nested through a first field).
  std::string Src =
      "fun build (n : int) : int list = if n = 0 then [] "
      "else n :: build (n - 1);\n"
      "fun hold (xs : int list) (u : int) : int =\n"
      "  case xs of Nil => u | Cons(x, _) => x + u + "
      "(case build 10 of Nil => 0 | Cons(y, _) => y);\n"
      "hold (build 60000) 1";
  // Heap sized below the list (1.44 MiB tag-free), forcing growth
  // collections while the long spine is live.
  for (GcStrategy S : AllStrategies) {
    ExecResult R = execProgram(Src, S, GcAlgorithm::Copying, 1 << 20, false);
    ASSERT_TRUE(R.Run.Ok) << gcStrategyName(S) << ": " << R.Run.Error;
    EXPECT_EQ(R.Run.Value, "60011");
    EXPECT_GT(R.St.get("gc.collections"), 0u) << gcStrategyName(S);
  }
}

TEST(Regression, TaskingSafeTracesCallArguments) {
  // Bug: a task suspended *at* a call site re-executes the call after
  // collection; without TaskingSafe the argument slots were untraced and
  // the resumed call read stale pointers (heap corruption).
  std::string Src =
      "fun len (xs : int list) : int = case xs of Nil => 0 "
      "| Cons(_, r) => 1 + len r;\n"
      "fun pass (xs : int list) (ys : int list) : int = len xs + len ys;\n"
      "pass [1] [2, 3]";
  CompileOptions Plain, Safe;
  Safe.TaskingSafe = true;
  auto P1 = compile(Src, Plain);
  auto P2 = compile(Src, Safe);
  ASSERT_TRUE(P1.P && P2.P);

  auto SiteArgsTraced = [](CompiledProgram &P) {
    FuncId Main = P.Prog.MainId;
    for (const CallSiteInfo &S : P.Prog.Sites) {
      if (S.Kind != SiteKind::Direct || S.Caller != Main)
        continue;
      const IrFunction &F = P.Prog.fn(Main);
      const Instr &I = F.Code[S.InstrIdx];
      if (P.Prog.fn(S.Callee).Name != "pass")
        continue;
      // Are all argument slots in the trace set?
      for (SlotIndex Arg : I.Srcs) {
        bool Found = false;
        for (SlotIndex T : S.TraceSlots)
          if (T == Arg)
            Found = true;
        if (!Found)
          return false;
      }
      return true;
    }
    return false;
  };
  EXPECT_FALSE(SiteArgsTraced(*P1.P)); // Args dead after the call.
  EXPECT_TRUE(SiteArgsTraced(*P2.P));

  // And TaskingSafe implies gc_words everywhere.
  EXPECT_EQ(P2.P->Image.omittedGcWords(), 0u);
  EXPECT_GT(P1.P->Image.omittedGcWords(), 0u);
}

TEST(Regression, RefAsPostfixTypeConstructor) {
  // Bug: `node ref` in a datatype field failed to parse ('ref' is a
  // keyword, not an identifier).
  std::string V = runAllStrategies(
      "datatype node = End | Link of int * node ref;\n"
      "val a = ref End;\n"
      "val n1 = Link(7, a);\n"
      "case n1 of End => 0 | Link(v, _) => v",
      1 << 14);
  EXPECT_EQ(V, "7");
}

TEST(Regression, SemicolonStopsJuxtaposition) {
  // Bug: without the ';', `f 7` swallowed the following parenthesized
  // main expression as a second argument.
  auto P = parse("fun f (x : int) : int = x;\nval r = f 7;\n(r, r)");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Main->getKind(), ExprKind::Tuple);
}

TEST(Regression, StressTinyHeapAllWorkloads) {
  // A sweep that previously surfaced the descriptor-table reallocation
  // use-after-free: collect at every allocation with a minimal heap.
  namespace wl = tfgc::workloads;
  for (const std::string &Src :
       {wl::listChurn(16, 2), wl::variantRecords(24), wl::higherOrder(12),
        wl::polyPaper(), wl::refCells(48)}) {
    runAllStrategies(Src, 2048);
  }
}

} // namespace
