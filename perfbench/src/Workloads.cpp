//===- perfbench/src/Workloads.cpp ----------------------------------------===//

#include "Workloads.h"

#include "support/Rng.h"

#include <cstdlib>
#include <sstream>

using namespace perfbench;

std::optional<Workload> perfbench::parseWorkload(std::string_view Name) {
  for (Workload W : {Workload::Mutator, Workload::GcCopy, Workload::ThreadsGen})
    if (Name == workloadName(W))
      return W;
  return std::nullopt;
}

const char *perfbench::workloadName(Workload W) {
  switch (W) {
  case Workload::Mutator:
    return "mutator";
  case Workload::GcCopy:
    return "gc_copy";
  case Workload::ThreadsGen:
    return "threads_gen";
  }
  return "?";
}

Params perfbench::paramsFor(uint64_t Seed) {
  tfgc::Rng R(Seed);
  Params P;
  P.MixA = R.range(1, 999);
  P.MixC = R.range(1, 999);
  P.MixMul = R.range(3, 9);
  P.MixMod = R.range(900000, 999999);
  P.MixInit = R.range(1, 999);
  // floatMath keeps t in [0, 1e6) by rescaling; these ranges keep every
  // intermediate finite and the rescale branch taken now and then.
  P.FloatMul = "1.000000" + std::to_string(R.range(1, 9));
  P.FloatDiv = std::to_string(R.range(2, 9)) + ".0";
  P.FloatSub = "0." + std::to_string(R.range(1, 9));
  P.FloatInit = std::to_string(R.range(1, 9)) + ".0";
  P.TreeRoot = R.range(1, 999);
  P.ListOffset = R.range(1, 999);
  P.ChurnMul = R.range(2, 9);
  P.ChurnMod = R.range(500000000, 1000000000);
  P.ChurnInit = R.range(1, 999);
  for (int I = 0; I < ThreadTasks; ++I)
    P.TaskSeeds.push_back(R.range(1, 999));
  return P;
}

static std::string num(int64_t N) { return std::to_string(N); }

// A binary tree whose node labels follow heap numbering from Root; `check`
// sums the labels. Shared by gc_copy and threads_gen.
static const char *TreeDecls = R"(
datatype tree = Leaf | Node of tree * int * tree;

fun make (d : int) (v : int) : tree =
  if d = 0 then Leaf else Node(make (d - 1) (2 * v), v, make (d - 1) (2 * v + 1));

fun check (t : tree) : int =
  case t of Leaf => 0 | Node(l, v, r) => v + check l + check r;

fun sum (xs : int list) : int =
  case xs of Nil => 0 | Cons(x, r) => x + sum r;
)";

std::string perfbench::source(Workload W, const Params &P) {
  switch (W) {
  case Workload::Mutator:
    // nqueens (calls, short-lived lists), opcodeMix (dispatch and
    // superinstruction fusion) and floatMath (float ops) once each; none
    // allocates enough to collect in the default 1 MiB heap.
    return R"(
fun abs (x : int) : int = if x < 0 then ~x else x;

fun safe (q : int) (d : int) (qs : int list) : bool =
  case qs of
    Nil => true
  | Cons(x, r) =>
      if x = q then false
      else if abs (x - q) = d then false
      else safe q (d + 1) r;

fun solve (k : int) (qs : int list) (n : int) : int =
  if k = 0 then 1 else tryCols n qs k n
and tryCols (c : int) (qs : int list) (k : int) (n : int) : int =
  if c = 0 then 0
  else (if safe c 1 qs then solve (k - 1) (c :: qs) n else 0)
       + tryCols (c - 1) qs k n;

datatype rec2 = R of int * int;

fun pick (b : rec2) (i : int) : int =
  case b of R(a, c) => if i mod 2 = 0 then a else c;

fun mix (i : int) (acc : int) (b : rec2) : int =
  if i = 0 then acc
  else
    let val v = pick b i
        val acc2 = (acc * )" +
           num(P.MixMul) + " + v - i) mod " + num(P.MixMod) + R"(
    in mix (i - 1) (if acc2 < 0 then acc2 + )" +
           num(P.MixMod) + R"( else acc2) b end;

fun fm (i : int) (acc : float) : float =
  if i = 0 then acc
  else
    let val t = acc *. )" +
           P.FloatMul + " +. real i /. " + P.FloatDiv + " -. " + P.FloatSub +
           R"(
    in fm (i - 1) (if t <. 1000000.0 then t else t /. 1000000.0) end;

(solve )" + num(QueensN) +
           " [] " + num(QueensN) + ", mix " + num(MixIters) + " " +
           num(P.MixInit) + " (R(" + num(P.MixA) + ", " + num(P.MixC) +
           ")), fm " + num(FloatIters) + " " + P.FloatInit + ")\n";

  case Workload::GcCopy:
    // A depth-15 tree stays live (it is checked last) while every round
    // builds, reverses and sums a fresh 1000-element list.
    return std::string(TreeDecls) + R"(
fun build (n : int) : int list =
  if n = 0 then [] else (n + )" +
           num(P.ListOffset) + R"() :: build (n - 1);

fun revAcc (xs : int list) (acc : int list) : int list =
  case xs of Nil => acc | Cons(x, r) => revAcc r (x :: acc);

fun churn (i : int) (acc : int) : int =
  if i = 0 then acc
  else churn (i - 1)
             ((acc * )" +
           num(P.ChurnMul) + " + sum (revAcc (build " + num(CopyListN) +
           ") []) + i) mod " + num(P.ChurnMod) + R"();

val t = make )" + num(CopyTreeDepth) +
           " " + num(P.TreeRoot) + R"(;
val c = churn )" + num(CopyRounds) +
           " " + num(P.ChurnInit) + R"(;
c + check t
)";

  case Workload::ThreadsGen:
    // Each task keeps its own tree live across the loop, re-points a ref
    // cell (tenured after a few minor collections) at a fresh list every
    // iteration — old-to-young stores through the write barrier — and
    // churns a short list per iteration. Halfway through it checks its
    // tree and replaces it with a fresh one, so each task promotes two
    // trees: together four times the tenured space's headroom (see
    // Workloads.h), so every job runs a major collection.
    return std::string(TreeDecls) + R"(
fun build (n : int) (x : int) : int list =
  if n = 0 then [] else (n + x) :: build (n - 1) x;

fun loop (i : int) (acc : int) (cell : int list ref) (t : tree) (s : int) : int =
  if i = 0 then acc + sum (!cell) + check t
  else (cell := build )" +
           num(ThreadCellN) + R"( i;
        let val acc2 = (acc * )" +
           num(P.ChurnMul) + " + sum (build " + num(ThreadListN) +
           " i)) mod " + num(P.ChurnMod) + R"(
        in if i = )" +
           num(ThreadIters / 2) + R"(
           then loop (i - 1) (acc2 + check t) cell (make )" +
           num(ThreadTreeDepth) + R"( (s + 1)) s
           else loop (i - 1) acc2 cell t s
        end);

fun worker (s : int) (iters : int) : int =
  loop iters s (ref ([] : int list)) (make )" +
           num(ThreadTreeDepth) + R"( s) s;

worker 1 1
)";
  }
  return "";
}

std::vector<int64_t> perfbench::workerArgs(const Params &P, int Task) {
  return {P.TaskSeeds[Task], ThreadIters};
}

//===----------------------------------------------------------------------===//
// Oracle: the same recurrences, evaluated in C++.
//===----------------------------------------------------------------------===//

static int64_t queens(int K, std::vector<int64_t> &Qs, int N) {
  if (K == 0)
    return 1;
  int64_t Count = 0;
  for (int C = N; C >= 1; --C) {
    bool Safe = true;
    for (size_t I = 0; I < Qs.size() && Safe; ++I) {
      int64_t X = Qs[Qs.size() - 1 - I]; // most recent queen first
      int64_t D = (int64_t)I + 1;
      Safe = X != C && std::llabs(X - C) != D;
    }
    if (Safe) {
      Qs.push_back(C);
      Count += queens(K - 1, Qs, N);
      Qs.pop_back();
    }
  }
  return Count;
}

static int64_t treeSum(int Depth, int64_t V) {
  if (Depth == 0)
    return 0;
  return V + treeSum(Depth - 1, 2 * V) + treeSum(Depth - 1, 2 * V + 1);
}

/// sum [n + X | n <- 1..N]
static int64_t listSum(int64_t N, int64_t X) { return N * (N + 1) / 2 + N * X; }

Expected perfbench::oracle(Workload W, const Params &P) {
  Expected E;
  switch (W) {
  case Workload::Mutator: {
    std::vector<int64_t> Qs;
    int64_t Queens = queens(QueensN, Qs, QueensN);

    int64_t Acc = P.MixInit;
    for (int64_t I = MixIters; I > 0; --I) {
      int64_t V = I % 2 == 0 ? P.MixA : P.MixC;
      int64_t Acc2 = (Acc * P.MixMul + V - I) % P.MixMod;
      Acc = Acc2 < 0 ? Acc2 + P.MixMod : Acc2;
    }

    const double Mul = std::strtod(P.FloatMul.c_str(), nullptr);
    const double Div = std::strtod(P.FloatDiv.c_str(), nullptr);
    const double Sub = std::strtod(P.FloatSub.c_str(), nullptr);
    double F = std::strtod(P.FloatInit.c_str(), nullptr);
    for (int64_t I = FloatIters; I > 0; --I) {
      double T = F * Mul + (double)I / Div - Sub;
      F = T < 1000000.0 ? T : T / 1000000.0;
    }

    // Rendered as the VM renders a tuple: fields joined by ", ", floats
    // through the default ostream format.
    std::ostringstream OS;
    OS << '(' << Queens << ", " << Acc << ", " << F << ')';
    E.Value = OS.str();
    E.FloatValue = F;
    return E;
  }
  case Workload::GcCopy: {
    int64_t Acc = P.ChurnInit;
    for (int64_t I = CopyRounds; I > 0; --I)
      Acc = (Acc * P.ChurnMul + listSum(CopyListN, P.ListOffset) + I) %
            P.ChurnMod;
    E.Value = num(Acc + treeSum(CopyTreeDepth, P.TreeRoot));
    return E;
  }
  case Workload::ThreadsGen:
    for (int64_t S : P.TaskSeeds) {
      int64_t Acc = S;
      int64_t Cell = 0; // sum of the list the cell points at
      int64_t Root = S; // root label of the live tree
      for (int64_t I = ThreadIters; I > 0; --I) {
        Cell = listSum(ThreadCellN, I);
        Acc = (Acc * P.ChurnMul + listSum(ThreadListN, I)) % P.ChurnMod;
        if (I == ThreadIters / 2) {
          Acc += treeSum(ThreadTreeDepth, Root);
          Root = S + 1;
        }
      }
      E.TaskValues.push_back(num(Acc + Cell + treeSum(ThreadTreeDepth, Root)));
    }
    return E;
  }
  return E;
}
