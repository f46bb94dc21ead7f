//===- tests/alloc_count_test.cpp - C++ heap allocations per run ----------===//
//
// Counts calls to the global operator new, which this executable replaces.
// It is its own test binary so that tfgc_tests keeps the sanitizers'
// new/delete checks.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> NewCalls{0};
} // namespace

void *operator new(std::size_t Size) {
  NewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

using namespace tfgc;
using namespace tfgc::test;

namespace {

/// One ref cell per iteration, 120k in all; the self tail call keeps one
/// frame.
const char *RefChurn =
    "fun loop (i : int) (acc : int) : int =\n"
    "  if i = 0 then acc else loop (i - 1) (acc + !(ref i) mod 7);\n"
    "loop 120000 0";

struct Config {
  GcStrategy Strategy;
  GcAlgorithm Algo;
};

TEST(AllocCount, SequentialRunMakesNoCxxAllocationPerObject) {
  // Allocation is an inline bump of the collector's region, and the slow
  // path keeps one root set per VM, so a run's C++ allocations do not grow
  // with the objects it allocates. Mark-sweep takes the slow path for
  // every object.
  Compiled C = compile(RefChurn);
  ASSERT_TRUE(C.P) << C.Error;
  for (Config Cfg : {Config{GcStrategy::CompiledTagFree, GcAlgorithm::Copying},
                     Config{GcStrategy::CompiledTagFree,
                            GcAlgorithm::Generational},
                     Config{GcStrategy::Tagged, GcAlgorithm::Copying},
                     Config{GcStrategy::CompiledTagFree,
                            GcAlgorithm::MarkSweep}}) {
    SCOPED_TRACE(std::string(gcStrategyName(Cfg.Strategy)) + "/" +
                 gcAlgorithmName(Cfg.Algo));
    Stats St;
    auto Col = C.P->makeCollector(Cfg.Strategy, Cfg.Algo, 8 << 20, St,
                                  nullptr, 4 << 20);
    ASSERT_TRUE(Col);
    Vm M(C.P->Prog, C.P->Image, *C.P->Types, *Col,
         defaultVmOptions(Cfg.Strategy));
    uint64_t Before = NewCalls.load(std::memory_order_relaxed);
    RunResult R = M.run();
    uint64_t Calls = NewCalls.load(std::memory_order_relaxed) - Before;
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_GE(St.get(StatId::HeapObjectsAllocated), 100000u);
    EXPECT_EQ(St.get(StatId::GcCollections), 0u);
    EXPECT_LT(Calls, 100u);
  }
}

/// A 100,000-element int list, all of it live at every collection.
const char *LiveList =
    "fun build (n : int) (acc : int list) : int list =\n"
    "  if n = 0 then acc else build (n - 1) (n :: acc);\n"
    "fun len (xs : int list) (k : int) : int =\n"
    "  case xs of Nil => k | Cons(x, r) => len r (k + 1);\n"
    "len (build 100000 []) 0";

TEST(AllocCount, TagFreeTracingMakesNoCxxAllocationPerObject) {
  // The tag-free tracers keep their gray stack across collections and
  // instantiate datatype environments once per collection, so tracing a
  // parameterized datatype costs no C++ allocation per visited object.
  Compiled C = compile(LiveList);
  ASSERT_TRUE(C.P) << C.Error;
  for (GcStrategy S : {GcStrategy::CompiledTagFree,
                       GcStrategy::InterpretedTagFree,
                       GcStrategy::AppelTagFree})
    for (GcAlgorithm A : AllAlgorithms) {
      SCOPED_TRACE(std::string(gcStrategyName(S)) + "/" +
                   gcAlgorithmName(A));
      Stats St;
      auto Col = C.P->makeCollector(S, A, 1 << 20, St);
      ASSERT_TRUE(Col);
      Vm M(C.P->Prog, C.P->Image, *C.P->Types, *Col, defaultVmOptions(S));
      uint64_t Before = NewCalls.load(std::memory_order_relaxed);
      RunResult R = M.run();
      uint64_t Calls = NewCalls.load(std::memory_order_relaxed) - Before;
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.Value, "100000");
      uint64_t Visited = St.get(StatId::GcObjectsVisited);
      EXPECT_GE(Visited, 100000u);
      EXPECT_LT(Calls * 100, Visited) << Calls << " allocations";
    }
}

} // namespace
