//===- tests/deep_data_test.cpp - Heaps nested far deeper than the stack --===//
//
// The two example programs whose live data nests a million levels (a
// left-deep tree) and 200,000 levels (composed closures) through fields
// a recursive tracer would recurse on. Every configuration must trace
// them at the default C++ stack and pass --verify. A crash fails only
// its own case: each case runs in a process of its own.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace tfgc;

namespace {

std::string example(const std::string &Name) {
  std::string Source =
      test::slurp(std::string(TFGC_EXAMPLES_DIR) + "/" + Name);
  EXPECT_FALSE(Source.empty()) << Name;
  return Source;
}

/// Runs \p Source under \p O with --verify and checks its value, that it
/// collected, and that every collection left a consistent heap.
test::SessionRun runDeep(const std::string &Source, CliOptions O,
                         const std::string &Expected) {
  O.Verify = true;
  test::SessionRun Run = test::runSession(Source, O);
  if (!Run) {
    ADD_FAILURE() << "session did not open";
    return Run;
  }
  EXPECT_EQ(Run.R.Value, Expected);
  EXPECT_GT(Run.stats().get(StatId::GcCollections), 0u);
  EXPECT_GT(Run.stats().get(StatId::GcVerifyPasses), 0u);
  EXPECT_EQ(Run.stats().get(StatId::GcVerifyViolations), 0u);
  return Run;
}

class DeepData
    : public ::testing::TestWithParam<std::tuple<GcStrategy, GcAlgorithm>> {
};

// Heaps sized so that a few collections trace the structure at its full
// depth so far, and each run stays around a second. Generational heaps
// are larger: while young data keeps growing, every minor escalates into
// a major, and on a small nursery the tree build runs hundreds of them.
TEST_P(DeepData, LeftDeepTree) {
  auto [S, A] = GetParam();
  size_t Heap = A == GcAlgorithm::Generational ? 32u << 20 : 4u << 20;
  runDeep(example("deep_left_tree.mml"), test::sessionOptions(S, A, Heap),
          "1000000");
}

TEST_P(DeepData, ComposeChain) {
  auto [S, A] = GetParam();
  size_t Heap = A == GcAlgorithm::Generational ? 4u << 20 : 1u << 20;
  runDeep(example("compose_chain.mml"), test::sessionOptions(S, A, Heap),
          "200000");
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, DeepData,
    ::testing::Combine(::testing::ValuesIn(test::AllStrategies),
                       ::testing::ValuesIn(test::AllAlgorithms)),
    [](const auto &Info) {
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

TEST(DeepDataThreads, LeftDeepTreeGenerationalFourThreads) {
  // OS-thread runtime with four GC workers: collections trace in
  // parallel, through the Par* spaces.
  std::string Source = example("deep_left_tree.mml");
  size_t At = Source.find("mk 1000000 L");
  ASSERT_NE(At, std::string::npos);
  Source.replace(At, 12, "mk 200000 L");
  CliOptions O = test::sessionOptions(GcStrategy::CompiledTagFree,
                                      GcAlgorithm::Generational, 32u << 20);
  O.Threads = 4;
  test::SessionRun Run = runDeep(Source, O, "200000");
  ASSERT_TRUE(Run);
  EXPECT_GT(Run.stats().get(StatId::GcParallelTraces), 0u);
}

} // namespace
