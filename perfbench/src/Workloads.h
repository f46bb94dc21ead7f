//===- perfbench/src/Workloads.h - Seeded programs and their oracle -*- C++ -*-===//
///
/// \file
/// The three benchmark workloads as generated MiniML source, plus an oracle
/// that computes every job's expected result in C++ by evaluating the same
/// recurrences directly — never by asking the compiler under test.
///
/// The seed picks only constants (multipliers, moduli, offsets, the float
/// kernel's coefficients, per-task seeds). Sizes — recursion depths, list
/// lengths, iteration counts — are fixed per workload, so every job of a
/// workload does the same amount of work and job latency has one peak.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { Mutator, GcCopy, ThreadsGen };

std::optional<Workload> parseWorkload(std::string_view Name);
const char *workloadName(Workload W);

/// Fixed sizes: the shape of each workload, independent of the seed.
inline constexpr int QueensN = 9;
inline constexpr int MixIters = 150000;
inline constexpr int FloatIters = 150000;

inline constexpr int CopyTreeDepth = 15;
inline constexpr int CopyRounds = 200;
inline constexpr int CopyListN = 1000;

// Two tasks and two GC workers leave two of a 4-vCPU host's cores free: a
// workload that needs every core at once runs at half speed whenever a
// neighbour takes one.
inline constexpr int ThreadTasks = 2;
inline constexpr unsigned ThreadGcWorkers = 2;
inline constexpr int ThreadTreeDepth = 14;
inline constexpr int ThreadListN = 300;
inline constexpr int ThreadCellN = 40;
inline constexpr int ThreadIters = 700;
// The heap starts as a 512 KiB nursery and 1.5 MiB of tenured space. A
// depth-14 tree (4-word nodes) is 512 KiB, and each task keeps two trees
// live, one after the other, each across more than four nursery fills of
// the task's own allocation; every fourth minor collection promotes all
// survivors. So every job promotes at least 2 MiB, more than the tenured
// space holds, and must run a major collection however the threads
// interleave.
inline constexpr size_t ThreadHeapBytes = 2 << 20;
inline constexpr size_t ThreadNurseryBytes = 512 << 10;

/// Every constant a workload's source takes from the seed.
struct Params {
  // mutator: opcodeMix record, multiplier, modulus, start value; floatMath
  // coefficients as decimal text, so the MiniML lexer and the oracle parse
  // the same digits with strtod.
  int64_t MixA, MixC, MixMul, MixMod, MixInit;
  std::string FloatMul, FloatDiv, FloatSub, FloatInit;
  // gc_copy: tree root label, list element offset, churn multiplier,
  // modulus and start value.
  int64_t TreeRoot, ListOffset, ChurnMul, ChurnMod, ChurnInit;
  // threads_gen: one seed per task (shared multiplier and modulus).
  std::vector<int64_t> TaskSeeds;
};

Params paramsFor(uint64_t Seed);

/// The complete MiniML program of \p W. threads_gen's tasks run its
/// `worker` function with workerArgs(P, Task).
std::string source(Workload W, const Params &P);

/// Arguments of threads_gen task \p Task: its seed and ThreadIters.
std::vector<int64_t> workerArgs(const Params &P, int Task);

/// What one job must produce.
struct Expected {
  /// mutator and gc_copy: the program's rendered result.
  std::string Value;
  /// mutator: the exact bits of the floatMath component (the rendering
  /// shows only six significant digits).
  double FloatValue = 0;
  /// threads_gen: the rendered result of each task, in spawn order.
  std::vector<std::string> TaskValues;
};

Expected oracle(Workload W, const Params &P);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
