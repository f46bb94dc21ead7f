//===- perfbench/src/Percentile.h - Nearest-rank percentiles -----*- C++ -*-===//
///
/// \file
/// The one percentile rule of the benchmark, used for every job latency
/// and pause percentile: nearest rank over exact samples. The value at
/// percentile P of N samples is the ceil(P/100 * N)-th smallest (rank
/// clamped to [1, N]). A percentile is only trustworthy with enough
/// samples above it, so the result also carries that count.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PERCENTILE_H
#define PERFBENCH_PERCENTILE_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// A reported percentile needs at least this many samples above its rank.
inline constexpr size_t MinSamplesBeyond = 10;

struct Percentile {
  double Value = 0;
  size_t Samples = 0; ///< N.
  size_t Beyond = 0;  ///< Samples ranked above the reported one.
};

/// Nearest-rank percentile \p P (a whole percent in [1, 100]) of
/// \p Samples. Integer rank arithmetic: ceil(0.9 * 100) in doubles is 91.
/// Empty input gives {0, 0, 0}.
inline Percentile nearestRank(std::vector<double> Samples, unsigned P) {
  Percentile R;
  R.Samples = Samples.size();
  if (Samples.empty())
    return R;
  size_t Rank = (P * Samples.size() + 99) / 100;
  Rank = std::clamp<size_t>(Rank, 1, Samples.size());
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  R.Value = Samples[Rank - 1];
  R.Beyond = Samples.size() - Rank;
  return R;
}

} // namespace perfbench

#endif // PERFBENCH_PERCENTILE_H
