// The one percentile definition every figure of the benchmark uses.
//
// Nearest rank: the q-quantile of n samples is the sample at 1-based
// rank ceil(q * n) of the sorted sample. A reported p90 is therefore a
// latency some request really saw, never an interpolation between two
// (obs::Histogram::quantile interpolates inside buckets; the benchmark
// never reads it). Header-only so the benchmark's own test links it
// without the iotax library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples.
inline std::size_t nearest_rank_index(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("nearest_rank: empty sample");
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("nearest_rank: q must lie in (0, 1]");
  }
  // q * n is rounded by the FPU; a product that should be an exact
  // integer may land a few ulps above it, so shave a relative epsilon
  // before taking the ceiling (0.9 * 10 must give rank 9, not 10).
  const double x = q * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(x - x * 1e-12));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank q-quantile of `values` (any order; ties allowed).
inline double nearest_rank(std::vector<double> values, double q) {
  const std::size_t k = nearest_rank_index(values.size(), q) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

/// Nearest-rank median (the lower middle sample when n is even).
inline double median(std::vector<double> values) {
  return nearest_rank(std::move(values), 0.5);
}

}  // namespace perfbench
