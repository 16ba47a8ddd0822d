#include "src/stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace iotax::stats {

std::vector<double> log_bin_edges(double lo, double hi, std::size_t bins) {
  if (lo <= 0.0 || hi <= lo) {
    throw std::invalid_argument("log_bin_edges: need 0 < lo < hi");
  }
  if (bins == 0) throw std::invalid_argument("log_bin_edges: bins must be > 0");
  std::vector<double> edges(bins + 1);
  const double llo = std::log10(lo);
  const double lhi = std::log10(hi);
  for (std::size_t i = 0; i <= bins; ++i) {
    edges[i] = std::pow(
        10.0, llo + (lhi - llo) * static_cast<double>(i) /
                        static_cast<double>(bins));
  }
  return edges;
}

std::vector<std::size_t> bin_counts(std::span<const double> xs,
                                    std::span<const double> edges) {
  if (edges.size() < 2) throw std::invalid_argument("bin_counts: need >= 2 edges");
  std::vector<std::size_t> counts(edges.size() - 1, 0);
  for (double x : xs) {
    // upper_bound gives the first edge greater than x.
    auto it = std::upper_bound(edges.begin(), edges.end(), x);
    long long bin = std::distance(edges.begin(), it) - 1;
    bin = std::clamp(bin, 0LL, static_cast<long long>(counts.size()) - 1);
    ++counts[static_cast<std::size_t>(bin)];
  }
  return counts;
}

}  // namespace iotax::stats
