// Log-spaced bin edges and edge-based counting; used to print the
// paper's distribution figures (Figs. 3, 4, 6) as text series.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace iotax::stats {

/// Log10-spaced bin edges from lo to hi (lo, hi > 0), `bins` bins.
std::vector<double> log_bin_edges(double lo, double hi, std::size_t bins);

/// Count samples into arbitrary monotone edges; out-of-range samples are
/// clamped to the first/last bin. edges.size() >= 2.
std::vector<std::size_t> bin_counts(std::span<const double> xs,
                                    std::span<const double> edges);

}  // namespace iotax::stats
