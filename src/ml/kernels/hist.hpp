// GBT split-finding kernels: per-feature histogram accumulation plus the
// best-bin gain sweep, over BinnedMatrix bin codes.
//
// feature_scan() is the per-(node, feature) unit of work in
// GradientBoostedTrees::build_tree: accumulate the node's gradient sum
// and row count into per-bin histograms, then sweep bins left-to-right
// for the best split. Both tiers reproduce the seed loop exactly:
//
//   * histogram adds happen in ascending row order, so every bin's
//     gradient sum sees the same FP addition sequence as the scalar
//     loop (adds to distinct bins commute trivially — they are separate
//     accumulators);
//   * the sweep's prefix sums stay sequential; only the per-bin gain
//     arithmetic (mul/div/sub — all elementwise, IEEE-exact) is
//     vectorized, and the strict-> first-bin-wins argmax runs serially.
//
// The histogram workspaces are owned by the kernel layer (per-thread,
// per-tier), not passed in. The AVX2 tier keeps its scratch all-zero
// between calls, sets one bit per touched bin while it builds the
// histogram (a register for features of at most 64 bins; a word per 64
// bins plus a bit per touched word above that), then sweeps and
// re-zeroes only the set bits, so a scan costs what the node touched,
// not the bin count. Skipping an untouched bin changes no output bit:
// it leaves the running left-sums unchanged, so its gain repeats the
// previous bin's and can never win the strict `>` argmax; bins below
// the first touched one all see the all-empty prefix, so they collapse
// to one evaluation of the seed loop body at bin 0.
//
// SplitScan::constant reports a node in which every row has the same
// code (or a feature of fewer than 2 bins). Such a feature stays
// constant in every node below, and with min_child_weight > 0 every one
// of its bins fails the weight screen on one side, so
// GradientBoostedTrees::build_tree drops it from the subtree's live
// feature list without changing any split.
//
// node_sum() is the node gradient total. By default it is the plain
// sequential sum; under IOTAX_FAST_MATH=1 it reassociates into SIMD
// lanes (tolerance-gated, not bit-identical).
#pragma once

#include <cstddef>
#include <cstdint>

namespace iotax::ml::kernels {

struct FeatureScanParams {
  double g_total = 0.0;          // node gradient sum
  double h_total = 0.0;          // node hessian sum (== row count)
  double reg_lambda = 0.0;       // L2 on leaf weights
  double min_child_weight = 0.0;
  double min_split_gain = 0.0;
  double parent_score = 0.0;     // g^2 / (h + lambda) of the node
};

/// Best split found within one feature; `valid` is false when no bin
/// cleared the minimum gain. `constant` is true when every node row has
/// the same code, or the feature has fewer than 2 bins.
struct SplitScan {
  double gain = 0.0;
  std::size_t bin = 0;
  bool valid = false;
  bool constant = false;
};

/// Histogram + best-bin scan of one feature for one tree node.
///   col       feature-major bin codes (BinnedMatrix::col_codes)
///   order     the node's base-row indices, length n
///   node_grad gradient gathered per node row (node_grad[i] pairs with
///             order[i]), length n
///   bins      n_bins for this feature (>= 2)
/// Histogram scratch is kernel-owned (thread-local per tier); callers
/// pass no workspace.
SplitScan feature_scan(const std::uint16_t* col, const std::size_t* order,
                       std::size_t n, const double* node_grad,
                       std::size_t bins, const FeatureScanParams& p);

/// Sum of v[0..n): sequential by default; under fast_math, SIMD-lane
/// accumulation reduced in fixed lane order (reassociated).
double node_sum(const double* v, std::size_t n);

}  // namespace iotax::ml::kernels
