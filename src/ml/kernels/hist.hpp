// GBT split-finding kernels: per-feature histogram accumulation plus the
// best-bin gain sweep, over BinnedMatrix bin codes.
//
// node_scan() is the per-node unit of work in
// GradientBoostedTrees::build_tree: for every live feature, accumulate
// the node's gradient sum and row count into per-bin histograms, then
// sweep bins left-to-right for the best split. Both tiers reproduce the
// seed loop exactly:
//
//   * every bin's gradient sum adds the node's rows in ascending row
//     order, so it sees the same FP addition sequence as the scalar loop
//     (adds to distinct bins, or to distinct features' bins, commute
//     trivially — they are separate accumulators);
//   * the sweep's prefix sums stay sequential; only the per-bin gain
//     arithmetic (mul/div/sub — all elementwise, IEEE-exact) is
//     vectorized, and the strict-> first-bin-wins argmax runs serially.
//
// The build's only serial dependence is per (feature, bin): a bin's
// add must wait for that bin's previous add, a store→load→add chain
// whenever consecutive rows share a bin. Nothing orders one feature's
// adds against another's, so the AVX2 tier builds kScanGroup features'
// histograms in one pass over the node's rows: each row's index and
// gradient are read once, each bin is one 16-byte {gradient sum, row
// count} slot updated by one 128-bit add (its two lanes are the two
// scalar accumulators), and the group's chains interleave instead of
// queueing. Features of at most 64 bins (every default-budget counter)
// go through the group pass; wider features take a one-feature pass
// with the same slots.
//
// The histogram workspaces are owned by the kernel layer (per-thread,
// per-tier), not passed in. The AVX2 tier keeps its scratch all-zero
// between calls, sets one bit per touched bin while it builds a
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

/// Features node_scan's AVX2 tier builds per pass over a node's rows.
/// Callers that split a live list across threads cut it into chunks of
/// a multiple of this, so only the list's last chunk ends in a short
/// group.
inline constexpr std::size_t kScanGroup = 4;

struct NodeScanParams {
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

/// Feature-major bin codes (BinnedMatrix::col_codes): feature f's code
/// for base row r is codes[f * stride + r], and it has bins[f] bins.
struct ScanColumns {
  const std::uint16_t* codes = nullptr;
  std::size_t stride = 0;
  const std::size_t* bins = nullptr;
};

/// Histogram + best-bin scan of every live feature of one tree node;
/// out[j] is feature features[j]'s scan.
///   features  the node's live feature ids, length n_features
///   order     the node's base-row indices, length n
///   node_grad gradient gathered per node row (node_grad[i] pairs with
///             order[i]), length n
/// Histogram scratch is kernel-owned (thread-local per tier); callers
/// pass no workspace.
void node_scan(const ScanColumns& cols, const std::size_t* features,
               std::size_t n_features, const std::size_t* order,
               std::size_t n, const double* node_grad,
               const NodeScanParams& p, SplitScan* out);

/// Sum of v[0..n): sequential by default; under fast_math, SIMD-lane
/// accumulation reduced in fixed lane order (reassociated).
double node_sum(const double* v, std::size_t n);

}  // namespace iotax::ml::kernels
