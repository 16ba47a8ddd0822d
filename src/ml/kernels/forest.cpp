#include "src/ml/kernels/forest.hpp"

#include <limits>
#include <stdexcept>
#include <vector>

#include "src/ml/kernels/dispatch.hpp"
#include "src/ml/kernels/internal.hpp"

namespace iotax::ml::kernels {

namespace {

// Scalar descent, routing by bin codes. Leaves self-loop, so the
// left==self test is the leaf check.
inline double descend_codes(const ForestView& f, std::int32_t root,
                            const std::uint16_t* row) {
  std::int32_t idx = root;
  while (f.left[idx] != idx) {
    idx = static_cast<std::int32_t>(row[f.feature[idx]]) <= f.split[idx]
              ? f.left[idx]
              : f.right[idx];
  }
  return f.value[idx];
}

inline double descend_values(const ForestView& f, std::int32_t root,
                             const double* row) {
  std::int32_t idx = root;
  while (f.left[idx] != idx) {
    idx = row[f.feature[idx]] <= f.threshold[idx] ? f.left[idx]
                                                  : f.right[idx];
  }
  return f.value[idx];
}

void forest_codes_scalar(const ForestView& f, std::size_t t_begin,
                         std::size_t t_end, const std::uint16_t* codes,
                         std::size_t stride, std::size_t n_rows,
                         double* out) {
  for (std::size_t i = 0; i < n_rows; ++i) {
    const std::uint16_t* row = codes + i * stride;
    double acc = out[i];
    for (std::size_t t = t_begin; t < t_end; ++t) {
      acc += descend_codes(f, f.root[t], row);
    }
    out[i] = acc;
  }
}

void forest_values_scalar(const ForestView& f, std::size_t t_begin,
                          std::size_t t_end, const double* x,
                          std::size_t stride, std::size_t n_rows,
                          double* out) {
  for (std::size_t i = 0; i < n_rows; ++i) {
    const double* row = x + i * stride;
    double acc = out[i];
    for (std::size_t t = t_begin; t < t_end; ++t) {
      acc += descend_values(f, f.root[t], row);
    }
    out[i] = acc;
  }
}

void dispatch_codes(const ForestView& f, std::size_t t_begin,
                    std::size_t t_end, const std::uint16_t* codes,
                    std::size_t stride, std::size_t n_rows, double* out) {
#if defined(IOTAX_KERNELS_AVX2)
  // The gathered code offsets are 32-bit in the AVX2 tier; fall back to
  // scalar for (enormous) blocks where they could overflow.
  if (active_tier() == Tier::kAvx2 &&
      n_rows * stride <= static_cast<std::size_t>(
                             std::numeric_limits<std::int32_t>::max())) {
    avx2::forest_codes(f, t_begin, t_end, codes, stride, n_rows, out);
    return;
  }
#endif
  forest_codes_scalar(f, t_begin, t_end, codes, stride, n_rows, out);
}

void dispatch_values(const ForestView& f, std::size_t t_begin,
                     std::size_t t_end, const double* x, std::size_t stride,
                     std::size_t n_rows, double* out) {
#if defined(IOTAX_KERNELS_AVX2)
  if (active_tier() == Tier::kAvx2) {
    avx2::forest_values(f, t_begin, t_end, x, stride, n_rows, out);
    return;
  }
#endif
  forest_values_scalar(f, t_begin, t_end, x, stride, n_rows, out);
}

}  // namespace

void PackedForest::clear() {
  feature_.clear();
  split_.clear();
  left_.clear();
  right_.clear();
  threshold_.clear();
  value_.clear();
  root_.clear();
  depth_.clear();
  with_codes_ = true;
}

void PackedForest::add_tree(std::span<const NodeDesc> nodes,
                            bool with_codes) {
  if (nodes.empty()) {
    throw std::invalid_argument("PackedForest::add_tree: empty tree");
  }
  with_codes_ = with_codes_ && with_codes;
  const auto base = static_cast<std::int32_t>(feature_.size());
  root_.push_back(base);

  // Breadth-first relayout: packed[k] is the k-th node in BFS order, so
  // every level of the tree occupies a contiguous run and a block of
  // rows descending in lockstep shares cache lines per step.
  std::vector<std::int32_t> bfs;       // source indices, BFS order
  std::vector<std::int32_t> packed_of(nodes.size(), -1);
  bfs.push_back(0);
  packed_of[0] = base;
  std::size_t head = 0;
  std::int32_t depth = 0;
  std::size_t level_end = 1;  // exclusive end of the current level in bfs
  while (head < bfs.size()) {
    if (head == level_end) {
      level_end = bfs.size();
      ++depth;
    }
    const NodeDesc& src = nodes[static_cast<std::size_t>(bfs[head])];
    if (src.feature >= 0) {
      packed_of[static_cast<std::size_t>(src.left)] =
          base + static_cast<std::int32_t>(bfs.size());
      bfs.push_back(src.left);
      packed_of[static_cast<std::size_t>(src.right)] =
          base + static_cast<std::int32_t>(bfs.size());
      bfs.push_back(src.right);
    }
    ++head;
  }

  for (const std::int32_t s : bfs) {
    const NodeDesc& src = nodes[static_cast<std::size_t>(s)];
    if (src.feature >= 0) {
      feature_.push_back(src.feature);
      split_.push_back(src.split_bin);
      threshold_.push_back(src.threshold);
      left_.push_back(packed_of[static_cast<std::size_t>(src.left)]);
      right_.push_back(packed_of[static_cast<std::size_t>(src.right)]);
      value_.push_back(0.0);
    } else {
      // Leaf: self-loop on an always-true "<=" edge so fixed-depth
      // descent parks here. feature 0 keeps the (discarded) gathers of
      // the branch-free tier in bounds.
      const auto self = packed_of[static_cast<std::size_t>(s)];
      feature_.push_back(0);
      split_.push_back(std::numeric_limits<std::int32_t>::max());
      threshold_.push_back(std::numeric_limits<double>::infinity());
      left_.push_back(self);
      right_.push_back(self);
      value_.push_back(src.value);
    }
  }
  depth_.push_back(depth);
}

void PackedForest::predict_codes(const std::uint16_t* codes,
                                 std::size_t stride, std::size_t n_rows,
                                 double* out) const {
  if (!with_codes_) {
    throw std::logic_error("PackedForest: no split bins for code traversal");
  }
  dispatch_codes(view(), 0, n_trees(), codes, stride, n_rows, out);
}

void PackedForest::predict_codes_prefix(std::size_t t_end,
                                        const std::uint16_t* codes,
                                        std::size_t stride,
                                        std::size_t n_rows,
                                        double* out) const {
  if (!with_codes_) {
    throw std::logic_error("PackedForest: no split bins for code traversal");
  }
  dispatch_codes(view(), 0, t_end < n_trees() ? t_end : n_trees(), codes,
                 stride, n_rows, out);
}

void PackedForest::predict_codes_tree(std::size_t t,
                                      const std::uint16_t* codes,
                                      std::size_t stride, std::size_t n_rows,
                                      double* out) const {
  if (!with_codes_) {
    throw std::logic_error("PackedForest: no split bins for code traversal");
  }
  dispatch_codes(view(), t, t + 1, codes, stride, n_rows, out);
}

void PackedForest::predict_values(std::size_t t_end, const double* x,
                                  std::size_t stride, std::size_t n_rows,
                                  double* out) const {
  dispatch_values(view(), 0, t_end < n_trees() ? t_end : n_trees(), x,
                  stride, n_rows, out);
}

}  // namespace iotax::ml::kernels
