// PackedForest: a cache-friendly, structure-of-arrays relayout of
// trained GBT trees for batch prediction.
//
// GradientBoostedTrees::Tree stores nodes as an array-of-structs in
// construction order, and per-row prediction chases child indices
// through it — every step is a dependent ~56-byte load with no
// instruction-level parallelism across rows. PackedForest fixes the
// layout, not the algorithm:
//
//   * one flat array per field (feature/split_bin as int32,
//     threshold/value as double), so a descent step touches four narrow
//     hot arrays instead of one wide cold struct;
//   * each tree's nodes are re-laid-out breadth-first, so every level of
//     the tree is contiguous and all rows of a block walk the same few
//     cache lines;
//   * leaves self-loop (left == right == self, split_bin == INT32_MAX,
//     threshold == +inf), so a block of rows can descend a fixed
//     depth[t] steps branch-free — rows that reach a leaf early just
//     spin on it, taking the always-true "<=" edge back to themselves;
//   * the AVX2 tier descends 8 rows per step for code traversal (4 for
//     raw values) with gathered loads; the scalar tier walks the same
//     arrays row-by-row.
//
// Per row the leaf reached is exactly the one Tree::predict /
// predict_codes reaches, and values accumulate in tree order, so both
// tiers are bit-identical to the seed loops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/util/aligned.hpp"

namespace iotax::ml::kernels {

/// Raw pointers into one PackedForest, for the AVX2 translation units.
struct ForestView {
  const std::int32_t* feature;
  const std::int32_t* split;
  const std::int32_t* left;
  const std::int32_t* right;
  const double* threshold;
  const double* value;
  const std::int32_t* root;
  const std::int32_t* depth;
  std::size_t n_trees;
};

class PackedForest {
 public:
  /// One source node, in the Tree::Node layout (feature < 0 == leaf;
  /// split_bin < 0 when the model came from disk without fit-time bins).
  struct NodeDesc {
    int feature;
    double threshold;
    int split_bin;
    int left;
    int right;
    double value;
  };

  void clear();

  /// Append one tree (nodes[0] is the root). `with_codes` must be false
  /// when the tree lacks split bins; code traversal is then rejected.
  void add_tree(std::span<const NodeDesc> nodes, bool with_codes);

  std::size_t n_trees() const { return root_.size(); }
  bool empty() const { return root_.empty(); }
  /// True when every tree carries split bins (code traversal allowed).
  bool with_codes() const { return with_codes_; }

  /// out[i] += sum over all trees of the leaf value for row i.
  /// `codes` is row-major with `stride` codes per row.
  void predict_codes(const std::uint16_t* codes, std::size_t stride,
                     std::size_t n_rows, double* out) const;

  /// out[i] += sum over trees [0, t_end) only. A boosting round depends
  /// only on the rounds before it, so the first k trees of a fit ARE
  /// the k-tree model with the same seed; searches score n_estimators
  /// candidates against prefixes of one shared fit. Values accumulate
  /// per row in ascending tree order, exactly as predict_codes would on
  /// the smaller forest. t_end is clamped to n_trees().
  void predict_codes_prefix(std::size_t t_end, const std::uint16_t* codes,
                            std::size_t stride, std::size_t n_rows,
                            double* out) const;

  /// out[i] += leaf value of tree t only (per-round fit updates).
  void predict_codes_tree(std::size_t t, const std::uint16_t* codes,
                          std::size_t stride, std::size_t n_rows,
                          double* out) const;

  /// out[i] += sum over trees [0, t_end), routing by raw feature values
  /// (t_end clamped to n_trees(); pass n_trees() for the whole forest).
  /// `x` is a dense row-major block with `stride` doubles per row. As
  /// with predict_codes_prefix, a prefix is bit-identical to the forest
  /// of a fit with that many rounds.
  void predict_values(std::size_t t_end, const double* x, std::size_t stride,
                      std::size_t n_rows, double* out) const;

  ForestView view() const {
    return {feature_.data(), split_.data(),     left_.data(),
            right_.data(),   threshold_.data(), value_.data(),
            root_.data(),    depth_.data(),     root_.size()};
  }

 private:
  // Node fields, all trees concatenated; indices are global.
  util::aligned_vector<std::int32_t> feature_;
  util::aligned_vector<std::int32_t> split_;
  util::aligned_vector<std::int32_t> left_;
  util::aligned_vector<std::int32_t> right_;
  util::aligned_vector<double> threshold_;
  util::aligned_vector<double> value_;
  util::aligned_vector<std::int32_t> root_;   // per tree: root node index
  util::aligned_vector<std::int32_t> depth_;  // per tree: max depth
  bool with_codes_ = true;
};

}  // namespace iotax::ml::kernels
