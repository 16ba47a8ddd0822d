// Hyperparameter search for the GBT models (§VI.B): the paper trains
// 8046 XGBoost configurations over four hyperparameters — number of
// trees, tree depth, row fraction and column fraction — and selects on a
// validation set. grid_search reproduces that.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/ml/gbt.hpp"
#include "src/ml/metrics.hpp"

namespace iotax::ml {

struct SearchPoint {
  GbtParams params;
  double val_error = 0.0;  // median |log10 ratio| on the validation set
};

struct SearchResult {
  std::vector<SearchPoint> evaluated;  // in evaluation order
  SearchPoint best;
  /// The fitted model of `best`'s prefix family: every candidate that
  /// differs from `best` only in n_estimators shares one fit at the
  /// family's largest tree count. Its first best.params.n_estimators
  /// trees are bit-identical to fitting best.params on the training
  /// matrix, so predict_prefix(x, best.params.n_estimators) scores the
  /// winner without a refit. Null when no candidate had a finite
  /// validation error.
  std::shared_ptr<const GradientBoostedTrees> best_model;
};

struct GbtGrid {
  std::vector<std::size_t> n_estimators = {8, 16, 32, 64, 128};
  std::vector<std::size_t> max_depth = {3, 6, 9, 12, 15, 18, 21};
  std::vector<double> subsample = {0.8, 1.0};
  std::vector<double> colsample = {0.8, 1.0};
  GbtParams base;  // learning rate, lambda etc. shared by all points
};

using SearchCallback = std::function<void(const SearchPoint&)>;

/// Exhaustive grid search; selects by validation median |log10| error.
SearchResult grid_search(const GbtGrid& grid, const data::MatrixView& x_train,
                         std::span<const double> y_train,
                         const data::MatrixView& x_val,
                         std::span<const double> y_val,
                         const SearchCallback& on_point = nullptr);

}  // namespace iotax::ml
