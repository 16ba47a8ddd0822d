#include "src/ml/search.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/parallel.hpp"

namespace iotax::ml {

namespace {

// All candidates of one search share the base params' bin budgets, so
// the training matrix is binned once per search (not once per
// candidate) and every trial trains against the shared view.
BinnedMatrix bin_for_search(const GbtParams& base, const data::MatrixView& x) {
  return base.per_feature_bins.empty() ? BinnedMatrix(x, base.max_bins)
                                       : BinnedMatrix(x, base.per_feature_bins);
}

// The validation matrix encoded against the shared search binning:
// candidates all train on `binned`, so scoring them routes by these
// codes (bit-identical to predicting the raw rows, one strided read
// per value for the whole search instead of per trial). The buffer
// follows the out-of-core spill policy (EncodedCodes), so a large
// validation side never pins an O(rows) heap block.
using EncodedVal = EncodedCodes;

// True when the two candidates run the identical fit except for how
// many boosting rounds it keeps.
bool same_except_trees(const GbtParams& a, const GbtParams& b) {
  return a.max_depth == b.max_depth && a.loss == b.loss &&
         a.quantile_alpha == b.quantile_alpha &&
         a.learning_rate == b.learning_rate &&
         a.reg_lambda == b.reg_lambda &&
         a.min_child_weight == b.min_child_weight &&
         a.min_split_gain == b.min_split_gain &&
         a.subsample == b.subsample && a.colsample == b.colsample &&
         a.max_bins == b.max_bins &&
         a.per_feature_bins == b.per_feature_bins &&
         a.early_stopping_rounds == b.early_stopping_rounds &&
         a.seed == b.seed;
}

// The best group model so far, offered by the search threads as their
// candidates are scored. Candidates are ordered by (val_error, index),
// the order the serial strict-< fold in candidate order selects by, so
// the kept model is the fold winner's at any thread count; a NaN or
// infinite error never wins the fold and is never kept. Only the best
// model so far outlives its group's trials.
class BestModel {
 public:
  void offer(double val_error, std::size_t index,
             std::shared_ptr<const GradientBoostedTrees> model) {
    if (!(val_error < std::numeric_limits<double>::infinity())) return;
    const std::lock_guard<std::mutex> lock(mu_);
    if (model_ == nullptr || val_error < val_error_ ||
        (val_error == val_error_ && index < index_)) {
      val_error_ = val_error;
      index_ = index;
      model_ = std::move(model);
    }
  }
  std::shared_ptr<const GradientBoostedTrees> take() {
    return std::move(model_);
  }

 private:
  std::mutex mu_;
  double val_error_ = 0.0;
  std::size_t index_ = 0;
  std::shared_ptr<const GradientBoostedTrees> model_;
};

// Evaluate pre-generated candidates concurrently (each trial writes its
// own slot), then fold serially in candidate order so `on_point`
// callback order and the strict-< first-point-wins tie-breaking match
// the sequential loop bit for bit.
//
// Candidates that differ only in n_estimators are fitted once, not once
// each: boosting round t depends only on rounds before it (fit_binned
// disables early stopping, and the per-round rng stream is a function
// of the shared seed alone), so round t of the largest candidate builds
// the identical tree to round t of every smaller one. The group fits at
// its largest tree count and each member is scored against a tree
// prefix of that one model — per-candidate val errors, and therefore
// the selected point, are bit-identical to fitting every candidate
// separately, at a fraction of the tree builds. A grid with an
// n_estimators ladder of {16,32,64,128} pays for 128 trees per depth
// instead of 240. The winning family's model is handed back with the
// result (SearchResult::best_model).
SearchResult evaluate_all(const std::vector<GbtParams>& points,
                          const data::MatrixView& x_train,
                          std::span<const double> y_train,
                          const data::MatrixView& x_val,
                          std::span<const double> y_val,
                          const SearchCallback& on_point) {
  points.front().validate();  // surface bad shared params before binning
  const BinnedMatrix binned = bin_for_search(points.front(), x_train);
  const EncodedVal val = binned.encode_all_ooc(x_val);

  // Group candidate indices into prefix families, members sorted by
  // ascending n_estimators.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<bool> claimed(points.size(), false);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (claimed[i]) continue;
    std::vector<std::size_t> members{i};
    claimed[i] = true;
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (!claimed[j] && same_except_trees(points[i], points[j])) {
        members.push_back(j);
        claimed[j] = true;
      }
    }
    std::stable_sort(members.begin(), members.end(),
                     [&](std::size_t a, std::size_t b) {
                       return points[a].n_estimators < points[b].n_estimators;
                     });
    groups.push_back(std::move(members));
  }

  std::vector<SearchPoint> evaluated(points.size());
  BestModel best_model;
  util::parallel_for(groups.size(), [&](std::size_t g) {
    const auto& members = groups[g];
    const auto model =
        std::make_shared<GradientBoostedTrees>(points[members.back()]);
    {
      obs::SpanGuard fit_span("search.fit");
      obs::span_arg("group_size", static_cast<double>(members.size()));
      model->fit_binned(x_train, y_train, binned);
    }
    for (const std::size_t idx : members) {
      obs::SpanGuard trial_span("search.trial");
      IOTAX_OBS_COUNT("search.trials", 1);
      SearchPoint point;
      point.params = points[idx];
      point.val_error = median_abs_log_error(
          y_val,
          model->predict_codes_prefix(val.codes(), points[idx].n_estimators));
      obs::span_arg("val_error", point.val_error);
      best_model.offer(point.val_error, idx, model);
      evaluated[idx] = std::move(point);
    }
  });
  SearchResult result;
  result.best.val_error = std::numeric_limits<double>::infinity();
  result.evaluated.reserve(points.size());
  for (auto& point : evaluated) {
    if (on_point) on_point(point);
    if (point.val_error < result.best.val_error) result.best = point;
    result.evaluated.push_back(std::move(point));
  }
  result.best_model = best_model.take();
  return result;
}

}  // namespace

SearchResult grid_search(const GbtGrid& grid, const data::MatrixView& x_train,
                         std::span<const double> y_train,
                         const data::MatrixView& x_val,
                         std::span<const double> y_val,
                         const SearchCallback& on_point) {
  if (grid.n_estimators.empty() || grid.max_depth.empty() ||
      grid.subsample.empty() || grid.colsample.empty()) {
    throw std::invalid_argument("grid_search: empty grid axis");
  }
  IOTAX_TRACE_SPAN("search.grid");
  std::vector<GbtParams> points;
  for (const auto trees : grid.n_estimators) {
    for (const auto depth : grid.max_depth) {
      for (const double sub : grid.subsample) {
        for (const double col : grid.colsample) {
          GbtParams p = grid.base;
          p.n_estimators = trees;
          p.max_depth = depth;
          p.subsample = sub;
          p.colsample = col;
          points.push_back(p);
        }
      }
    }
  }
  return evaluate_all(points, x_train, y_train, x_val, y_val, on_point);
}

}  // namespace iotax::ml
