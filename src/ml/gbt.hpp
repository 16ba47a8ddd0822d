// Gradient-boosted regression trees — the library's XGBoost stand-in.
//
// Second-order boosting on squared loss with L2 leaf regularisation,
// learning-rate shrinkage, per-tree row subsampling and column
// subsampling; split finding uses quantile-binned histograms (XGBoost's
// `hist` method) so training stays fast on one core. These are the four
// hyperparameters the paper tunes exhaustively in §VI.B.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/ml/binning.hpp"
#include "src/ml/kernels/forest.hpp"
#include "src/ml/model.hpp"
#include "src/util/rng.hpp"

namespace iotax::ml {

/// Training objective: squared log error (the default regression loss)
/// or pinball/quantile loss, which turns the model into a conditional
/// quantile estimator — pairs of (alpha, 1-alpha) models give per-job
/// prediction intervals, the operator-facing complement to the global
/// noise bands of litmus 5.
enum class GbtLoss { kSquaredError, kQuantile };

struct GbtParams {
  std::size_t n_estimators = 100;
  std::size_t max_depth = 6;
  GbtLoss loss = GbtLoss::kSquaredError;
  /// Target quantile for GbtLoss::kQuantile, in (0, 1).
  double quantile_alpha = 0.5;
  double learning_rate = 0.1;
  double reg_lambda = 1.0;        // L2 on leaf weights
  double min_child_weight = 1.0;  // min hessian sum per leaf
  double min_split_gain = 0.0;
  double subsample = 1.0;         // row fraction per tree
  double colsample = 1.0;         // feature fraction per tree
  std::size_t max_bins = 64;
  /// Optional per-feature bin budgets overriding max_bins (empty = use
  /// max_bins for all). Needed to give a start-time feature day-level
  /// resolution without paying that cost on every counter.
  std::vector<std::size_t> per_feature_bins;
  /// Stop adding trees when the fit_eval validation RMSE has not improved
  /// for this many rounds (0 disables; plain fit() ignores it).
  std::size_t early_stopping_rounds = 0;
  std::uint64_t seed = 17;

  void validate() const;
};

class GradientBoostedTrees final : public Regressor {
 public:
  explicit GradientBoostedTrees(GbtParams params = {});

  void fit(const data::MatrixView& x, std::span<const double> y) override;

  /// fit() reusing a pre-built binned view of `x`. The view must have
  /// been built from this exact matrix with this model's bin budgets
  /// (max_bins / per_feature_bins); hyperparameter searches use this to
  /// bin the training set once per search instead of once per candidate.
  void fit_binned(const data::MatrixView& x, std::span<const double> y,
                  const BinnedMatrix& binned);

  /// Fit with a validation set for early stopping: boosting stops once
  /// validation RMSE has not improved for early_stopping_rounds rounds,
  /// and the ensemble is truncated to the best round. With
  /// early_stopping_rounds == 0 this trains exactly like fit().
  void fit_eval(const data::MatrixView& x, std::span<const double> y,
                const data::MatrixView& x_val, std::span<const double> y_val);

  /// Warm-start continuation: append `extra_rounds` more boosting rounds
  /// on top of the fitted forest. Continuation is stateless — the call
  /// re-bins `x` under the model's bin budgets, replays the running
  /// predictions through predict() (same per-row, tree-order FP
  /// accumulation the cold fit produced) and replays the
  /// subsample/colsample RNG stream past the existing rounds — so for
  /// the same data and seed, fit(N) + fit_continue(x, y, M) is
  /// bit-identical to a cold fit with n_estimators == N + M, at any
  /// IOTAX_THREADS. Works on loaded checkpoints too (the saved params
  /// carry the seed). On new data the base score and earlier trees stay
  /// frozen and only the new rounds chase the new residuals. After a
  /// continuation the forest mixes trees built against different
  /// binnings, so fit-time code traversal (predict_codes) is dropped;
  /// predict() routes by raw thresholds and is unaffected. fit_eval's
  /// early stopping is a fit-time-only concern: continuation never
  /// trims, and continuing a trimmed model re-draws from the kept
  /// rounds.
  void fit_continue(const data::MatrixView& x, std::span<const double> y,
                    std::size_t extra_rounds) override;
  FitContinueInfo fit_continue_info() const override {
    return {true, "tree"};
  }

  std::vector<double> predict(const data::MatrixView& x) const override;

  /// predict() using only the first `n_trees` boosting rounds (clamped
  /// to the fitted count), routing raw rows by thresholds. Round t
  /// depends only on the rounds before it, so this is bit-identical to
  /// predict() on a model fitted with n_estimators == n_trees and the
  /// same seed; a search hands its winner's prefix family over this way
  /// instead of refitting it.
  std::vector<double> predict_prefix(const data::MatrixView& x,
                                     std::size_t n_trees) const;

  /// predict() for rows pre-encoded against the fit-time binning
  /// (BinnedMatrix::encode_all on the matrix this model was fitted
  /// with, or any input encoded by that same BinnedMatrix). Routing by
  /// code reaches the same leaf as routing the raw row by thresholds,
  /// so the result is bit-identical to predict(); searches encode a
  /// validation set once and score every candidate against it. Only
  /// valid on models fitted in this process — loaded models carry
  /// thresholds but not fit-time bin indices, and throw here.
  std::vector<double> predict_codes(std::span<const std::uint16_t> codes) const;

  /// predict_codes() using only the first `n_trees` boosting rounds
  /// (clamped to the fitted count). Because round t depends only on
  /// rounds before it, this is bit-identical to predict_codes() on a
  /// model fitted with n_estimators == n_trees and the same seed —
  /// hyperparameter searches fit the largest candidate of an
  /// n_estimators ladder once and score the rest as prefixes.
  std::vector<double> predict_codes_prefix(
      std::span<const std::uint16_t> codes, std::size_t n_trees) const;

  std::string name() const override;

  const GbtParams& params() const { return params_; }
  std::size_t n_trees() const { return trees_.size(); }
  std::size_t n_features() const override { return n_features_; }

  /// Gain-based feature importances (summed split gains), normalised to
  /// sum to 1; zero vector if the model is constant.
  std::vector<double> feature_importances() const;

  /// Serialize the fitted model as versioned text; read() restores a
  /// model whose predictions are bit-identical.
  void save(std::ostream& out) const override;
  static GradientBoostedTrees read(CheckpointReader& r);

 private:
  struct Node {
    int feature = -1;  // -1 marks a leaf
    double threshold = 0.0;
    /// Bin index of `threshold` in the fit-time BinnedMatrix; only valid
    /// during fit (not serialized, -1 on loaded models).
    int split_bin = -1;
    int left = -1;
    int right = -1;
    double value = 0.0;
  };
  struct Tree {
    std::vector<Node> nodes;
    double predict(std::span<const double> row) const;
    /// Route by fit-time bin codes: code <= split_bin goes left, exactly
    /// the comparison build_tree partitions with. Because
    /// code(r,f) <= b iff x(r,f) <= threshold(f,b), this returns the
    /// same value predict() would on the raw row, without gathering it.
    double predict_codes(std::span<const std::uint16_t> codes) const;
  };

  struct BuildScratch;
  struct Rounds;
  Tree build_tree(const BinnedMatrix& binned, std::span<const std::size_t> rows,
                  std::span<const std::size_t> features,
                  std::span<const double> grad, BuildScratch& scratch);
  /// One boosting round, shared by fit and fit_continue: gradients, the
  /// row/feature draw, build_tree, then the new tree is appended to
  /// trees_ and to `forest`, through which the running predictions are
  /// updated by code routing.
  void boost_round(const BinnedMatrix& binned, std::span<const double> y,
                   Rounds& rounds, kernels::PackedForest& forest);

  void fit_impl(const data::MatrixView& x, std::span<const double> y,
                const data::MatrixView& x_val, std::span<const double> y_val,
                const BinnedMatrix* binned);

  /// Relayout one tree into a PackedForest (the SoA batch-prediction
  /// layout).
  static void pack_tree(kernels::PackedForest& forest, const Tree& tree,
                        bool with_codes);
  /// Rebuild packed_ from trees_ after they change wholesale.
  void rebuild_packed();

  GbtParams params_;
  double base_score_ = 0.0;
  std::vector<Tree> trees_;
  // Breadth-first SoA relayout of trees_ for batch prediction; rebuilt
  // whenever trees_ changes (fit, read). Bit-identical to walking the
  // Tree nodes — see kernels::PackedForest.
  kernels::PackedForest packed_;
  std::size_t n_features_ = 0;
  std::vector<double> importance_;
  bool fitted_ = false;
  // True when trees_ carry valid fit-time split bins (fitted in this
  // process, not deserialized) and predict_codes may be used.
  bool has_split_bins_ = false;
};

}  // namespace iotax::ml
