// Binary classifier for the burst-prediction workload, built as a thin
// calibrated decision layer over the GBT regressor rather than a new
// boosting objective: the booster fits {0,1} labels under squared loss
// (probability regression), and the classifier decides labels either by
// a raw-score threshold or through a Platt-calibrated sigmoid. Keeping
// the booster untouched preserves the bit-identity contracts of the
// histogram/forest kernels; the calibration layer is a handful of
// serial, deterministic Newton steps.
//
// BurstClassifier is a Regressor — predict() returns the positive-class
// probability — so the whole persistence/registry/serve stack (magic
// "iotax-classifier", `iotax serve`, ModelRegistry) carries classifier
// checkpoints with zero new plumbing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/ml/gbt.hpp"
#include "src/ml/model.hpp"

namespace iotax::ml {

/// How scores become labels.
///   kThreshold — label = (raw booster score >= threshold); probability
///                is the score clamped to [0, 1]. No calibration state.
///   kLogistic  — probability = sigmoid(a*score + b) with (a, b) fitted
///                on the training scores by Platt's method; label =
///                (probability >= threshold), decided in score space so
///                the decision is exactly monotone in the score.
enum class ClassifierKind { kThreshold, kLogistic };

struct ClassifierParams {
  ClassifierKind kind = ClassifierKind::kLogistic;
  /// Decision threshold: on the raw score for kThreshold (any finite
  /// value), on the calibrated probability for kLogistic (in (0, 1)).
  double threshold = 0.5;
  /// Underlying booster configuration (loss must stay kSquaredError —
  /// the labels are the regression targets).
  GbtParams gbt;
  /// Newton iteration cap for the Platt fit (kLogistic only).
  std::size_t platt_max_iters = 100;

  void validate() const;
};

class BurstClassifier final : public Regressor {
 public:
  explicit BurstClassifier(ClassifierParams params = {});

  /// Train on binary targets: every y value must be exactly 0.0 or 1.0.
  void fit(const data::MatrixView& x, std::span<const double> y) override;

  /// Positive-class probability per row, in [0, 1].
  std::vector<double> predict(const data::MatrixView& x) const override;

  /// Hard 0/1 labels per row under the configured kind and threshold.
  std::vector<double> predict_labels(const data::MatrixView& x) const;

  /// Continuation is deliberately unsupported: appending boosting rounds
  /// would silently stale the Platt layer fitted to the old scores, so
  /// the family reports {supported = false} and fit_continue throws via
  /// the base default. The equivalence suite pins this truthfulness.
  FitContinueInfo fit_continue_info() const override { return {}; }

  std::string name() const override;
  std::size_t n_features() const override { return gbt_.n_features(); }

  void save(std::ostream& out) const override;
  /// Reads the decision layer, then a nested "iotax-gbt" section.
  static BurstClassifier read(CheckpointReader& r);

  const ClassifierParams& params() const { return params_; }
  /// Platt slope/intercept (kLogistic, fitted); 1/0 otherwise.
  double platt_a() const { return platt_a_; }
  double platt_b() const { return platt_b_; }
  const GradientBoostedTrees& booster() const { return gbt_; }

 private:
  ClassifierParams params_;
  GradientBoostedTrees gbt_;
  double platt_a_ = 1.0;
  double platt_b_ = 0.0;
  bool fitted_ = false;
};

}  // namespace iotax::ml
