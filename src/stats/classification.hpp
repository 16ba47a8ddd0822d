// Binary-classification metrics for the burst-prediction workload.
//
// The regression metrics in ml/metrics.hpp speak log10 ratios; burst
// prediction ("will the next telemetry window exceed the bandwidth
// threshold?") needs the classification vocabulary instead: confusion
// counts, accuracy/precision/recall/F1 at a decision threshold, and
// threshold-free ranking quality via ROC AUC. Labels are doubles so the
// metrics consume model output (Dataset targets, Regressor::predict)
// directly, but every label must be exactly 0.0 or 1.0.
#pragma once

#include <cstddef>
#include <span>

namespace iotax::stats {

/// 2x2 confusion counts for binary labels (positive class = 1).
struct ConfusionCounts {
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t tn = 0;
  std::size_t fn = 0;

  std::size_t total() const { return tp + fp + tn + fn; }
};

/// Count the confusion cells. Both spans must be the same nonzero size
/// and contain only exact 0.0 / 1.0 values; anything else throws
/// std::invalid_argument.
ConfusionCounts confusion_counts(std::span<const double> y_true,
                                 std::span<const double> y_pred);

/// (tp + tn) / total.
double accuracy(const ConfusionCounts& c);
/// tp / (tp + fp); defined as 0 when the model predicts no positives.
double precision(const ConfusionCounts& c);
/// tp / (tp + fn); defined as 0 when there are no true positives.
double recall(const ConfusionCounts& c);
/// Harmonic mean of precision and recall; 0 when both are 0.
double f1_score(const ConfusionCounts& c);

/// Area under the ROC curve from real-valued scores (higher score =
/// more positive), computed as the Mann-Whitney rank statistic with
/// average ranks for tied scores — deterministic regardless of input
/// order. Requires at least one positive and one negative label; throws
/// std::invalid_argument otherwise (AUC is undefined for one class).
double roc_auc(std::span<const double> y_true, std::span<const double> scores);

}  // namespace iotax::stats
