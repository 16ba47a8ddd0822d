#include "src/stats/classification.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace iotax::stats {

namespace {

bool is_binary(double v) { return v == 0.0 || v == 1.0; }

}  // namespace

ConfusionCounts confusion_counts(std::span<const double> y_true,
                                 std::span<const double> y_pred) {
  if (y_true.empty() || y_true.size() != y_pred.size()) {
    throw std::invalid_argument("confusion_counts: size mismatch or empty");
  }
  ConfusionCounts c;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    if (!is_binary(y_true[i]) || !is_binary(y_pred[i])) {
      throw std::invalid_argument(
          "confusion_counts: labels must be exactly 0 or 1");
    }
    if (y_true[i] == 1.0) {
      y_pred[i] == 1.0 ? ++c.tp : ++c.fn;
    } else {
      y_pred[i] == 1.0 ? ++c.fp : ++c.tn;
    }
  }
  return c;
}

double accuracy(const ConfusionCounts& c) {
  return static_cast<double>(c.tp + c.tn) / static_cast<double>(c.total());
}

double precision(const ConfusionCounts& c) {
  const std::size_t denom = c.tp + c.fp;
  return denom == 0 ? 0.0
                    : static_cast<double>(c.tp) / static_cast<double>(denom);
}

double recall(const ConfusionCounts& c) {
  const std::size_t denom = c.tp + c.fn;
  return denom == 0 ? 0.0
                    : static_cast<double>(c.tp) / static_cast<double>(denom);
}

double f1_score(const ConfusionCounts& c) {
  const double p = precision(c);
  const double r = recall(c);
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double roc_auc(std::span<const double> y_true, std::span<const double> scores) {
  if (y_true.empty() || y_true.size() != scores.size()) {
    throw std::invalid_argument("roc_auc: size mismatch or empty");
  }
  std::size_t n_pos = 0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    if (!is_binary(y_true[i])) {
      throw std::invalid_argument("roc_auc: labels must be exactly 0 or 1");
    }
    if (!std::isfinite(scores[i])) {
      throw std::invalid_argument("roc_auc: non-finite score");
    }
    if (y_true[i] == 1.0) ++n_pos;
  }
  const std::size_t n = y_true.size();
  const std::size_t n_neg = n - n_pos;
  if (n_pos == 0 || n_neg == 0) {
    throw std::invalid_argument(
        "roc_auc: needs at least one positive and one negative label");
  }

  // Average-rank Mann-Whitney: sort by score, give every member of a tie
  // group the group's mean rank, and sum the positive ranks.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });
  double rank_sum_pos = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    // 1-based ranks i+1 .. j averaged over the tie group.
    const double avg_rank = 0.5 * static_cast<double>(i + 1 + j);
    for (std::size_t k = i; k < j; ++k) {
      if (y_true[order[k]] == 1.0) rank_sum_pos += avg_rank;
    }
    i = j;
  }
  const double u = rank_sum_pos - 0.5 * static_cast<double>(n_pos) *
                                      static_cast<double>(n_pos + 1);
  return u / (static_cast<double>(n_pos) * static_cast<double>(n_neg));
}

}  // namespace iotax::stats
