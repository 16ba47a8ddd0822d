#include "src/taxonomy/litmus.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/ml/metrics.hpp"
#include "src/stats/descriptive.hpp"
#include "src/telemetry/cobalt.hpp"

namespace iotax::taxonomy {

AppBoundResult litmus_application_bound(const data::DatasetView& ds) {
  const auto sets = find_duplicate_sets(ds);
  if (sets.empty()) {
    throw std::invalid_argument(
        "litmus_application_bound: dataset has no duplicate sets");
  }
  AppBoundResult res;
  res.stats = duplicate_stats(ds, sets);
  auto errors = duplicate_errors(ds, sets);
  for (auto& e : errors) e = std::fabs(e);
  res.median_abs_error = stats::median(errors);
  res.mean_abs_error = stats::mean(errors);
  return res;
}

SystemBoundResult litmus_system_bound(double err_app_only,
                                      const data::MatrixView& x_train_timed,
                                      const data::MatrixView& x_test_timed,
                                      std::span<const double> y_train,
                                      std::span<const double> y_test,
                                      const ml::GbtParams& params) {
  if (y_train.empty() || y_test.empty()) {
    throw std::invalid_argument("litmus_system_bound: empty split side");
  }
  // Remembering the whole lifetime of I/O weather takes a bigger model
  // than app behaviour alone (§VII.A): more trees, and day-level bin
  // resolution on the start-time column (weather events last hours to
  // days; coarse quantile bins would average them away).
  ml::GbtParams golden = params;
  golden.n_estimators = std::max<std::size_t>(golden.n_estimators * 2, 128);
  golden.per_feature_bins.assign(x_train_timed.cols(), golden.max_bins);
  golden.per_feature_bins.back() = 2048;  // start time is the last column
  ml::GradientBoostedTrees model(golden);
  model.fit(x_train_timed, y_train);
  SystemBoundResult res;
  res.err_app_only = err_app_only;
  res.err_with_time =
      ml::median_abs_log_error(y_test, model.predict(x_test_timed));
  res.reduction_frac =
      res.err_app_only > 0.0
          ? (res.err_app_only - res.err_with_time) / res.err_app_only
          : 0.0;
  return res;
}

OodResult litmus_ood(std::span<const double> epistemic,
                     std::span<const double> abs_errors,
                     std::optional<double> eu_threshold, double shoulder_frac) {
  if (epistemic.size() != abs_errors.size() || epistemic.empty()) {
    throw std::invalid_argument("litmus_ood: bad input sizes");
  }
  if (shoulder_frac <= 0.0 || shoulder_frac >= 1.0) {
    throw std::invalid_argument("litmus_ood: shoulder_frac not in (0,1)");
  }
  const double total_error =
      std::accumulate(abs_errors.begin(), abs_errors.end(), 0.0);
  OodResult res;
  if (eu_threshold.has_value()) {
    res.eu_threshold = *eu_threshold;
  } else {
    // Inverse-cumulative-error shoulder: sort jobs by EU descending and
    // take the EU at which the running error share crosses shoulder_frac.
    std::vector<std::size_t> order(epistemic.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return epistemic[a] > epistemic[b];
    });
    double running = 0.0;
    res.eu_threshold = epistemic[order.front()] + 1.0;  // nothing flagged
    for (const std::size_t i : order) {
      running += abs_errors[i];
      if (running > shoulder_frac * total_error) {
        res.eu_threshold = epistemic[i];
        break;
      }
    }
  }
  res.is_ood.resize(epistemic.size());
  double ood_error = 0.0;
  for (std::size_t i = 0; i < epistemic.size(); ++i) {
    res.is_ood[i] = epistemic[i] >= res.eu_threshold;
    if (res.is_ood[i]) {
      ++res.n_ood;
      ood_error += abs_errors[i];
    }
  }
  res.frac_ood =
      static_cast<double>(res.n_ood) / static_cast<double>(epistemic.size());
  res.error_share_ood = total_error > 0.0 ? ood_error / total_error : 0.0;
  res.error_ratio = res.frac_ood > 0.0 && res.error_share_ood > 0.0
                        ? res.error_share_ood / res.frac_ood
                        : 0.0;
  return res;
}

NoiseBoundResult litmus_noise_bound(const data::DatasetView& ds, double dt_window,
                                    const std::vector<bool>* exclude) {
  auto all_sets = find_duplicate_sets(ds);
  if (exclude != nullptr) {
    if (exclude->size() != ds.size()) {
      throw std::invalid_argument("litmus_noise_bound: exclude size mismatch");
    }
    // Drop excluded rows from the sets, then re-prune.
    std::vector<DuplicateSet> kept;
    for (auto& s : all_sets) {
      DuplicateSet ns = s;
      ns.rows.clear();
      for (std::size_t r : s.rows) {
        if (!(*exclude)[r]) ns.rows.push_back(r);
      }
      if (ns.rows.size() >= 2) kept.push_back(std::move(ns));
    }
    all_sets = std::move(kept);
  }
  const auto concurrent = concurrent_subsets(ds, all_sets, dt_window);
  if (concurrent.size() < 3) {
    throw std::invalid_argument(
        "litmus_noise_bound: too few concurrent duplicate sets");
  }
  NoiseBoundResult res;
  res.n_sets = concurrent.size();
  std::size_t sets_of_two = 0;
  std::size_t sets_leq_six = 0;
  for (const auto& s : concurrent) {
    res.n_jobs += s.rows.size();
    if (s.rows.size() == 2) ++sets_of_two;
    if (s.rows.size() <= 6) ++sets_leq_six;
  }
  res.frac_sets_of_two =
      static_cast<double>(sets_of_two) / static_cast<double>(res.n_sets);
  res.frac_sets_leq_six =
      static_cast<double>(sets_leq_six) / static_cast<double>(res.n_sets);

  const auto errors = duplicate_errors(ds, concurrent);
  std::vector<double> abs_errors(errors.size());
  for (std::size_t i = 0; i < errors.size(); ++i) {
    abs_errors[i] = std::fabs(errors[i]);
  }
  res.median_abs_error = stats::median(abs_errors);
  res.normal_fit = stats::fit_normal(errors);
  res.t_fit = stats::fit_student_t(errors);
  res.t_preference =
      (res.t_fit.log_likelihood - res.normal_fit.log_likelihood) /
      static_cast<double>(errors.size());
  // Spread estimate: t-distribution variance when defined, else the
  // normal MLE; both already reflect the per-set Bessel correction.
  if (res.t_fit.df > 2.0) {
    res.sigma_log10 = std::sqrt(res.t_fit.scale * res.t_fit.scale *
                                res.t_fit.df / (res.t_fit.df - 2.0));
  } else {
    res.sigma_log10 = res.normal_fit.stddev;
  }
  res.band68_pct = (std::pow(10.0, res.sigma_log10) - 1.0) * 100.0;
  res.band95_pct = (std::pow(10.0, 1.959964 * res.sigma_log10) - 1.0) * 100.0;
  return res;
}

std::vector<DtBin> dt_binned_distributions(const data::DatasetView& ds,
                                           std::span<const double> edges) {
  if (edges.size() < 2) {
    throw std::invalid_argument("dt_binned_distributions: need >= 2 edges");
  }
  const auto sets = find_duplicate_sets(ds);
  const auto pairs = duplicate_pairs(ds, sets);
  std::vector<DtBin> bins(edges.size() - 1);
  std::vector<std::vector<double>> values(bins.size());
  std::vector<std::vector<double>> weights(bins.size());
  for (std::size_t b = 0; b < bins.size(); ++b) {
    bins[b].dt_lo = edges[b];
    bins[b].dt_hi = edges[b + 1];
  }
  for (const auto& p : pairs) {
    auto it = std::upper_bound(edges.begin(), edges.end(), p.dt);
    long b = std::distance(edges.begin(), it) - 1;
    b = std::clamp(b, 0L, static_cast<long>(bins.size()) - 1);
    values[static_cast<std::size_t>(b)].push_back(p.dphi);
    weights[static_cast<std::size_t>(b)].push_back(p.weight);
  }
  for (std::size_t b = 0; b < bins.size(); ++b) {
    bins[b].n_pairs = values[b].size();
    if (values[b].empty()) continue;
    bins[b].p05 = stats::weighted_quantile(values[b], weights[b], 0.05);
    bins[b].p25 = stats::weighted_quantile(values[b], weights[b], 0.25);
    bins[b].median = stats::weighted_quantile(values[b], weights[b], 0.5);
    bins[b].p75 = stats::weighted_quantile(values[b], weights[b], 0.75);
    bins[b].p95 = stats::weighted_quantile(values[b], weights[b], 0.95);
    bins[b].stddev =
        values[b].size() >= 2 ? stats::stddev(values[b]) : 0.0;
  }
  return bins;
}

}  // namespace iotax::taxonomy
