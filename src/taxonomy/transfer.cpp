#include "src/taxonomy/transfer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "src/data/scaler.hpp"
#include "src/data/split.hpp"
#include "src/ml/metrics.hpp"
#include "src/stats/classification.hpp"

namespace iotax::taxonomy {

namespace {

double nearest_centroid_dist(std::span<const double> z,
                             const data::Matrix& centroids) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centroids.rows(); ++c) {
    const auto row = centroids.row(c);
    double acc = 0.0;
    for (std::size_t i = 0; i < z.size(); ++i) {
      const double d = z[i] - row[i];
      acc += d * d;
    }
    best = std::min(best, acc);
  }
  return std::sqrt(best);
}

double quantile_sorted(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

void TransferParams::validate() const {
  gbt.validate();
  kmeans.validate();
  if (holdout_frac <= 0.0 || holdout_frac >= 1.0) {
    throw std::invalid_argument("TransferParams: holdout_frac not in (0,1)");
  }
  if (ood_quantile <= 0.0 || ood_quantile >= 1.0) {
    throw std::invalid_argument("TransferParams: ood_quantile not in (0,1)");
  }
  if (feature_sets.empty()) {
    throw std::invalid_argument("TransferParams: empty feature_sets");
  }
  if (drift_top_k == 0) {
    throw std::invalid_argument("TransferParams: drift_top_k == 0");
  }
}

TransferReport run_transfer_litmus(const data::Dataset& train_ds,
                                   const data::Dataset& test_ds,
                                   const TransferParams& params) {
  params.validate();
  if (train_ds.size() < 20 || test_ds.size() < 20) {
    throw std::invalid_argument("run_transfer_litmus: dataset too small");
  }

  TransferReport report;
  report.train_system = train_ds.system_name;
  report.test_system = test_ds.system_name;

  // Deployment-shaped split of A: train on the front of the timeline,
  // hold out the tail for the in-cluster reference error.
  const auto n_holdout = std::max<std::size_t>(
      1, static_cast<std::size_t>(params.holdout_frac *
                                  static_cast<double>(train_ds.size())));
  const std::size_t n_train = train_ds.size() - n_holdout;
  if (n_train < 10) {
    throw std::invalid_argument("run_transfer_litmus: training split empty");
  }
  const auto split = data::split_by_start_time(train_ds, n_train);
  const std::vector<std::size_t>& train_rows = split.train;
  const std::vector<std::size_t>& holdout_rows = split.test;
  report.n_train = train_rows.size();
  report.n_holdout = holdout_rows.size();
  report.n_test = test_ds.size();

  const data::DatasetView train_view(train_ds);
  const data::DatasetView test_view(test_ds);
  const auto x_train = feature_matrix(train_view, params.feature_sets,
                                      train_rows);
  const auto x_holdout = feature_matrix(train_view, params.feature_sets,
                                        holdout_rows);
  const auto x_test = feature_matrix(test_view, params.feature_sets);
  const auto y_train = targets(train_view, train_rows);
  const auto y_holdout = targets(train_view, holdout_rows);
  const auto y_test = targets(test_view);

  ml::GradientBoostedTrees model(params.gbt);
  model.fit(x_train, y_train);

  const auto pred_holdout = model.predict(x_holdout);
  const auto pred_test = model.predict(x_test);
  report.in_cluster_error = ml::median_abs_log_error(y_holdout, pred_holdout);
  report.transfer_error = ml::median_abs_log_error(y_test, pred_test);
  report.gap = report.transfer_error - report.in_cluster_error;

  // Oracle attribution: peel one ground-truth component at a time off
  // the targets and watch the median error fall. The drop credited to
  // each class is its share; the floor left after removing weather,
  // contention and noise is the model-vs-application residual (which is
  // where unseen/OoD apps and the foreign platform response live).
  const auto ablation_shares = [](std::span<const double> y_in,
                                  std::span<const double> pred,
                                  const std::vector<data::JobMeta>& meta,
                                  std::span<const std::size_t> rows) {
    const std::size_t n = y_in.size();
    std::vector<double> y(y_in.begin(), y_in.end());
    const auto meta_at = [&](std::size_t i) -> const data::JobMeta& {
      return rows.empty() ? meta[i] : meta[rows[i]];
    };
    const double err0 = ml::median_abs_log_error(y, pred);
    for (std::size_t i = 0; i < n; ++i) y[i] -= meta_at(i).log_fn;
    const double err1 = ml::median_abs_log_error(y, pred);
    for (std::size_t i = 0; i < n; ++i) y[i] -= meta_at(i).log_fl;
    const double err2 = ml::median_abs_log_error(y, pred);
    for (std::size_t i = 0; i < n; ++i) y[i] -= meta_at(i).log_fg;
    const double err3 = ml::median_abs_log_error(y, pred);
    TransferShares s;
    if (err0 <= 0.0) return s;
    s.noise = std::max(0.0, err0 - err1);
    s.contention = std::max(0.0, err1 - err2);
    s.system = std::max(0.0, err2 - err3);
    s.application = std::max(0.0, err3);
    const double total = s.noise + s.contention + s.system + s.application;
    if (total > 0.0) {
      s.noise /= total;
      s.contention /= total;
      s.system /= total;
      s.application /= total;
    }
    return s;
  };
  report.oracle = ablation_shares(y_test, pred_test, test_ds.meta, {});
  report.oracle_in_cluster =
      ablation_shares(y_holdout, pred_holdout, train_ds.meta, holdout_rows);

  // Ground-truth OoD labels: B rows of applications A's training period
  // never saw (with a shared catalog, app ids are comparable).
  std::unordered_set<std::uint64_t> train_apps;
  for (const std::size_t r : train_rows) {
    train_apps.insert(train_ds.meta[r].app_id);
  }
  std::vector<double> ood_truth(test_ds.size(), 0.0);
  std::size_t n_ood = 0;
  for (std::size_t i = 0; i < test_ds.size(); ++i) {
    if (train_apps.find(test_ds.meta[i].app_id) == train_apps.end()) {
      ood_truth[i] = 1.0;
      ++n_ood;
    }
  }
  report.ood_fraction_truth =
      static_cast<double>(n_ood) / static_cast<double>(test_ds.size());

  // Deployable estimate: distance to the A-trained centroids in the
  // same signed-log1p + standardised space KMeans clusters in.
  {
    ml::KMeans km(params.kmeans);
    km.fit(x_train);
    data::StandardScaler scaler;
    scaler.fit_log1p(x_train);
    const auto z_train = scaler.transform_log1p(x_train);
    const auto z_test = scaler.transform_log1p(x_test);
    std::vector<double> d_train(z_train.rows());
    for (std::size_t r = 0; r < z_train.rows(); ++r) {
      d_train[r] = nearest_centroid_dist(z_train.row(r), km.centroids());
    }
    const double cut = quantile_sorted(d_train, params.ood_quantile);
    std::vector<double> d_test(z_test.rows());
    std::size_t flagged = 0;
    for (std::size_t r = 0; r < z_test.rows(); ++r) {
      d_test[r] = nearest_centroid_dist(z_test.row(r), km.centroids());
      if (d_test[r] > cut) ++flagged;
    }
    report.ood_fraction_est =
        static_cast<double>(flagged) / static_cast<double>(z_test.rows());
    report.ood_auc = (n_ood == 0 || n_ood == test_ds.size())
                         ? 0.5
                         : stats::roc_auc(ood_truth, d_test);
  }

  // What moved: per-feature KS between A-train and B over the model's
  // own columns.
  {
    const auto cols = feature_columns(train_view, params.feature_sets);
    const auto a_sel = train_ds.features.select(cols).take(train_rows);
    const auto combined = a_sel.vcat(test_ds.features.select(cols));
    std::vector<std::size_t> ref(a_sel.n_rows());
    std::iota(ref.begin(), ref.end(), std::size_t{0});
    std::vector<std::size_t> recent(test_ds.size());
    std::iota(recent.begin(), recent.end(), a_sel.n_rows());
    report.top_drift =
        feature_drift(combined, ref, recent, params.drift_top_k);
  }

  return report;
}

std::string render_transfer_report(const TransferReport& report) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf), "transfer litmus: %s -> %s\n",
                report.train_system.c_str(), report.test_system.c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  rows: train=%zu holdout=%zu test=%zu\n", report.n_train,
                report.n_holdout, report.n_test);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  error: in-cluster=%.4f transfer=%.4f gap=%+.4f (log10)\n",
                report.in_cluster_error, report.transfer_error, report.gap);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  oracle shares (transfer):   application=%.3f "
                "system=%.3f contention=%.3f noise=%.3f\n",
                report.oracle.application, report.oracle.system,
                report.oracle.contention, report.oracle.noise);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  oracle shares (in-cluster): application=%.3f "
                "system=%.3f contention=%.3f noise=%.3f\n",
                report.oracle_in_cluster.application,
                report.oracle_in_cluster.system,
                report.oracle_in_cluster.contention,
                report.oracle_in_cluster.noise);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  ood: truth=%.4f est=%.4f auc=%.3f\n",
                report.ood_fraction_truth, report.ood_fraction_est,
                report.ood_auc);
  out += buf;
  out += "  top drifted features (KS):\n";
  for (const auto& d : report.top_drift) {
    std::snprintf(buf, sizeof(buf), "    %-28s %.3f\n", d.feature.c_str(),
                  d.ks);
    out += buf;
  }
  return out;
}

}  // namespace iotax::taxonomy
