// K-means clustering, the per-cluster error breakdown, quantile GBT, and
// feature-level drift detection.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/ml/gbt.hpp"
#include "src/ml/kmeans.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/taxonomy/clusters.hpp"
#include "src/taxonomy/drift.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

// Three well-separated blobs on wildly different scales (log1p handles
// the scale mix, as with real counters).
data::Matrix blobs(std::size_t per_blob, std::uint64_t seed) {
  util::Rng rng(seed);
  data::Matrix x(per_blob * 3, 2);
  for (std::size_t b = 0; b < 3; ++b) {
    const double cx = b == 0 ? 0.0 : (b == 1 ? 1e3 : 1e7);
    for (std::size_t i = 0; i < per_blob; ++i) {
      const std::size_t r = b * per_blob + i;
      x(r, 0) = cx * rng.uniform(0.8, 1.2) + rng.normal(0.0, 0.01);
      x(r, 1) = static_cast<double>(b) + rng.normal(0.0, 0.05);
    }
  }
  return x;
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  const auto x = blobs(100, 1);
  ml::KMeansParams params;
  params.k = 3;
  ml::KMeans km(params);
  km.fit(x);
  // Each blob must map to a single cluster (purity 1 per blob).
  for (std::size_t b = 0; b < 3; ++b) {
    std::set<std::size_t> labels;
    for (std::size_t i = 0; i < 100; ++i) {
      labels.insert(km.labels()[b * 100 + i]);
    }
    EXPECT_EQ(labels.size(), 1u) << "blob " << b;
  }
  // And the three blobs use three distinct clusters.
  std::set<std::size_t> all(km.labels().begin(), km.labels().end());
  EXPECT_EQ(all.size(), 3u);
}

TEST(KMeans, PredictMatchesTrainingAssignments) {
  const auto x = blobs(60, 2);
  ml::KMeansParams params;
  params.k = 3;
  ml::KMeans km(params);
  km.fit(x);
  const auto again = km.predict(x);
  EXPECT_EQ(again, km.labels());
}

TEST(KMeans, DeterministicAndValidates) {
  const auto x = blobs(50, 3);
  ml::KMeansParams params;
  params.k = 4;
  ml::KMeans a(params);
  ml::KMeans b(params);
  a.fit(x);
  b.fit(x);
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_DOUBLE_EQ(a.inertia(), b.inertia());

  params.k = 1;
  EXPECT_THROW(ml::KMeans{params}, std::invalid_argument);
  ml::KMeans unfit;
  EXPECT_THROW(unfit.predict(x), std::logic_error);
}

TEST(KMeans, MoreClustersLowerInertia) {
  const auto x = blobs(60, 4);
  ml::KMeansParams p2;
  p2.k = 2;
  ml::KMeansParams p6;
  p6.k = 6;
  ml::KMeans a(p2);
  ml::KMeans b(p6);
  a.fit(x);
  b.fit(x);
  EXPECT_LT(b.inertia(), a.inertia());
}

TEST(ClusterBreakdown, AttributesErrorsPerCluster) {
  auto cfg = sim::tiny_system(81);
  cfg.workload.n_jobs = 1500;
  const auto res = sim::simulate(cfg);
  const auto& ds = res.dataset;
  // Synthetic "model": predicts the true fa, so its error is fg+fl+fn.
  std::vector<double> errors(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    errors[i] = ds.meta[i].log_fa - ds.target[i];
  }
  ml::KMeansParams params;
  params.k = 5;
  const auto breakdown = taxonomy::cluster_error_breakdown(
      ds, errors, {taxonomy::FeatureSet::kPosix}, params);
  EXPECT_LE(breakdown.clusters.size(), 5u);
  EXPECT_GE(breakdown.clusters.size(), 2u);
  std::size_t total = 0;
  for (const auto& c : breakdown.clusters) {
    total += c.n_jobs;
    EXPECT_GE(c.n_apps, 1u);
    EXPECT_FALSE(c.defining_feature.empty());
    EXPECT_GE(c.median_abs_error, 0.0);
  }
  EXPECT_EQ(total, ds.size());
  // Sorted by error descending.
  for (std::size_t i = 1; i < breakdown.clusters.size(); ++i) {
    EXPECT_GE(breakdown.clusters[i - 1].median_abs_error,
              breakdown.clusters[i].median_abs_error);
  }
  const auto text = taxonomy::render_cluster_breakdown(breakdown);
  EXPECT_NE(text.find("defining feature"), std::string::npos);
}

TEST(QuantileGbt, EstimatesConditionalQuantiles) {
  // Heteroscedastic data: noise scale depends on x.
  util::Rng rng(5);
  const std::size_t n = 4000;
  data::Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(0.0, 1.0);
    y[i] = x(i, 0) + (0.05 + 0.3 * x(i, 0)) * rng.normal();
  }
  ml::GbtParams lo_p;
  lo_p.loss = ml::GbtLoss::kQuantile;
  lo_p.quantile_alpha = 0.1;
  lo_p.n_estimators = 150;
  lo_p.max_depth = 3;
  lo_p.learning_rate = 0.1;
  ml::GbtParams hi_p = lo_p;
  hi_p.quantile_alpha = 0.9;
  ml::GradientBoostedTrees lo(lo_p);
  ml::GradientBoostedTrees hi(hi_p);
  lo.fit(x, y);
  hi.fit(x, y);
  const auto lo_pred = lo.predict(x);
  const auto hi_pred = hi.predict(x);
  std::size_t covered = 0;
  double width_lo_x = 0.0;
  double width_hi_x = 0.0;
  std::size_t n_lo = 0;
  std::size_t n_hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    covered += (y[i] >= lo_pred[i] && y[i] <= hi_pred[i]) ? 1 : 0;
    const double width = hi_pred[i] - lo_pred[i];
    EXPECT_GE(width, -0.05);
    if (x(i, 0) < 0.3) {
      width_lo_x += width;
      ++n_lo;
    } else if (x(i, 0) > 0.7) {
      width_hi_x += width;
      ++n_hi;
    }
  }
  const double coverage = static_cast<double>(covered) / n;
  EXPECT_GT(coverage, 0.70);  // nominal 80%
  EXPECT_LT(coverage, 0.92);
  // Intervals widen where the noise is larger.
  EXPECT_GT(width_hi_x / n_hi, 1.5 * width_lo_x / n_lo);
}

TEST(QuantileGbt, RejectsBadAlphaAndSerializes) {
  ml::GbtParams p;
  p.loss = ml::GbtLoss::kQuantile;
  p.quantile_alpha = 1.0;
  EXPECT_THROW(ml::GradientBoostedTrees{p}, std::invalid_argument);

  p.quantile_alpha = 0.75;
  p.n_estimators = 10;
  util::Rng rng(6);
  data::Matrix x(100, 1);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.uniform(0.0, 1.0);
    y[i] = x(i, 0) + rng.normal(0.0, 0.1);
  }
  ml::GradientBoostedTrees model(p);
  model.fit(x, y);
  std::stringstream buf;
  model.save(buf);
  const auto loaded_model = ml::Regressor::load(buf);
  const auto& loaded =
      dynamic_cast<const ml::GradientBoostedTrees&>(*loaded_model);
  EXPECT_EQ(loaded.params().loss, ml::GbtLoss::kQuantile);
  EXPECT_DOUBLE_EQ(loaded.params().quantile_alpha, 0.75);
  const auto a = model.predict(x);
  const auto b = loaded.predict(x);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
}

TEST(FeatureDrift, RanksShiftedFeatureFirst) {
  data::Table t({"stable", "shifted", "noisy"});
  util::Rng rng(7);
  for (std::size_t i = 0; i < 600; ++i) {
    const bool recent = i >= 300;
    t.add_row(std::vector<double>{
        rng.normal(0.0, 1.0),
        rng.normal(recent ? 3.0 : 0.0, 1.0),  // clear mean shift
        rng.normal(0.0, 5.0)});
  }
  std::vector<std::size_t> ref(300);
  std::vector<std::size_t> rec(300);
  for (std::size_t i = 0; i < 300; ++i) {
    ref[i] = i;
    rec[i] = 300 + i;
  }
  const auto drifts = taxonomy::feature_drift(t, ref, rec, 3);
  ASSERT_EQ(drifts.size(), 3u);
  EXPECT_EQ(drifts[0].feature, "shifted");
  EXPECT_GT(drifts[0].ks, 0.6);
  EXPECT_LT(drifts[1].ks, 0.2);
}

TEST(FeatureDrift, TopKLimitsOutput) {
  data::Table t({"a", "b", "c", "d"});
  util::Rng rng(8);
  for (std::size_t i = 0; i < 100; ++i) {
    t.add_row(std::vector<double>{rng.normal(), rng.normal(), rng.normal(),
                                  rng.normal()});
  }
  std::vector<std::size_t> ref = {0, 1, 2, 3, 4};
  std::vector<std::size_t> rec = {5, 6, 7, 8, 9};
  EXPECT_EQ(taxonomy::feature_drift(t, ref, rec, 2).size(), 2u);
  EXPECT_THROW(taxonomy::feature_drift(t, {}, rec), std::invalid_argument);
}

}  // namespace
}  // namespace iotax
