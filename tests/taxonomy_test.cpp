#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/ml/metrics.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/descriptive.hpp"
#include "src/taxonomy/duplicates.hpp"
#include "src/taxonomy/feature_sets.hpp"
#include "src/taxonomy/litmus.hpp"
#include "src/taxonomy/pipeline.hpp"

namespace iotax {
namespace {

// A hand-built dataset with known duplicate structure.
data::Dataset toy_dataset() {
  data::Dataset ds;
  ds.system_name = "toy";
  data::Table t({"f"});
  const auto add = [&](std::uint64_t app, std::uint64_t cfg, double start,
                       double target) {
    t.add_row(std::vector<double>{static_cast<double>(cfg)});
    data::JobMeta m;
    m.job_id = ds.meta.size();
    m.app_id = app;
    m.config_id = cfg;
    m.start_time = start;
    m.end_time = start + 10.0;
    m.log_fa = target;  // attribute everything to fa for simplicity
    ds.meta.push_back(m);
    ds.target.push_back(target);
  };
  // Set A: 3 duplicates of (app 1, cfg 1), spread over time.
  add(1, 1, 0.0, 2.0);
  add(1, 1, 100.0, 2.2);
  add(1, 1, 200.0, 1.8);
  // Set B: 2 concurrent duplicates of (app 2, cfg 7).
  add(2, 7, 50.0, 3.0);
  add(2, 7, 50.4, 3.1);
  // Unique jobs.
  add(3, 9, 10.0, 1.0);
  add(4, 11, 20.0, 1.5);
  ds.features = t;
  return ds;
}

TEST(Duplicates, FindsSetsOfTwoOrMore) {
  const auto ds = toy_dataset();
  const auto sets = taxonomy::find_duplicate_sets(ds);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].rows.size(), 3u);
  EXPECT_NEAR(sets[0].mean_target, 2.0, 1e-12);
  EXPECT_EQ(sets[1].rows.size(), 2u);
  EXPECT_NEAR(sets[1].mean_target, 3.05, 1e-12);
}

TEST(Duplicates, StatsMatchPaperDefinitions) {
  const auto ds = toy_dataset();
  const auto sets = taxonomy::find_duplicate_sets(ds);
  const auto stats = taxonomy::duplicate_stats(ds, sets);
  EXPECT_EQ(stats.n_sets, 2u);
  EXPECT_EQ(stats.n_duplicate_jobs, 5u);
  EXPECT_NEAR(stats.duplicate_fraction, 5.0 / 7.0, 1e-12);
  EXPECT_EQ(stats.largest_set, 3u);
}

TEST(Duplicates, ErrorsApplyBesselCorrection) {
  const auto ds = toy_dataset();
  const auto sets = taxonomy::find_duplicate_sets(ds);
  const auto errors = taxonomy::duplicate_errors(ds, sets);
  ASSERT_EQ(errors.size(), 5u);
  // Set A: raw deviations 0, +0.2, -0.2; Bessel factor sqrt(3/2).
  EXPECT_NEAR(errors[0], 0.0, 1e-12);
  EXPECT_NEAR(errors[1], 0.2 * std::sqrt(1.5), 1e-12);
  EXPECT_NEAR(errors[2], -0.2 * std::sqrt(1.5), 1e-12);
  // Set B: deviations -0.05/+0.05; factor sqrt(2).
  EXPECT_NEAR(errors[3], -0.05 * std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(errors[4], 0.05 * std::sqrt(2.0), 1e-12);
}

TEST(Duplicates, PairsWeightedPerSet) {
  const auto ds = toy_dataset();
  const auto sets = taxonomy::find_duplicate_sets(ds);
  const auto pairs = taxonomy::duplicate_pairs(ds, sets);
  ASSERT_EQ(pairs.size(), 3u + 1u);  // C(3,2) + C(2,2)
  double weight_a = 0.0;
  double weight_b = 0.0;
  for (const auto& p : pairs) {
    if (ds.meta[p.row_a].app_id == 1) {
      weight_a += p.weight;
    } else {
      weight_b += p.weight;
    }
  }
  // Each set contributes total weight 1 regardless of size.
  EXPECT_NEAR(weight_a, 1.0, 1e-12);
  EXPECT_NEAR(weight_b, 1.0, 1e-12);
}

TEST(Duplicates, PairDtAndDphi) {
  const auto ds = toy_dataset();
  const auto sets = taxonomy::find_duplicate_sets(ds);
  const auto pairs = taxonomy::duplicate_pairs(ds, sets);
  const auto* concurrent = &pairs[0];
  for (const auto& p : pairs) {
    if (ds.meta[p.row_a].app_id == 2) concurrent = &p;
  }
  EXPECT_NEAR(concurrent->dt, 0.4, 1e-9);
  EXPECT_NEAR(std::fabs(concurrent->dphi), 0.1, 1e-9);
}

TEST(Duplicates, ConcurrentSubsetsSplitByWindow) {
  const auto ds = toy_dataset();
  const auto sets = taxonomy::find_duplicate_sets(ds);
  const auto conc = taxonomy::concurrent_subsets(ds, sets, 1.0);
  // Only set B has members within 1 s of each other.
  ASSERT_EQ(conc.size(), 1u);
  EXPECT_EQ(conc[0].app_id, 2u);
  EXPECT_EQ(conc[0].rows.size(), 2u);
  // A wide window captures set A too.
  const auto wide = taxonomy::concurrent_subsets(ds, sets, 500.0);
  EXPECT_EQ(wide.size(), 2u);
}

TEST(Duplicates, LargeSetPairsAreSubsampled) {
  data::Dataset ds;
  ds.system_name = "big";
  data::Table t({"f"});
  for (std::size_t i = 0; i < 500; ++i) {
    t.add_row(std::vector<double>{1.0});
    data::JobMeta m;
    m.job_id = i;
    m.app_id = 1;
    m.config_id = 1;
    m.start_time = static_cast<double>(i);
    m.end_time = m.start_time + 1.0;
    m.log_fa = 2.0;
    ds.meta.push_back(m);
    ds.target.push_back(2.0);
  }
  ds.features = t;
  const auto sets = taxonomy::find_duplicate_sets(ds);
  const auto pairs = taxonomy::duplicate_pairs(ds, sets, 200);
  EXPECT_EQ(pairs.size(), 499u);  // consecutive pairs, not C(500,2)
}

TEST(FeatureSets, SelectsRequestedColumns) {
  const auto res = sim::simulate(sim::tiny_system(3));
  const auto cols = taxonomy::feature_columns(
      res.dataset, {taxonomy::FeatureSet::kPosix});
  EXPECT_EQ(cols.size(), 48u);
  const auto m = taxonomy::feature_matrix(
      res.dataset,
      {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kStartTimeOnly});
  EXPECT_EQ(m.cols(), 49u);
  EXPECT_EQ(m.rows(), res.dataset.size());
  // The last column must be the start time.
  EXPECT_DOUBLE_EQ(m(0, 48), res.dataset.meta[0].start_time);
}

TEST(FeatureSets, RowSubsetting) {
  const auto res = sim::simulate(sim::tiny_system(3));
  const std::vector<std::size_t> rows = {5, 2};
  const auto m = taxonomy::feature_matrix(res.dataset,
                                          {taxonomy::FeatureSet::kCobalt},
                                          rows);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 2), res.dataset.meta[2].start_time);
  const auto y = taxonomy::targets(res.dataset, rows);
  EXPECT_DOUBLE_EQ(y[0], res.dataset.target[5]);
}

TEST(FeatureSets, MissingGroupThrows) {
  const auto cfg = sim::tiny_system(3);
  auto no_lmt = cfg;
  no_lmt.platform.lmt_enabled = false;
  const auto res = sim::simulate(no_lmt);
  EXPECT_THROW(
      taxonomy::feature_columns(res.dataset, {taxonomy::FeatureSet::kLmt}),
      std::invalid_argument);
}

TEST(LitmusApp, BoundPositiveAndBelowBaselineSpread) {
  const auto res = sim::simulate(sim::tiny_system(3));
  const auto bound = taxonomy::litmus_application_bound(res.dataset);
  EXPECT_GT(bound.stats.n_sets, 10u);
  EXPECT_GT(bound.median_abs_error, 0.001);
  EXPECT_LT(bound.median_abs_error, 0.2);
  EXPECT_GE(bound.mean_abs_error, bound.median_abs_error * 0.5);
}

TEST(LitmusApp, ThrowsWithoutDuplicates) {
  data::Dataset ds;
  ds.system_name = "unique";
  data::Table t({"f"});
  for (std::size_t i = 0; i < 5; ++i) {
    t.add_row(std::vector<double>{static_cast<double>(i)});
    data::JobMeta m;
    m.job_id = i;
    m.app_id = i;
    m.config_id = i;
    m.end_time = 1.0;
    m.log_fa = 1.0;
    ds.meta.push_back(m);
    ds.target.push_back(1.0);
  }
  ds.features = t;
  EXPECT_THROW(taxonomy::litmus_application_bound(ds), std::invalid_argument);
}

TEST(LitmusOod, AttributesErrorAboveThreshold) {
  const std::vector<double> eu = {0.01, 0.02, 0.5, 0.6, 0.015};
  const std::vector<double> err = {0.1, 0.1, 0.4, 0.6, 0.1};
  const auto res = taxonomy::litmus_ood(eu, err, 0.4);
  EXPECT_EQ(res.n_ood, 2u);
  EXPECT_NEAR(res.frac_ood, 0.4, 1e-12);
  EXPECT_NEAR(res.error_share_ood, 1.0 / 1.3, 1e-9);
  EXPECT_TRUE(res.is_ood[2]);
  EXPECT_TRUE(res.is_ood[3]);
  EXPECT_FALSE(res.is_ood[0]);
  EXPECT_GT(res.error_ratio, 1.5);
}

TEST(LitmusOod, AutomaticShoulderThreshold) {
  // 100 low-EU low-error jobs plus 2 high-EU high-error outliers.
  std::vector<double> eu(100, 0.01);
  std::vector<double> err(100, 0.05);
  eu.push_back(0.9);
  err.push_back(1.0);
  eu.push_back(0.8);
  err.push_back(1.0);
  const auto res = taxonomy::litmus_ood(eu, err, std::nullopt, 0.2);
  EXPECT_EQ(res.n_ood, 2u);
  EXPECT_GT(res.error_ratio, 5.0);
}

TEST(LitmusOod, RejectsBadInput) {
  const std::vector<double> eu = {0.1};
  const std::vector<double> err = {0.1, 0.2};
  EXPECT_THROW(taxonomy::litmus_ood(eu, err), std::invalid_argument);
  EXPECT_THROW(taxonomy::litmus_ood({}, {}), std::invalid_argument);
}

// --- Ground-truth validation: the headline property of this repo. ---

class NoiseLitmusTest : public ::testing::Test {
 protected:
  static const sim::SimulationResult& result() {
    static const sim::SimulationResult res = [] {
      auto cfg = sim::tiny_system(9);
      cfg.workload.n_jobs = 3000;
      cfg.workload.batch_prob = 0.12;  // plenty of concurrent duplicates
      return sim::simulate(cfg);
    }();
    return res;
  }
};

TEST_F(NoiseLitmusTest, RecoversConfiguredNoiseLevel) {
  const auto& res = result();
  const auto noise = taxonomy::litmus_noise_bound(res.dataset, 1.0);
  EXPECT_GT(noise.n_sets, 20u);
  // The estimated sigma must bracket the configured platform noise.
  // (App noise sensitivities average slightly above 1, and concurrent
  // duplicates see small contention differences, so the estimate sits a
  // bit above the configured base sigma.)
  const double base = res.config.platform.noise_sigma_log10;
  EXPECT_GT(noise.sigma_log10, 0.7 * base);
  EXPECT_LT(noise.sigma_log10, 2.5 * base);
}

TEST_F(NoiseLitmusTest, BandsAreConsistent) {
  const auto& res = result();
  const auto noise = taxonomy::litmus_noise_bound(res.dataset, 1.0);
  EXPECT_GT(noise.band68_pct, 0.0);
  EXPECT_GT(noise.band95_pct, noise.band68_pct * 1.5);
  EXPECT_LT(noise.band95_pct, noise.band68_pct * 2.5);
}

TEST_F(NoiseLitmusTest, SmallSetsDominateConcurrentDuplicates) {
  const auto& res = result();
  const auto noise = taxonomy::litmus_noise_bound(res.dataset, 1.0);
  // Paper (§IX.A): 70% of same-start sets have 2 jobs, 96% have <= 6.
  EXPECT_GT(noise.frac_sets_of_two, 0.4);
  EXPECT_GT(noise.frac_sets_leq_six, 0.85);
}

TEST_F(NoiseLitmusTest, NoiseBoundBelowAppBound) {
  // Concurrent duplicates exclude weather drift, so their bound must sit
  // below the all-duplicates application bound.
  const auto& res = result();
  const auto noise = taxonomy::litmus_noise_bound(res.dataset, 1.0);
  const auto app = taxonomy::litmus_application_bound(res.dataset);
  EXPECT_LT(noise.median_abs_error, app.median_abs_error * 1.05);
}

TEST_F(NoiseLitmusTest, ExcludeMaskRemovesRows) {
  const auto& res = result();
  std::vector<bool> exclude(res.dataset.size(), false);
  // Exclude everything -> too few sets -> throws.
  for (auto b : {true}) {
    std::fill(exclude.begin(), exclude.end(), b);
  }
  EXPECT_THROW(taxonomy::litmus_noise_bound(res.dataset, 1.0, &exclude),
               std::invalid_argument);
}

TEST(DtBins, SpreadGrowsWithSeparationUnderWeather) {
  // Amplify weather so the separated-pair spread must exceed the
  // concurrent-pair spread (noise only) clearly.
  auto cfg = sim::tiny_system(9);
  cfg.workload.n_jobs = 3000;
  cfg.workload.batch_prob = 0.12;
  cfg.weather.degradations_per_year = 60.0;
  cfg.weather.degradation_min_severity = 0.10;
  cfg.weather.degradation_max_severity = 0.35;
  cfg.weather.epoch_offset_sigma = 0.06;
  cfg.weather.n_epochs = 6;
  const auto res = sim::simulate(cfg);
  const std::vector<double> edges = {1.0, 3600.0, 86400.0, 864000.0,
                                     8640000.0};
  const auto bins = taxonomy::dt_binned_distributions(res.dataset, edges);
  ASSERT_EQ(bins.size(), 4u);
  EXPECT_GT(bins[0].n_pairs, 10u);
  ASSERT_GT(bins[3].n_pairs, 10u);
  // Concurrent pairs: noise only. Week+-separated pairs: noise + weather.
  EXPECT_GT(bins[3].stddev, bins[0].stddev * 1.1);
  // Quantiles are ordered in every populated bin.
  for (const auto& b : bins) {
    if (b.n_pairs < 10) continue;
    EXPECT_LE(b.p05, b.p25);
    EXPECT_LE(b.p25, b.median);
    EXPECT_LE(b.median, b.p75);
    EXPECT_LE(b.p75, b.p95);
  }
}

TEST(LitmusSystem, TimeFeatureReducesErrorDuringWeather) {
  // Strong weather, modest noise: the start-time golden model must win.
  auto cfg = sim::tiny_system(12);
  cfg.weather.degradations_per_year = 40.0;
  cfg.weather.degradation_min_severity = 0.15;
  cfg.weather.degradation_max_severity = 0.35;
  cfg.weather.epoch_offset_sigma = 0.05;
  const auto res = sim::simulate(cfg);
  const auto& ds = res.dataset;
  // Train on the first 60% of the time extent and test on the last 20%.
  double t_min = std::numeric_limits<double>::infinity();
  double t_max = -std::numeric_limits<double>::infinity();
  for (const auto& m : ds.meta) {
    t_min = std::min(t_min, m.start_time);
    t_max = std::max(t_max, m.start_time);
  }
  const double extent = t_max - t_min;
  data::Split split;
  split.train = ds.rows_in_window(t_min, t_min + extent * 0.6);
  split.test = ds.rows_in_window(t_min + extent * (0.6 + 0.2),
                                 std::numeric_limits<double>::infinity());
  ml::GbtParams params;
  params.n_estimators = 64;
  params.max_depth = 8;
  const std::vector<taxonomy::FeatureSet> app = {taxonomy::FeatureSet::kPosix};
  const std::vector<taxonomy::FeatureSet> timed = {
      taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kStartTimeOnly};
  const auto y_train = taxonomy::targets(ds, split.train);
  const auto y_test = taxonomy::targets(ds, split.test);
  ml::GradientBoostedTrees app_model(params);
  app_model.fit(taxonomy::feature_matrix(ds, app, split.train), y_train);
  const double err_app_only = ml::median_abs_log_error(
      y_test, app_model.predict(taxonomy::feature_matrix(ds, app, split.test)));
  const auto bound = taxonomy::litmus_system_bound(
      err_app_only, taxonomy::feature_matrix(ds, timed, split.train),
      taxonomy::feature_matrix(ds, timed, split.test), y_train, y_test, params);
  EXPECT_LT(bound.err_with_time, bound.err_app_only);
  EXPECT_GT(bound.reduction_frac, 0.05);
}

TEST(Pipeline, RunsEndToEndAndRenders) {
  auto cfg = sim::tiny_system(15);
  cfg.workload.n_jobs = 2500;
  const auto res = sim::simulate(cfg);
  taxonomy::PipelineConfig pc;
  pc.run_uq = false;  // UQ exercised separately; keep this test fast
  pc.grid.n_estimators = {32, 64};
  pc.grid.max_depth = {6, 10};
  const auto report = taxonomy::run_taxonomy(res.dataset, pc);

  EXPECT_GT(report.baseline_error, 0.0);
  EXPECT_GT(report.app_bound.median_abs_error, 0.0);
  EXPECT_LE(report.tuned_error, report.baseline_error * 1.15);
  // Step 3.1's app-only side is the tuned model Step 2.2 already scored.
  EXPECT_EQ(report.system_bound.err_app_only, report.tuned_error);
  EXPECT_GT(report.noise.median_abs_error, 0.0);
  // Segment sanity: all in [0,1]; noise floor below the app bound.
  for (double share :
       {report.share_app, report.share_system, report.share_ood,
        report.share_aleatory, report.share_unexplained}) {
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 1.0);
  }
  EXPECT_LE(report.noise.median_abs_error,
            report.app_bound.median_abs_error * 1.05);

  const auto text = taxonomy::render_report(report);
  EXPECT_NE(text.find("taxonomy report"), std::string::npos);
  EXPECT_NE(text.find("Step 5"), std::string::npos);
  EXPECT_NE(text.find("unexplained"), std::string::npos);
}

}  // namespace
}  // namespace iotax
