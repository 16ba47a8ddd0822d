#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/stats/bootstrap.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/distributions.hpp"
#include "src/stats/fitting.hpp"
#include "src/stats/histogram.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

TEST(Descriptive, MeanAndSum) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::sum(xs), 10.0);
  EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
}

TEST(Descriptive, KahanSumStaysAccurate) {
  std::vector<double> xs(1000000, 0.1);
  EXPECT_NEAR(stats::sum(xs), 100000.0, 1e-6);
}

TEST(Descriptive, VarianceBesselCorrection) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stats::variance_population(xs), 4.0, 1e-12);
  EXPECT_NEAR(stats::variance(xs), 4.0 * 8.0 / 7.0, 1e-12);
}

TEST(Descriptive, VarianceRequiresTwo) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(stats::variance(one), std::invalid_argument);
  EXPECT_NO_THROW(stats::variance_population(one));
}

TEST(Descriptive, MedianOddEven) {
  const std::vector<double> odd = {5.0, 1.0, 3.0};
  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(stats::median(odd), 3.0);
  EXPECT_DOUBLE_EQ(stats::median(even), 2.5);
}

TEST(Descriptive, QuantileInterpolates) {
  const std::vector<double> xs = {0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.5), 1.5);
  EXPECT_NEAR(stats::quantile(xs, 0.25), 0.75, 1e-12);
}

TEST(Descriptive, QuantileRejectsOutOfRange) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(stats::quantile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW(stats::quantile(xs, 1.1), std::invalid_argument);
  EXPECT_THROW(stats::quantile({}, 0.5), std::invalid_argument);
}

TEST(Descriptive, Mad) {
  const std::vector<double> xs = {1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0};
  EXPECT_DOUBLE_EQ(stats::mad(xs), 1.0);
}

TEST(Descriptive, WeightedMean) {
  const std::vector<double> xs = {1.0, 3.0};
  const std::vector<double> w = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::weighted_mean(xs, w), 2.5);
}

TEST(Descriptive, WeightedQuantileMatchesUnweightedForEqualWeights) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  const std::vector<double> w(5, 1.0);
  EXPECT_DOUBLE_EQ(stats::weighted_quantile(xs, w, 0.5), 3.0);
}

TEST(Descriptive, WeightedQuantileHonorsWeights) {
  const std::vector<double> xs = {1.0, 2.0, 100.0};
  const std::vector<double> w = {1.0, 1.0, 98.0};
  EXPECT_DOUBLE_EQ(stats::weighted_quantile(xs, w, 0.5), 100.0);
}

TEST(Descriptive, CorrelationSigns) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  std::vector<double> neg(y.rbegin(), y.rend());
  EXPECT_NEAR(stats::correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(stats::correlation(x, neg), -1.0, 1e-12);
}

TEST(Descriptive, SummaryFields) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const auto s = stats::summarize(xs);
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_LT(s.p05, s.p25);
  EXPECT_LT(s.p25, s.p75);
  EXPECT_LT(s.p75, s.p95);
}

TEST(Distributions, NormalPdfPeak) {
  const stats::Normal n(0.0, 1.0);
  EXPECT_NEAR(n.pdf(0.0), 1.0 / std::sqrt(2.0 * M_PI), 1e-12);
  EXPECT_NEAR(n.pdf(1.0), n.pdf(-1.0), 1e-15);
}

TEST(Distributions, NormalCdfKnownValues) {
  const stats::Normal n(0.0, 1.0);
  EXPECT_NEAR(n.cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(n.cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(n.cdf(-1.0), 0.15865525, 1e-6);
}

TEST(Distributions, NormalQuantileInvertsCdf) {
  const stats::Normal n(2.0, 3.0);
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.77, 0.99}) {
    EXPECT_NEAR(n.cdf(n.quantile(p)), p, 1e-8);
  }
}

TEST(Distributions, Normal68And95Rules) {
  const stats::Normal n(0.0, 1.0);
  EXPECT_NEAR(n.cdf(1.0) - n.cdf(-1.0), 0.6827, 1e-3);
  EXPECT_NEAR(n.quantile(0.975), 1.95996, 1e-4);
}

TEST(Distributions, NormalRejectsBadStddev) {
  EXPECT_THROW(stats::Normal(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(stats::Normal(0.0, -1.0), std::invalid_argument);
}

TEST(Distributions, IncompleteBetaEdges) {
  EXPECT_DOUBLE_EQ(stats::incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats::incomplete_beta(2.0, 3.0, 1.0), 1.0);
  // I_x(1,1) = x.
  EXPECT_NEAR(stats::incomplete_beta(1.0, 1.0, 0.37), 0.37, 1e-10);
}

TEST(Distributions, StudentTCdfKnownValues) {
  // t(df=1) is Cauchy: cdf(1) = 3/4.
  const stats::StudentT t1(1.0);
  EXPECT_NEAR(t1.cdf(1.0), 0.75, 1e-8);
  EXPECT_NEAR(t1.cdf(0.0), 0.5, 1e-12);
  // t(df=10): P(T < 1.812) ~ 0.95 (standard table).
  const stats::StudentT t10(10.0);
  EXPECT_NEAR(t10.cdf(1.812), 0.95, 2e-4);
}

TEST(Distributions, StudentTQuantileInvertsCdf) {
  const stats::StudentT t(5.0, 1.0, 2.0);
  for (double p : {0.025, 0.2, 0.5, 0.8, 0.975}) {
    EXPECT_NEAR(t.cdf(t.quantile(p)), p, 1e-7);
  }
}

TEST(Distributions, StudentTApproachesNormalForLargeDf) {
  const stats::StudentT t(300.0);
  const stats::Normal n(0.0, 1.0);
  for (double x : {-2.0, -0.5, 0.7, 1.9}) {
    EXPECT_NEAR(t.cdf(x), n.cdf(x), 2e-3);
  }
}

TEST(Distributions, StudentTVariance) {
  const stats::StudentT t(5.0, 0.0, 2.0);
  EXPECT_NEAR(t.variance(), 4.0 * 5.0 / 3.0, 1e-12);
  const stats::StudentT t2(2.0);
  EXPECT_THROW(t2.variance(), std::domain_error);
}

TEST(Fitting, NormalFitRecoversParameters) {
  util::Rng rng(101);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(3.0, 0.7);
  const auto fit = stats::fit_normal(xs);
  EXPECT_NEAR(fit.mean, 3.0, 0.02);
  EXPECT_NEAR(fit.stddev, 0.7, 0.02);
}

TEST(Fitting, StudentTFitRecoversDf) {
  util::Rng rng(102);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = 1.0 + 0.5 * rng.student_t(4.0);
  const auto fit = stats::fit_student_t(xs);
  EXPECT_NEAR(fit.loc, 1.0, 0.03);
  EXPECT_NEAR(fit.scale, 0.5, 0.05);
  EXPECT_GT(fit.df, 2.5);
  EXPECT_LT(fit.df, 6.5);
}

TEST(Fitting, StudentTFitOnNormalDataGivesLargeDf) {
  util::Rng rng(103);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(0.0, 1.0);
  const auto fit = stats::fit_student_t(xs);
  EXPECT_GT(fit.df, 25.0);
}

TEST(Fitting, TPreferenceDetectsHeavyTails) {
  util::Rng rng(104);
  std::vector<double> heavy(5000);
  std::vector<double> light(5000);
  for (auto& x : heavy) x = rng.student_t(3.0);
  for (auto& x : light) x = rng.normal();
  EXPECT_GT(stats::t_vs_normal_preference(heavy), 0.01);
  EXPECT_LT(std::fabs(stats::t_vs_normal_preference(light)), 0.01);
}

TEST(Fitting, KsStatisticSmallForCorrectModel) {
  util::Rng rng(105);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.normal(0.0, 1.0);
  const double ks_good = stats::ks_statistic(stats::Normal(0.0, 1.0), xs);
  const double ks_bad = stats::ks_statistic(stats::Normal(1.0, 1.0), xs);
  EXPECT_LT(ks_good, 0.03);
  EXPECT_GT(ks_bad, 0.2);
}

TEST(Histogram, LogBinEdges) {
  const auto edges = stats::log_bin_edges(1.0, 1e6, 6);
  ASSERT_EQ(edges.size(), 7u);
  EXPECT_NEAR(edges[0], 1.0, 1e-9);
  EXPECT_NEAR(edges[3], 1e3, 1e-6);
  EXPECT_NEAR(edges[6], 1e6, 1e-3);
}

TEST(Histogram, BinCountsWithEdges) {
  const std::vector<double> edges = {0.0, 1.0, 10.0};
  const std::vector<double> xs = {0.5, 0.9, 5.0, -3.0, 42.0};
  const auto counts = stats::bin_counts(xs, edges);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 3u);  // 0.5, 0.9, -3.0 (clamped)
  EXPECT_EQ(counts[1], 2u);  // 5.0, 42.0 (clamped)
}

TEST(Bootstrap, CiCoversTrueMean) {
  util::Rng rng(107);
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.normal(10.0, 2.0);
  const auto res = stats::bootstrap_ci(
      xs, [](std::span<const double> s) { return stats::mean(s); }, 500, 0.95,
      rng);
  EXPECT_LT(res.lo, 10.0 + 0.3);
  EXPECT_GT(res.hi, 10.0 - 0.3);
  EXPECT_LT(res.lo, res.point);
  EXPECT_GT(res.hi, res.point);
}

TEST(Bootstrap, RejectsBadInput) {
  util::Rng rng(108);
  const auto stat = [](std::span<const double> s) { return stats::mean(s); };
  EXPECT_THROW(stats::bootstrap_ci({}, stat, 10, 0.95, rng),
               std::invalid_argument);
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW(stats::bootstrap_ci(xs, stat, 10, 1.5, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace iotax
