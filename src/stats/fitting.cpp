#include "src/stats/fitting.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/stats/descriptive.hpp"

namespace iotax::stats {

NormalFit fit_normal(std::span<const double> xs) {
  if (xs.size() < 2) throw std::invalid_argument("fit_normal: need n >= 2");
  NormalFit fit;
  fit.mean = mean(xs);
  fit.stddev = std::sqrt(std::max(variance_population(xs), 1e-300));
  fit.log_likelihood = log_likelihood(Normal(fit.mean, fit.stddev), xs);
  return fit;
}

namespace {

// Exact MLE of (loc, scale) for fixed df via the EM weights
// w_i = (df+1) / (df + z_i^2); converges for any start.
void fit_loc_scale_for_df(std::span<const double> xs, double df, double* loc,
                          double* scale) {
  double m = mean(xs);
  double s2 = std::max(variance_population(xs), 1e-12);
  for (int iter = 0; iter < 200; ++iter) {
    double wsum = 0.0;
    double wx = 0.0;
    for (double x : xs) {
      const double z2 = (x - m) * (x - m) / s2;
      const double w = (df + 1.0) / (df + z2);
      wsum += w;
      wx += w * x;
    }
    const double m_new = wx / wsum;
    double s2_new = 0.0;
    for (double x : xs) {
      const double z2 = (x - m_new) * (x - m_new) / s2;
      const double w = (df + 1.0) / (df + z2);
      s2_new += w * (x - m_new) * (x - m_new);
    }
    s2_new /= static_cast<double>(xs.size());
    s2_new = std::max(s2_new, 1e-300);
    const bool converged = std::fabs(m_new - m) < 1e-10 * (1.0 + std::fabs(m)) &&
                           std::fabs(s2_new - s2) < 1e-10 * (1.0 + s2);
    m = m_new;
    s2 = s2_new;
    if (converged) break;
  }
  *loc = m;
  *scale = std::sqrt(s2);
}

double profile_ll(std::span<const double> xs, double df) {
  double loc = 0.0;
  double scale = 1.0;
  fit_loc_scale_for_df(xs, df, &loc, &scale);
  return log_likelihood(StudentT(df, loc, scale), xs);
}

}  // namespace

StudentTFit fit_student_t(std::span<const double> xs, double df_min,
                          double df_max) {
  if (xs.size() < 3) throw std::invalid_argument("fit_student_t: need n >= 3");
  // Golden-section search on log(df): the profile likelihood is smooth and
  // unimodal in practice; searching log-space handles the wide df range.
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = std::log(df_min);
  double b = std::log(df_max);
  double c = b - phi * (b - a);
  double d = a + phi * (b - a);
  double fc = profile_ll(xs, std::exp(c));
  double fd = profile_ll(xs, std::exp(d));
  for (int i = 0; i < 60; ++i) {
    if (fc > fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - phi * (b - a);
      fc = profile_ll(xs, std::exp(c));
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + phi * (b - a);
      fd = profile_ll(xs, std::exp(d));
    }
    if (b - a < 1e-6) break;
  }
  StudentTFit fit;
  fit.df = std::exp(0.5 * (a + b));
  fit_loc_scale_for_df(xs, fit.df, &fit.loc, &fit.scale);
  fit.log_likelihood = log_likelihood(StudentT(fit.df, fit.loc, fit.scale), xs);
  return fit;
}

double log_likelihood(const Normal& d, std::span<const double> xs) {
  double ll = 0.0;
  for (double x : xs) ll += d.log_pdf(x);
  return ll;
}

double log_likelihood(const StudentT& d, std::span<const double> xs) {
  double ll = 0.0;
  for (double x : xs) ll += d.log_pdf(x);
  return ll;
}

template <typename Dist>
double ks_statistic(const Dist& d, std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("ks_statistic: empty input");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  double ks = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double f = d.cdf(sorted[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    ks = std::max({ks, std::fabs(f - lo), std::fabs(f - hi)});
  }
  return ks;
}

template double ks_statistic<Normal>(const Normal&, std::span<const double>);

double two_sample_ks(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("two_sample_ks: empty input");
  }
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  std::size_t i = 0;
  std::size_t j = 0;
  double ks = 0.0;
  const auto na = static_cast<double>(sa.size());
  const auto nb = static_cast<double>(sb.size());
  while (i < sa.size() || j < sb.size()) {
    // Step both CDFs past the next value, handling ties jointly so the
    // distance is only evaluated between, not inside, jump points.
    double v = 0.0;
    if (j >= sb.size() || (i < sa.size() && sa[i] <= sb[j])) {
      v = sa[i];
    } else {
      v = sb[j];
    }
    while (i < sa.size() && sa[i] == v) ++i;
    while (j < sb.size() && sb[j] == v) ++j;
    ks = std::max(ks, std::fabs(static_cast<double>(i) / na -
                                static_cast<double>(j) / nb));
  }
  return ks;
}

double t_vs_normal_preference(std::span<const double> xs) {
  const auto nf = fit_normal(xs);
  const auto tf = fit_student_t(xs);
  return (tf.log_likelihood - nf.log_likelihood) /
         static_cast<double>(xs.size());
}

}  // namespace iotax::stats
