#include "src/stats/distributions.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace iotax::stats {

double log_gamma(double x) { return std::lgamma(x); }

namespace {

// Continued fraction for the incomplete beta function (Numerical Recipes
// style modified Lentz algorithm).
double beta_cf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3.0e-14;
  constexpr double kFpMin = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const auto m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  if (a <= 0.0 || b <= 0.0) {
    throw std::invalid_argument("incomplete_beta: a, b must be > 0");
  }
  if (x < 0.0 || x > 1.0) {
    throw std::invalid_argument("incomplete_beta: x not in [0,1]");
  }
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                          a * std::log(x) + b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  // Use the symmetry relation to keep the continued fraction convergent.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

// ---------------------------------------------------------------- Normal

Normal::Normal(double mean, double stddev) : mean_(mean), stddev_(stddev) {
  if (stddev <= 0.0) throw std::invalid_argument("Normal: stddev must be > 0");
}

double Normal::pdf(double x) const {
  const double z = (x - mean_) / stddev_;
  return std::exp(-0.5 * z * z) / (stddev_ * std::sqrt(2.0 * M_PI));
}

double Normal::log_pdf(double x) const {
  const double z = (x - mean_) / stddev_;
  return -0.5 * z * z - std::log(stddev_) - 0.5 * std::log(2.0 * M_PI);
}

double Normal::cdf(double x) const {
  const double z = (x - mean_) / (stddev_ * std::sqrt(2.0));
  return 0.5 * std::erfc(-z);
}

double Normal::quantile(double p) const {
  if (p <= 0.0 || p >= 1.0) {
    if (p == 0.0) return -std::numeric_limits<double>::infinity();
    if (p == 1.0) return std::numeric_limits<double>::infinity();
    throw std::invalid_argument("Normal::quantile: p not in [0,1]");
  }
  // Acklam's algorithm for the standard normal inverse CDF.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double z = 0.0;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    z = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    z = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    z = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  return mean_ + stddev_ * z;
}

// -------------------------------------------------------------- StudentT

StudentT::StudentT(double df, double loc, double scale)
    : df_(df), loc_(loc), scale_(scale) {
  if (df <= 0.0) throw std::invalid_argument("StudentT: df must be > 0");
  if (scale <= 0.0) throw std::invalid_argument("StudentT: scale must be > 0");
}

double StudentT::log_pdf(double x) const {
  const double z = (x - loc_) / scale_;
  return log_gamma((df_ + 1.0) / 2.0) - log_gamma(df_ / 2.0) -
         0.5 * std::log(df_ * M_PI) - std::log(scale_) -
         ((df_ + 1.0) / 2.0) * std::log1p(z * z / df_);
}

double StudentT::pdf(double x) const { return std::exp(log_pdf(x)); }

double StudentT::cdf(double x) const {
  const double z = (x - loc_) / scale_;
  const double w = df_ / (df_ + z * z);
  const double ib = incomplete_beta(df_ / 2.0, 0.5, w);
  return z >= 0.0 ? 1.0 - 0.5 * ib : 0.5 * ib;
}

double StudentT::quantile(double p) const {
  if (p <= 0.0 || p >= 1.0) {
    if (p == 0.0) return -std::numeric_limits<double>::infinity();
    if (p == 1.0) return std::numeric_limits<double>::infinity();
    throw std::invalid_argument("StudentT::quantile: p not in [0,1]");
  }
  // Bracket then bisect; the normal quantile gives a good starting width.
  const double z0 = Normal(0.0, 1.0).quantile(p);
  double lo = loc_ + scale_ * (z0 - 1.0) * 10.0 - 10.0 * scale_;
  double hi = loc_ + scale_ * (z0 + 1.0) * 10.0 + 10.0 * scale_;
  while (cdf(lo) > p) lo -= 10.0 * scale_ * (1.0 + std::fabs(lo - loc_));
  while (cdf(hi) < p) hi += 10.0 * scale_ * (1.0 + std::fabs(hi - loc_));
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (cdf(mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * (1.0 + std::fabs(mid))) break;
  }
  return 0.5 * (lo + hi);
}

double StudentT::variance() const {
  if (df_ <= 2.0) {
    throw std::domain_error("StudentT::variance undefined for df <= 2");
  }
  return scale_ * scale_ * df_ / (df_ - 2.0);
}

}  // namespace iotax::stats
