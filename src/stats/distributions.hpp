// Continuous distributions with pdf/cdf/quantile, used by the noise model
// and by the Δt≈0 duplicate litmus test (Normal vs Student-t fits, §IX.A).
#pragma once

namespace iotax::stats {

/// Standard math special functions we need that are not in <cmath>.
/// Regularized incomplete beta function I_x(a, b), continued-fraction
/// evaluation (Lentz). Domain: a, b > 0, x in [0, 1].
double incomplete_beta(double a, double b, double x);

/// Natural log of the gamma function (delegates to std::lgamma).
double log_gamma(double x);

class Normal {
 public:
  Normal(double mean, double stddev);

  double pdf(double x) const;
  double cdf(double x) const;
  /// Inverse CDF (Acklam's rational approximation, |rel err| < 1.2e-9).
  double quantile(double p) const;
  double log_pdf(double x) const;

  double mean() const { return mean_; }
  double stddev() const { return stddev_; }
  double variance() const { return stddev_ * stddev_; }

 private:
  double mean_;
  double stddev_;
};

/// Location-scale Student-t. Standard t has loc=0, scale=1.
class StudentT {
 public:
  StudentT(double df, double loc = 0.0, double scale = 1.0);

  double pdf(double x) const;
  double cdf(double x) const;
  /// Inverse CDF by monotone bisection + Newton polish on cdf.
  double quantile(double p) const;
  double log_pdf(double x) const;

  double df() const { return df_; }
  double loc() const { return loc_; }
  double scale() const { return scale_; }
  /// Variance = scale^2 * df/(df-2) for df > 2; throws otherwise.
  double variance() const;

 private:
  double df_;
  double loc_;
  double scale_;
};

}  // namespace iotax::stats
