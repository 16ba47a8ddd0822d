#include "src/ml/linear.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "src/ml/checkpoint.hpp"
#include "src/stats/descriptive.hpp"

namespace iotax::ml {

LinearRegressor::LinearRegressor(double l2, bool log_transform)
    : l2_(l2), log_transform_(log_transform) {
  if (l2 < 0.0) throw std::invalid_argument("LinearRegressor: l2 < 0");
}

namespace {

/// Solve (A + l2*I) w = b for symmetric positive definite A via Cholesky.
std::vector<double> solve_spd(std::vector<double> a, std::vector<double> b,
                              std::size_t n, double ridge) {
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += ridge;
  // Cholesky: A = L L^T (in place, lower triangle).
  for (std::size_t j = 0; j < n; ++j) {
    double d = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) d -= a[j * n + k] * a[j * n + k];
    if (d <= 0.0) {
      throw std::runtime_error("LinearRegressor: matrix not positive definite");
    }
    a[j * n + j] = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) s -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = s / a[j * n + j];
    }
  }
  // Forward substitution: L z = b.
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= a[i * n + k] * b[k];
    b[i] = s / a[i * n + i];
  }
  // Back substitution: L^T w = z.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = b[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= a[k * n + i] * b[k];
    b[i] = s / a[i * n + i];
  }
  return b;
}

}  // namespace

void LinearRegressor::fit(const data::MatrixView& x,
                          std::span<const double> y) {
  if (x.rows() != y.size()) {
    throw std::invalid_argument("LinearRegressor::fit: size mismatch");
  }
  if (x.rows() < 2) {
    throw std::invalid_argument("LinearRegressor::fit: need >= 2 rows");
  }
  const data::Matrix z = log_transform_ ? scaler_.fit_transform_log1p(x)
                                        : scaler_.fit_transform(x);
  const std::size_t p = z.cols();
  const double y_mean = stats::mean(y);

  // Normal equations on centered target: Z^T Z w = Z^T (y - mean).
  std::vector<double> gram(p * p, 0.0);
  std::vector<double> rhs(p, 0.0);
  for (std::size_t r = 0; r < z.rows(); ++r) {
    const auto row = z.row(r);
    const double yc = y[r] - y_mean;
    for (std::size_t i = 0; i < p; ++i) {
      rhs[i] += row[i] * yc;
      for (std::size_t j = i; j < p; ++j) gram[i * p + j] += row[i] * row[j];
    }
  }
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < i; ++j) gram[i * p + j] = gram[j * p + i];
  }
  coef_ = solve_spd(std::move(gram), std::move(rhs), p,
                    l2_ + 1e-8 * static_cast<double>(x.rows()));
  intercept_ = y_mean;
  fitted_ = true;
}

std::vector<double> LinearRegressor::predict(const data::MatrixView& x) const {
  if (!fitted_) throw std::logic_error("LinearRegressor::predict: not fitted");
  const data::Matrix z =
      log_transform_ ? scaler_.transform_log1p(x) : scaler_.transform(x);
  std::vector<double> out(z.rows(), intercept_);
  for (std::size_t r = 0; r < z.rows(); ++r) {
    const auto row = z.row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < coef_.size(); ++c) acc += row[c] * coef_[c];
    out[r] += acc;
  }
  return out;
}

std::string LinearRegressor::name() const {
  return "ridge[l2=" + std::to_string(l2_) + "]";
}

void LinearRegressor::save(std::ostream& out) const {
  if (!fitted_) throw std::logic_error("LinearRegressor::save: not fitted");
  write_header(out, "iotax-linear");
  out << "params " << l2_ << ' ' << (log_transform_ ? 1 : 0) << '\n';
  out << "intercept " << intercept_ << '\n';
  write_scaler(out, scaler_);
  out << "coef " << coef_.size() << '\n';
  for (const double c : coef_) out << c << ' ';
  out << '\n';
  if (!out) throw std::runtime_error("LinearRegressor::save: stream failure");
}

LinearRegressor LinearRegressor::read(CheckpointReader& r) {
  double l2 = 0.0;
  int log_transform = 0;
  r.expect("params") >> l2 >> log_transform;
  LinearRegressor model =
      r.checked([&] { return LinearRegressor(l2, log_transform != 0); });
  r.expect("intercept") >> model.intercept_;
  model.scaler_ = r.scaler();
  std::size_t n_coef = 0;
  r.expect("coef") >> n_coef;
  if (n_coef != model.scaler_.means().size()) {
    r.fail(util::Reason::kSizeMismatch,
           "iotax-linear has " + std::to_string(n_coef) + " coefficients for " +
               std::to_string(model.scaler_.means().size()) + " features");
  }
  r.values(n_coef, model.coef_);
  model.fitted_ = true;
  return model;
}

}  // namespace iotax::ml
