#include "src/data/scaler.hpp"

#include <cmath>
#include <stdexcept>

namespace iotax::data {

double signed_log1p_value(double v) {
  return std::copysign(std::log10(1.0 + std::fabs(v)), v);
}

// The fused *_log1p variants apply signed_log1p_value to each element as
// they read it, in the same order as the plain fit/transform.

void StandardScaler::fit(const MatrixView& x) {
  if (x.rows() == 0) throw std::invalid_argument("StandardScaler: empty input");
  means_.assign(x.cols(), 0.0);
  stddevs_.assign(x.cols(), 1.0);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    double m = 0.0;
    for (std::size_t r = 0; r < x.rows(); ++r) m += x(r, c);
    m /= static_cast<double>(x.rows());
    double v = 0.0;
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const double d = x(r, c) - m;
      v += d * d;
    }
    v /= static_cast<double>(x.rows());
    means_[c] = m;
    stddevs_[c] = v > 1e-24 ? std::sqrt(v) : 1.0;
  }
}

void StandardScaler::fit_log1p(const MatrixView& x) {
  if (x.rows() == 0) throw std::invalid_argument("StandardScaler: empty input");
  means_.assign(x.cols(), 0.0);
  stddevs_.assign(x.cols(), 1.0);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    double m = 0.0;
    for (std::size_t r = 0; r < x.rows(); ++r) m += signed_log1p_value(x(r, c));
    m /= static_cast<double>(x.rows());
    double v = 0.0;
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const double d = signed_log1p_value(x(r, c)) - m;
      v += d * d;
    }
    v /= static_cast<double>(x.rows());
    means_[c] = m;
    stddevs_[c] = v > 1e-24 ? std::sqrt(v) : 1.0;
  }
}

Matrix StandardScaler::transform(const MatrixView& x) const {
  if (!fitted()) throw std::logic_error("StandardScaler: not fitted");
  if (x.cols() != means_.size()) {
    throw std::invalid_argument("StandardScaler: column count mismatch");
  }
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out(r, c) = (x(r, c) - means_[c]) / stddevs_[c];
    }
  }
  return out;
}

Matrix StandardScaler::transform_log1p(const MatrixView& x) const {
  if (!fitted()) throw std::logic_error("StandardScaler: not fitted");
  if (x.cols() != means_.size()) {
    throw std::invalid_argument("StandardScaler: column count mismatch");
  }
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out(r, c) = (signed_log1p_value(x(r, c)) - means_[c]) / stddevs_[c];
    }
  }
  return out;
}

Matrix StandardScaler::fit_transform(const MatrixView& x) {
  fit(x);
  return transform(x);
}

Matrix StandardScaler::fit_transform_log1p(const MatrixView& x) {
  fit_log1p(x);
  return transform_log1p(x);
}

StandardScaler StandardScaler::from_params(std::vector<double> means,
                                           std::vector<double> stddevs) {
  if (means.size() != stddevs.size() || means.empty()) {
    throw std::invalid_argument("StandardScaler::from_params: bad sizes");
  }
  for (const double s : stddevs) {
    if (s <= 0.0) {
      throw std::invalid_argument(
          "StandardScaler::from_params: non-positive stddev");
    }
  }
  StandardScaler scaler;
  scaler.means_ = std::move(means);
  scaler.stddevs_ = std::move(stddevs);
  return scaler;
}

}  // namespace iotax::data
