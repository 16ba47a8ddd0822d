// Feature preprocessing: log1p compression of heavy-tailed I/O counters
// followed by per-column standardisation. Trees don't need it; the MLPs
// and the deep ensemble do.
//
// All entry points take MatrixView (a Matrix converts implicitly), so
// preprocessing runs straight off a row/column subset without an
// intermediate copy. The *_log1p variants apply signed_log1p_value to
// each element as they read it, so the log matrix is never
// materialized.
#pragma once

#include <vector>

#include "src/data/view.hpp"

namespace iotax::data {

class StandardScaler {
 public:
  /// Learn per-column mean/stddev from the training matrix. Constant
  /// columns get stddev 1 so they map to zero rather than NaN.
  void fit(const MatrixView& x);

  /// (x - mean) / stddev, column-wise. Must be fit first.
  Matrix transform(const MatrixView& x) const;

  Matrix fit_transform(const MatrixView& x);

  /// fit() on signed_log1p_value of every element of x.
  void fit_log1p(const MatrixView& x);

  /// transform() of signed_log1p_value of every element of x.
  Matrix transform_log1p(const MatrixView& x) const;

  Matrix fit_transform_log1p(const MatrixView& x);

  bool fitted() const { return !means_.empty(); }
  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stddevs() const { return stddevs_; }

  /// Rebuild a fitted scaler from stored parameters (model loading).
  static StandardScaler from_params(std::vector<double> means,
                                    std::vector<double> stddevs);

 private:
  std::vector<double> means_;
  std::vector<double> stddevs_;
};

/// Signed log1p of one value: sign(x) * log10(1 + |x|). Compresses byte
/// counts spanning 10 orders of magnitude while keeping zero at zero.
double signed_log1p_value(double v);

}  // namespace iotax::data
