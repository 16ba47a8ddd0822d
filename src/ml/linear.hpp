// Ridge linear regression — the simplest model family the I/O modeling
// literature has used; serves as the weak baseline in the model-family
// ablation bench.
#pragma once

#include "src/data/scaler.hpp"
#include "src/ml/model.hpp"

namespace iotax::ml {

class LinearRegressor final : public Regressor {
 public:
  /// `l2` is the ridge penalty on standardized features. `log_transform`
  /// applies signed log1p before standardisation — the right default for
  /// Darshan counters spanning ten orders of magnitude; disable it when
  /// the inputs are already on a sane scale.
  explicit LinearRegressor(double l2 = 1.0, bool log_transform = true);

  void fit(const data::MatrixView& x, std::span<const double> y) override;
  std::vector<double> predict(const data::MatrixView& x) const override;
  std::string name() const override;
  std::size_t n_features() const override { return coef_.size(); }

  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }

  void save(std::ostream& out) const override;
  static LinearRegressor read(CheckpointReader& r);

 private:
  double l2_;
  bool log_transform_;
  data::StandardScaler scaler_;
  std::vector<double> coef_;  // in standardized feature space
  double intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace iotax::ml
