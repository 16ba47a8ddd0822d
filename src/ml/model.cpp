#include "src/ml/model.hpp"

#include <ostream>
#include <stdexcept>

#include "src/ml/checkpoint.hpp"
#include "src/stats/descriptive.hpp"

namespace iotax::ml {

void Regressor::fit_continue(const data::MatrixView& /*x*/,
                             std::span<const double> /*y*/,
                             std::size_t /*extra_rounds*/) {
  throw std::logic_error("Regressor::fit_continue: '" + name() +
                         "' does not support warm-start continuation "
                         "(fit_continue_info().supported is false)");
}

void MeanRegressor::fit(const data::MatrixView& x, std::span<const double> y) {
  if (x.rows() != y.size()) {
    throw std::invalid_argument("MeanRegressor::fit: size mismatch");
  }
  if (y.empty()) throw std::invalid_argument("MeanRegressor::fit: empty");
  mean_ = stats::mean(y);
  fitted_ = true;
}

std::vector<double> MeanRegressor::predict(const data::MatrixView& x) const {
  if (!fitted_) throw std::logic_error("MeanRegressor::predict: not fitted");
  return std::vector<double>(x.rows(), mean_);
}

void MeanRegressor::save(std::ostream& out) const {
  if (!fitted_) throw std::logic_error("MeanRegressor::save: not fitted");
  write_header(out, "iotax-mean");
  out << "mean " << mean_ << '\n';
  if (!out) throw std::runtime_error("MeanRegressor::save: stream failure");
}

MeanRegressor MeanRegressor::read(CheckpointReader& r) {
  MeanRegressor model;
  r.expect("mean") >> model.mean_;
  model.fitted_ = true;
  return model;
}

}  // namespace iotax::ml
