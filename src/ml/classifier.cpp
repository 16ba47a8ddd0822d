#include "src/ml/classifier.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "src/ml/checkpoint.hpp"

namespace iotax::ml {

namespace {

double sigmoid(double z) {
  // Split on sign so the exp argument is always non-positive: no
  // overflow, and the two branches agree bit-for-bit at z == 0.
  if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

/// Platt scaling per Lin, Weng & Keerthi (2007): fit sigmoid(a*s + b)
/// to smoothed targets by Newton's method with backtracking. All-serial
/// fixed-order arithmetic, so the result is deterministic in (scores,
/// labels) and identical at every IOTAX_THREADS.
void fit_platt(std::span<const double> scores, std::span<const double> labels,
               std::size_t max_iters, double* out_a, double* out_b) {
  const std::size_t n = scores.size();
  double prior1 = 0.0;
  for (const double y : labels) prior1 += y;
  const double prior0 = static_cast<double>(n) - prior1;
  const double hi = (prior1 + 1.0) / (prior1 + 2.0);
  const double lo = 1.0 / (prior0 + 2.0);

  std::vector<double> t(n);
  for (std::size_t i = 0; i < n; ++i) t[i] = labels[i] == 1.0 ? hi : lo;

  double a = 0.0;
  double b = std::log((prior0 + 1.0) / (prior1 + 1.0));
  const double min_step = 1e-10;
  const double sigma_reg = 1e-12;  // Hessian ridge
  const double eps = 1e-7;

  const auto objective = [&](double pa, double pb) {
    double f = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double z = pa * scores[i] + pb;
      // Stable -log-likelihood of target t under sigmoid(z).
      if (z >= 0.0) {
        f += t[i] * std::log1p(std::exp(-z)) +
             (1.0 - t[i]) * (z + std::log1p(std::exp(-z)));
      } else {
        f += t[i] * (-z + std::log1p(std::exp(z))) +
             (1.0 - t[i]) * std::log1p(std::exp(z));
      }
    }
    return f;
  };

  double fval = objective(a, b);
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    double h11 = sigma_reg, h22 = sigma_reg, h21 = 0.0;
    double g1 = 0.0, g2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(a * scores[i] + b);
      const double d1 = p - t[i];
      const double d2 = p * (1.0 - p);
      g1 += scores[i] * d1;
      g2 += d1;
      h11 += scores[i] * scores[i] * d2;
      h22 += d2;
      h21 += scores[i] * d2;
    }
    if (std::fabs(g1) < eps && std::fabs(g2) < eps) break;

    const double det = h11 * h22 - h21 * h21;
    const double da = -(h22 * g1 - h21 * g2) / det;
    const double db = -(-h21 * g1 + h11 * g2) / det;
    const double gd = g1 * da + g2 * db;

    double step = 1.0;
    bool moved = false;
    while (step >= min_step) {
      const double na = a + step * da;
      const double nb = b + step * db;
      const double nf = objective(na, nb);
      if (nf < fval + 1e-4 * step * gd) {
        a = na;
        b = nb;
        fval = nf;
        moved = true;
        break;
      }
      step *= 0.5;
    }
    if (!moved) break;  // line search failed: converged as far as FP goes
  }
  *out_a = a;
  *out_b = b;
}

}  // namespace

void ClassifierParams::validate() const {
  gbt.validate();
  if (gbt.loss != GbtLoss::kSquaredError) {
    throw std::invalid_argument(
        "ClassifierParams: booster loss must be squared error "
        "(labels are the regression targets)");
  }
  if (!std::isfinite(threshold)) {
    throw std::invalid_argument("ClassifierParams: non-finite threshold");
  }
  if (kind == ClassifierKind::kLogistic &&
      (threshold <= 0.0 || threshold >= 1.0)) {
    throw std::invalid_argument(
        "ClassifierParams: logistic threshold must be in (0, 1)");
  }
  if (platt_max_iters == 0) {
    throw std::invalid_argument("ClassifierParams: platt_max_iters == 0");
  }
}

BurstClassifier::BurstClassifier(ClassifierParams params)
    : params_(std::move(params)), gbt_(params_.gbt) {
  params_.validate();
}

void BurstClassifier::fit(const data::MatrixView& x,
                          std::span<const double> y) {
  if (x.rows() != y.size()) {
    throw std::invalid_argument("BurstClassifier::fit: size mismatch");
  }
  std::size_t n_pos = 0;
  for (const double v : y) {
    if (v != 0.0 && v != 1.0) {
      throw std::invalid_argument(
          "BurstClassifier::fit: labels must be exactly 0 or 1");
    }
    if (v == 1.0) ++n_pos;
  }
  if (n_pos == 0 || n_pos == y.size()) {
    throw std::invalid_argument(
        "BurstClassifier::fit: training labels are all one class");
  }
  gbt_ = GradientBoostedTrees(params_.gbt);
  gbt_.fit(x, y);
  if (params_.kind == ClassifierKind::kLogistic) {
    const auto scores = gbt_.predict(x);
    fit_platt(scores, y, params_.platt_max_iters, &platt_a_, &platt_b_);
  } else {
    platt_a_ = 1.0;
    platt_b_ = 0.0;
  }
  fitted_ = true;
}

std::vector<double> BurstClassifier::predict(const data::MatrixView& x) const {
  if (!fitted_) throw std::logic_error("BurstClassifier::predict: not fitted");
  auto out = gbt_.predict(x);
  if (params_.kind == ClassifierKind::kLogistic) {
    for (double& v : out) v = sigmoid(platt_a_ * v + platt_b_);
  } else {
    for (double& v : out) v = v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
  }
  return out;
}

std::vector<double> BurstClassifier::predict_labels(
    const data::MatrixView& x) const {
  if (!fitted_) {
    throw std::logic_error("BurstClassifier::predict_labels: not fitted");
  }
  auto scores = gbt_.predict(x);
  if (params_.kind == ClassifierKind::kLogistic) {
    // Decide in score space: sigmoid is strictly increasing, so
    // sigmoid(a*s + b) >= p  <=>  a*s + b >= logit(p).
    const double cut =
        std::log(params_.threshold / (1.0 - params_.threshold));
    for (double& s : scores) s = (platt_a_ * s + platt_b_ >= cut) ? 1.0 : 0.0;
  } else {
    for (double& s : scores) s = (s >= params_.threshold) ? 1.0 : 0.0;
  }
  return scores;
}

std::vector<double> BurstClassifier::decision_scores(
    const data::MatrixView& x) const {
  if (!fitted_) {
    throw std::logic_error("BurstClassifier::decision_scores: not fitted");
  }
  return gbt_.predict(x);
}

std::string BurstClassifier::name() const {
  return std::string("classifier[") +
         (params_.kind == ClassifierKind::kLogistic ? "logistic"
                                                    : "threshold") +
         ",trees=" + std::to_string(params_.gbt.n_estimators) +
         ",depth=" + std::to_string(params_.gbt.max_depth) + "]";
}

void BurstClassifier::save(std::ostream& out) const {
  if (!fitted_) throw std::logic_error("BurstClassifier::save: not fitted");
  write_header(out, "iotax-classifier");
  out << "kind "
      << (params_.kind == ClassifierKind::kLogistic ? "logistic"
                                                    : "threshold")
      << '\n';
  out << "threshold " << params_.threshold << '\n';
  out << "platt " << platt_a_ << ' ' << platt_b_ << '\n';
  gbt_.save(out);
  if (!out) throw std::runtime_error("BurstClassifier::save: stream failure");
}

BurstClassifier BurstClassifier::read(CheckpointReader& r) {
  BurstClassifier model;
  ClassifierParams& params = model.params_;
  std::string kind;
  r.expect("kind") >> kind;
  if (kind != "logistic" && kind != "threshold") {
    r.fail(util::Reason::kBadNumber,
           "iotax-classifier kind '" + kind + "' is not logistic or threshold");
  }
  params.kind = kind == "logistic" ? ClassifierKind::kLogistic
                                   : ClassifierKind::kThreshold;
  r.expect("threshold") >> params.threshold;
  r.expect("platt") >> model.platt_a_ >> model.platt_b_;
  r.header("iotax-gbt");
  model.gbt_ = GradientBoostedTrees::read(r);
  params.gbt = model.gbt_.params();
  r.checked([&] { params.validate(); });
  model.fitted_ = true;
  return model;
}

}  // namespace iotax::ml
