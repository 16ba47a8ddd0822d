#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>

#include "src/data/matrix.hpp"
#include "src/ml/binning.hpp"
#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/kernels/dispatch.hpp"
#include "src/ml/kernels/hist.hpp"
#include "src/ml/linear.hpp"
#include "src/ml/metrics.hpp"
#include "src/ml/model.hpp"
#include "src/ml/nas.hpp"
#include "src/ml/nn.hpp"
#include "src/ml/search.hpp"
#include "src/stats/descriptive.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

// Pin the kernel tier for one scope; restores "auto" on exit.
class ScopedKernels {
 public:
  explicit ScopedKernels(const char* policy) {
    ::setenv("IOTAX_KERNELS", policy, 1);
    ml::kernels::refresh();
  }
  ~ScopedKernels() {
    ::unsetenv("IOTAX_KERNELS");
    ml::kernels::refresh();
  }
};

class ScopedThreads {
 public:
  explicit ScopedThreads(const char* n) { ::setenv("IOTAX_THREADS", n, 1); }
  ~ScopedThreads() { ::unsetenv("IOTAX_THREADS"); }
};

TEST(Metrics, LogErrorsAreSignedDifferences) {
  const std::vector<double> yt = {1.0, 2.0};
  const std::vector<double> yp = {1.5, 1.5};
  const auto e = ml::log_errors(yt, yp);
  EXPECT_DOUBLE_EQ(e[0], 0.5);
  EXPECT_DOUBLE_EQ(e[1], -0.5);
}

TEST(Metrics, MedianAbsLogError) {
  const std::vector<double> yt = {1.0, 1.0, 1.0};
  const std::vector<double> yp = {1.1, 0.8, 1.0};
  EXPECT_NEAR(ml::median_abs_log_error(yt, yp), 0.1, 1e-12);
}

TEST(Metrics, SymmetricOverUnderEstimate) {
  // Over- and under-estimating by the same ratio gives the same error.
  const std::vector<double> yt = {3.0};
  const std::vector<double> over = {3.0 + std::log10(1.25)};
  const std::vector<double> under = {3.0 - std::log10(1.25)};
  EXPECT_NEAR(ml::mean_abs_log_error(yt, over),
              ml::mean_abs_log_error(yt, under), 1e-12);
}

TEST(Metrics, PercentConversionRoundTrip) {
  for (double pct : {-25.0, -5.0, 0.0, 10.01, 40.0}) {
    EXPECT_NEAR(ml::log_error_to_percent(ml::percent_to_log_error(pct)), pct,
                1e-9);
  }
  EXPECT_THROW(ml::percent_to_log_error(-100.0), std::invalid_argument);
}

TEST(Metrics, RejectsSizeMismatch) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(ml::log_errors(a, b), std::invalid_argument);
}

TEST(MeanRegressor, PredictsTrainMean) {
  data::Matrix x(4, 1);
  const std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
  ml::MeanRegressor m;
  m.fit(x, y);
  const auto p = m.predict(x);
  for (double v : p) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(MeanRegressor, ThrowsBeforeFit) {
  ml::MeanRegressor m;
  EXPECT_THROW(m.predict(data::Matrix(1, 1)), std::logic_error);
}

TEST(Binning, CodesRespectOrder) {
  data::Matrix x(100, 1);
  for (std::size_t i = 0; i < 100; ++i) x(i, 0) = static_cast<double>(i);
  ml::BinnedMatrix binned(x, 8);
  EXPECT_LE(binned.n_bins(0), 8u);
  EXPECT_GE(binned.n_bins(0), 2u);
  // Codes must be monotone in the raw value.
  for (std::size_t i = 1; i < 100; ++i) {
    EXPECT_LE(binned.code(i - 1, 0), binned.code(i, 0));
  }
}

TEST(Binning, ConstantColumnGetsSingleBin) {
  data::Matrix x(10, 1, 3.0);
  ml::BinnedMatrix binned(x, 16);
  EXPECT_EQ(binned.n_bins(0), 1u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(binned.code(i, 0), 0);
}

TEST(Binning, EncodeMatchesTrainingCodes) {
  util::Rng rng(1);
  data::Matrix x(200, 1);
  for (std::size_t i = 0; i < 200; ++i) x(i, 0) = rng.normal();
  ml::BinnedMatrix binned(x, 32);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(binned.encode(0, x(i, 0)), binned.code(i, 0));
  }
}

TEST(Binning, ThresholdSplitsConsistently) {
  data::Matrix x(100, 1);
  for (std::size_t i = 0; i < 100; ++i) x(i, 0) = static_cast<double>(i);
  ml::BinnedMatrix binned(x, 8);
  const std::size_t b = 2;
  const double thr = binned.threshold(0, b);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(x(i, 0) <= thr, binned.code(i, 0) <= b);
  }
}

// Synthetic regression problem: y = 2*x0 - x1 + 0.5*x0*x1 + noise.
struct Problem {
  data::Matrix x_train{0, 0};
  std::vector<double> y_train;
  data::Matrix x_test{0, 0};
  std::vector<double> y_test;
};

Problem make_problem(std::size_t n_train, std::size_t n_test, double noise,
                     std::uint64_t seed) {
  util::Rng rng(seed);
  Problem p;
  const auto gen = [&rng, noise](std::size_t n, data::Matrix* x,
                                 std::vector<double>* y) {
    *x = data::Matrix(n, 3);
    y->resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double a = rng.uniform(-2.0, 2.0);
      const double b = rng.uniform(-2.0, 2.0);
      const double c = rng.uniform(-1.0, 1.0);  // irrelevant feature
      (*x)(i, 0) = a;
      (*x)(i, 1) = b;
      (*x)(i, 2) = c;
      (*y)[i] = 2.0 * a - b + 0.5 * a * b + rng.normal(0.0, noise);
    }
  };
  gen(n_train, &p.x_train, &p.y_train);
  gen(n_test, &p.x_test, &p.y_test);
  return p;
}

TEST(Linear, RecoversLinearRelationship) {
  util::Rng rng(2);
  data::Matrix x(500, 2);
  std::vector<double> y(500);
  for (std::size_t i = 0; i < 500; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    x(i, 1) = rng.uniform(-1.0, 1.0);
    y[i] = 3.0 + 2.0 * x(i, 0) - x(i, 1);
  }
  ml::LinearRegressor lin(1e-6, /*log_transform=*/false);
  lin.fit(x, y);
  const auto p = lin.predict(x);
  EXPECT_LT(ml::rmse_log(y, p), 0.02);
}

TEST(Linear, LogTransformHandlesCounterScales) {
  // y depends on log of a counter spanning 8 orders of magnitude; the
  // default preprocessing makes this learnable by a linear model.
  util::Rng rng(31);
  data::Matrix x(800, 1);
  std::vector<double> y(800);
  for (std::size_t i = 0; i < 800; ++i) {
    const double counter = std::pow(10.0, rng.uniform(1.0, 9.0));
    x(i, 0) = counter;
    y[i] = 0.5 * std::log10(1.0 + counter);
  }
  ml::LinearRegressor lin(1e-6);
  lin.fit(x, y);
  EXPECT_LT(ml::rmse_log(y, lin.predict(x)), 0.02);
}

TEST(Linear, HandlesCollinearFeatures) {
  data::Matrix x(50, 2);
  std::vector<double> y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = static_cast<double>(i);  // perfectly collinear
    y[i] = static_cast<double>(i);
  }
  ml::LinearRegressor lin(1.0);
  EXPECT_NO_THROW(lin.fit(x, y));  // ridge keeps the solve well-posed
}

TEST(Gbt, ParamsValidate) {
  ml::GbtParams p;
  p.learning_rate = 0.0;
  EXPECT_THROW(ml::GradientBoostedTrees{p}, std::invalid_argument);
  p = ml::GbtParams{};
  p.subsample = 1.5;
  EXPECT_THROW(ml::GradientBoostedTrees{p}, std::invalid_argument);
}

TEST(Gbt, LearnsNonlinearInteraction) {
  const auto prob = make_problem(2000, 500, 0.05, 3);
  ml::GbtParams params;
  params.n_estimators = 120;
  params.max_depth = 4;
  params.learning_rate = 0.15;
  ml::GradientBoostedTrees gbt(params);
  gbt.fit(prob.x_train, prob.y_train);
  const auto pred = gbt.predict(prob.x_test);
  EXPECT_LT(ml::rmse_log(prob.y_test, pred), 0.18);
}

TEST(Gbt, BeatsLinearOnInteractions) {
  const auto prob = make_problem(2000, 500, 0.05, 4);
  ml::GradientBoostedTrees gbt({.n_estimators = 120,
                                .max_depth = 4,
                                .learning_rate = 0.15});
  gbt.fit(prob.x_train, prob.y_train);
  ml::LinearRegressor lin(1.0);
  lin.fit(prob.x_train, prob.y_train);
  EXPECT_LT(ml::rmse_log(prob.y_test, gbt.predict(prob.x_test)),
            ml::rmse_log(prob.y_test, lin.predict(prob.x_test)));
}

TEST(Gbt, DeterministicForSameSeed) {
  const auto prob = make_problem(500, 100, 0.05, 5);
  ml::GbtParams params;
  params.n_estimators = 20;
  params.subsample = 0.7;
  params.colsample = 0.7;
  ml::GradientBoostedTrees a(params);
  ml::GradientBoostedTrees b(params);
  a.fit(prob.x_train, prob.y_train);
  b.fit(prob.x_train, prob.y_train);
  const auto pa = a.predict(prob.x_test);
  const auto pb = b.predict(prob.x_test);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(Gbt, MoreTreesReduceTrainError) {
  const auto prob = make_problem(1000, 100, 0.02, 6);
  ml::GradientBoostedTrees small({.n_estimators = 5, .max_depth = 3});
  ml::GradientBoostedTrees large({.n_estimators = 80, .max_depth = 3});
  small.fit(prob.x_train, prob.y_train);
  large.fit(prob.x_train, prob.y_train);
  EXPECT_LT(ml::rmse_log(prob.y_train, large.predict(prob.x_train)),
            ml::rmse_log(prob.y_train, small.predict(prob.x_train)));
}

TEST(Gbt, IrrelevantFeatureGetsLowImportance) {
  const auto prob = make_problem(2000, 100, 0.02, 7);
  ml::GradientBoostedTrees gbt({.n_estimators = 60, .max_depth = 4});
  gbt.fit(prob.x_train, prob.y_train);
  const auto imp = gbt.feature_importances();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[1], imp[2]);
  EXPECT_LT(imp[2], 0.05);
  EXPECT_NEAR(imp[0] + imp[1] + imp[2], 1.0, 1e-9);
}

TEST(Gbt, SubsampleAndColsampleStillLearn) {
  const auto prob = make_problem(2000, 400, 0.05, 8);
  ml::GradientBoostedTrees gbt({.n_estimators = 150,
                                .max_depth = 4,
                                .learning_rate = 0.1,
                                .subsample = 0.6,
                                .colsample = 0.7});
  gbt.fit(prob.x_train, prob.y_train);
  EXPECT_LT(ml::rmse_log(prob.y_test, gbt.predict(prob.x_test)), 0.25);
}

TEST(Gbt, PredictRejectsWrongWidth) {
  const auto prob = make_problem(200, 10, 0.05, 9);
  ml::GradientBoostedTrees gbt({.n_estimators = 5});
  gbt.fit(prob.x_train, prob.y_train);
  EXPECT_THROW(gbt.predict(data::Matrix(3, 7)), std::invalid_argument);
  ml::GradientBoostedTrees unfitted;
  EXPECT_THROW(unfitted.predict(prob.x_test), std::logic_error);
}

TEST(Mlp, ParamsValidate) {
  ml::MlpParams p;
  p.dropout = 1.0;
  EXPECT_THROW(ml::Mlp{p}, std::invalid_argument);
  p = ml::MlpParams{};
  p.hidden = {0};
  EXPECT_THROW(ml::Mlp{p}, std::invalid_argument);
}

TEST(Mlp, LearnsNonlinearFunction) {
  const auto prob = make_problem(2000, 500, 0.05, 10);
  ml::MlpParams params;
  params.hidden = {32, 32};
  params.epochs = 60;
  params.learning_rate = 3e-3;
  ml::Mlp mlp(params);
  mlp.fit(prob.x_train, prob.y_train);
  EXPECT_LT(ml::rmse_log(prob.y_test, mlp.predict(prob.x_test)), 0.25);
}

TEST(Mlp, DeterministicForSameSeed) {
  const auto prob = make_problem(300, 50, 0.05, 11);
  ml::MlpParams params;
  params.hidden = {16};
  params.epochs = 5;
  ml::Mlp a(params);
  ml::Mlp b(params);
  a.fit(prob.x_train, prob.y_train);
  b.fit(prob.x_train, prob.y_train);
  const auto pa = a.predict(prob.x_test);
  const auto pb = b.predict(prob.x_test);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(Mlp, DropoutStillLearns) {
  const auto prob = make_problem(2000, 300, 0.05, 12);
  ml::MlpParams params;
  params.hidden = {48, 48};
  params.epochs = 120;
  params.learning_rate = 3e-3;
  params.dropout = 0.1;
  ml::Mlp mlp(params);
  mlp.fit(prob.x_train, prob.y_train);
  EXPECT_LT(ml::rmse_log(prob.y_test, mlp.predict(prob.x_test)), 0.4);
}

TEST(Mlp, NllHeadEstimatesNoiseLevel) {
  // Heteroscedastic data: noise depends on x0's sign.
  util::Rng rng(13);
  const std::size_t n = 4000;
  data::Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    const double sigma = x(i, 0) > 0.0 ? 0.5 : 0.05;
    y[i] = x(i, 0) + rng.normal(0.0, sigma);
  }
  ml::MlpParams params;
  params.hidden = {32, 32};
  params.epochs = 80;
  params.learning_rate = 3e-3;
  params.nll_head = true;
  ml::Mlp mlp(params);
  mlp.fit(x, y);

  data::Matrix probe(2, 1);
  probe(0, 0) = 0.7;
  probe(1, 0) = -0.7;
  const auto pred = mlp.predict_dist(probe);
  // The noisy side should get clearly larger predicted variance.
  EXPECT_GT(pred.variance[0], 3.0 * pred.variance[1]);
}

TEST(Mlp, PredictDistRequiresNllHead) {
  const auto prob = make_problem(100, 10, 0.05, 14);
  ml::MlpParams params;
  params.epochs = 1;
  ml::Mlp mlp(params);
  mlp.fit(prob.x_train, prob.y_train);
  EXPECT_THROW(mlp.predict_dist(prob.x_test), std::logic_error);
}

// Test-only per-row reference trainer: Mlp's row-at-a-time forward and
// epoch loop as they were before training went layer-major, transcribed
// (init, shuffle, dropout draws, backprop and Adam in the same order and
// association). Mlp::fit must reproduce its predictions bit for bit. A
// fixed reference rather than a stored digest: the digest would change
// with the libm the test links.
class RowwiseMlp {
 public:
  explicit RowwiseMlp(ml::MlpParams p) : p_(std::move(p)) {}

  void fit(const data::Matrix& x, const std::vector<double>& y) {
    const data::Matrix z = scaler_.fit_transform_log1p(x);
    y_mean_ = stats::mean(y);
    y_scale_ = std::max(stats::stddev(y), 1e-6);
    std::vector<std::size_t> widths = {z.cols()};
    for (std::size_t h : p_.hidden) widths.push_back(h);
    widths.push_back(p_.nll_head ? 2 : 1);
    util::Rng rng(p_.seed);
    offsets_.assign(1, 0);
    total_ = widths[0];
    for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
      Layer layer;
      layer.in = widths[l];
      layer.out = widths[l + 1];
      layer.w.resize(layer.in * layer.out);
      layer.b.assign(layer.out, 0.0);
      const double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
      for (auto& w : layer.w) w = rng.normal(0.0, scale);
      layer.mw.assign(layer.w.size(), 0.0);
      layer.vw.assign(layer.w.size(), 0.0);
      layer.mb.assign(layer.out, 0.0);
      layer.vb.assign(layer.out, 0.0);
      layers_.push_back(std::move(layer));
      offsets_.push_back(total_);
      total_ += widths[l + 1];
    }
    shuffle_rng_ = rng.fork(1);
    dropout_rng_ = rng.fork(2);
    run_epochs(z, y, p_.epochs);
  }

  void fit_continue(const data::Matrix& x, const std::vector<double>& y,
                    std::size_t extra) {
    run_epochs(scaler_.transform_log1p(x), y, extra);
  }

  // Mean and variance in target units (variance only for an NLL head).
  void predict(const data::Matrix& x, std::vector<double>* mean,
               std::vector<double>* variance) const {
    const data::Matrix z = scaler_.transform_log1p(x);
    std::vector<double> acts(total_);
    mean->resize(z.rows());
    variance->resize(p_.nll_head ? z.rows() : 0);
    for (std::size_t r = 0; r < z.rows(); ++r) {
      forward(z.row(r), &acts, nullptr, nullptr);
      const double* out = acts.data() + offsets_.back();
      (*mean)[r] = out[0] * y_scale_ + y_mean_;
      if (p_.nll_head) {
        const double log_var = std::clamp(out[1], -8.0, 4.0);
        (*variance)[r] = std::exp(log_var) * y_scale_ * y_scale_;
      }
    }
  }

 private:
  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<double> w, b, mw, vw, mb, vb;
  };

  void forward(std::span<const double> input, std::vector<double>* acts,
               util::Rng* dropout_rng, std::vector<char>* masks) const {
    std::copy(input.begin(), input.end(), acts->begin());
    const double keep = 1.0 - p_.dropout;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      const double* in = acts->data() + offsets_[l];
      double* out = acts->data() + offsets_[l + 1];
      for (std::size_t o = 0; o < layer.out; ++o) {
        const double* w = layer.w.data() + o * layer.in;
        double acc = layer.b[o];
        for (std::size_t i = 0; i < layer.in; ++i) acc += w[i] * in[i];
        out[o] = acc;
      }
      if (l + 1 < layers_.size()) {
        for (std::size_t o = 0; o < layer.out; ++o) {
          out[o] = std::max(0.0, out[o]);
        }
        if (dropout_rng != nullptr && p_.dropout > 0.0) {
          char* m = masks->data() + offsets_[l + 1];
          for (std::size_t o = 0; o < layer.out; ++o) {
            const bool kept = dropout_rng->uniform() < keep;
            m[o] = kept ? 1 : 0;
            out[o] = kept ? out[o] / keep : 0.0;
          }
        }
      }
    }
  }

  void run_epochs(const data::Matrix& z, const std::vector<double>& y,
                  std::size_t n_epochs) {
    std::vector<double> ty(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
      ty[i] = (y[i] - y_mean_) / y_scale_;
    }
    constexpr double kBeta1 = 0.9;
    constexpr double kBeta2 = 0.999;
    constexpr double kEps = 1e-8;
    std::vector<double> acts(total_);
    std::vector<double> deltas(total_);
    std::vector<char> masks(total_, 1);
    std::vector<std::vector<double>> gw(layers_.size());
    std::vector<std::vector<double>> gb(layers_.size());
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      gw[l].assign(layers_[l].w.size(), 0.0);
      gb[l].assign(layers_[l].b.size(), 0.0);
    }
    if (order_.size() != z.rows()) {
      order_.resize(z.rows());
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    }
    for (std::size_t epoch = 0; epoch < n_epochs; ++epoch) {
      shuffle_rng_.shuffle(order_);
      for (std::size_t start = 0; start < order_.size();
           start += p_.batch_size) {
        const std::size_t end = std::min(order_.size(), start + p_.batch_size);
        const auto batch_n = static_cast<double>(end - start);
        for (auto& g : gw) std::fill(g.begin(), g.end(), 0.0);
        for (auto& g : gb) std::fill(g.begin(), g.end(), 0.0);
        for (std::size_t bi = start; bi < end; ++bi) {
          const std::size_t r = order_[bi];
          forward(z.row(r), &acts, p_.dropout > 0.0 ? &dropout_rng_ : nullptr,
                  &masks);
          const std::size_t out_off = offsets_.back();
          std::fill(deltas.begin(), deltas.end(), 0.0);
          if (p_.nll_head) {
            const double mu = acts[out_off];
            const double log_var = std::clamp(acts[out_off + 1], -8.0, 4.0);
            const double var = std::exp(log_var);
            const double diff = mu - ty[r];
            deltas[out_off] = diff / var;
            deltas[out_off + 1] = 0.5 - 0.5 * diff * diff / var;
          } else {
            deltas[out_off] = acts[out_off] - ty[r];
          }
          for (std::size_t li = layers_.size(); li > 0; --li) {
            const std::size_t l = li - 1;
            const Layer& layer = layers_[l];
            const double* in = acts.data() + offsets_[l];
            const double* dout = deltas.data() + offsets_[l + 1];
            double* din = deltas.data() + offsets_[l];
            for (std::size_t o = 0; o < layer.out; ++o) {
              const double d = dout[o];
              if (d == 0.0) continue;
              double* gwp = gw[l].data() + o * layer.in;
              const double* w = layer.w.data() + o * layer.in;
              for (std::size_t i = 0; i < layer.in; ++i) {
                gwp[i] += d * in[i];
                din[i] += d * w[i];
              }
              gb[l][o] += d;
            }
            if (l > 0) {
              const char* m = masks.data() + offsets_[l];
              const double keep = 1.0 - p_.dropout;
              for (std::size_t i = 0; i < layer.in; ++i) {
                if (in[i] <= 0.0) {
                  din[i] = 0.0;
                } else if (p_.dropout > 0.0) {
                  din[i] = m[i] != 0 ? din[i] / keep : 0.0;
                }
              }
            }
          }
        }
        ++step_;
        const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(step_));
        const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(step_));
        for (std::size_t l = 0; l < layers_.size(); ++l) {
          Layer& layer = layers_[l];
          for (std::size_t i = 0; i < layer.w.size(); ++i) {
            const double g = gw[l][i] / batch_n;
            layer.mw[i] = kBeta1 * layer.mw[i] + (1.0 - kBeta1) * g;
            layer.vw[i] = kBeta2 * layer.vw[i] + (1.0 - kBeta2) * g * g;
            const double mhat = layer.mw[i] / bc1;
            const double vhat = layer.vw[i] / bc2;
            layer.w[i] -= p_.learning_rate * (mhat / (std::sqrt(vhat) + kEps) +
                                              p_.weight_decay * layer.w[i]);
          }
          for (std::size_t i = 0; i < layer.b.size(); ++i) {
            const double g = gb[l][i] / batch_n;
            layer.mb[i] = kBeta1 * layer.mb[i] + (1.0 - kBeta1) * g;
            layer.vb[i] = kBeta2 * layer.vb[i] + (1.0 - kBeta2) * g * g;
            const double mhat = layer.mb[i] / bc1;
            const double vhat = layer.vb[i] / bc2;
            layer.b[i] -= p_.learning_rate * mhat / (std::sqrt(vhat) + kEps);
          }
        }
      }
    }
  }

  ml::MlpParams p_;
  data::StandardScaler scaler_;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
  std::vector<Layer> layers_;
  std::vector<std::size_t> offsets_;
  std::size_t total_ = 0;
  std::vector<std::size_t> order_;
  std::size_t step_ = 0;
  util::Rng shuffle_rng_{0};
  util::Rng dropout_rng_{0};
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Mlp's predictions (mean, and variance for an NLL head) against the
// reference's, bit for bit.
void expect_matches_reference(const ml::Mlp& mlp, const RowwiseMlp& ref,
                              const data::Matrix& x, const std::string& what) {
  std::vector<double> mean;
  std::vector<double> variance;
  ref.predict(x, &mean, &variance);
  if (mlp.params().nll_head) {
    const auto dist = mlp.predict_dist(x);
    EXPECT_TRUE(same_bits(dist.mean, mean)) << what;
    EXPECT_TRUE(same_bits(dist.variance, variance)) << what;
  } else {
    EXPECT_TRUE(same_bits(mlp.predict(x), mean)) << what;
  }
}

TEST(MlpBatchTraining, BitIdenticalToRowwiseReference) {
  const std::vector<std::vector<std::size_t>> archs = {
      {}, {5}, {16, 7}, {96, 64, 96}};
  for (const std::size_t rows : {63UL, 64UL, 65UL, 210UL}) {
    const auto prob = make_problem(rows, 0, 0.05, 100 + rows);
    for (const bool nll : {false, true}) {
      for (const double dropout : {0.0, 0.15}) {
        for (const auto& hidden : archs) {
          for (const std::size_t batch : {1UL, 64UL, 300UL}) {
            ml::MlpParams p;
            p.hidden = hidden;
            p.nll_head = nll;
            p.dropout = dropout;
            p.batch_size = batch;
            p.epochs = 3;
            p.learning_rate = 3e-3;
            p.seed = 7 + batch;
            ml::Mlp mlp(p);
            mlp.fit(prob.x_train, prob.y_train);
            RowwiseMlp ref(p);
            ref.fit(prob.x_train, prob.y_train);
            expect_matches_reference(mlp, ref, prob.x_train,
                                     p.to_string() + " rows=" +
                                         std::to_string(rows) + " batch=" +
                                         std::to_string(batch));
          }
        }
      }
    }
  }
}

TEST(MlpBatchTraining, FitContinueBitIdenticalToRowwiseReference) {
  const auto prob = make_problem(150, 0, 0.05, 31);
  for (const double dropout : {0.0, 0.15}) {
    ml::MlpParams p;
    p.hidden = {16, 7};
    p.nll_head = true;
    p.dropout = dropout;
    p.batch_size = 64;
    p.epochs = 2;
    ml::Mlp mlp(p);
    mlp.fit(prob.x_train, prob.y_train);
    mlp.fit_continue(prob.x_train, prob.y_train, 3);
    RowwiseMlp ref(p);
    ref.fit(prob.x_train, prob.y_train);
    ref.fit_continue(prob.x_train, prob.y_train, 3);
    expect_matches_reference(mlp, ref, prob.x_train, p.to_string());
  }
}

TEST(MlpBatchTraining, DeepEnsembleMembersBitIdenticalToRowwiseReference) {
  const auto prob = make_problem(200, 0, 0.05, 37);
  ml::EnsembleParams params;
  params.size = 3;
  params.epochs = 3;
  ml::DeepEnsemble ens(params);
  ens.fit(prob.x_train, prob.y_train);
  for (std::size_t k = 0; k < ens.size(); ++k) {
    RowwiseMlp ref(ens.member(k).params());
    ref.fit(prob.x_train, prob.y_train);
    expect_matches_reference(ens.member(k), ref, prob.x_train,
                             "member " + std::to_string(k));
  }
}

// Test-only reference booster: GradientBoostedTrees' squared-loss fit
// as it was before each tree carried a live-feature list, so every node
// scans every sampled feature. It is transcribed from public pieces
// only: BinnedMatrix codes and thresholds, kernels::node_scan on the
// scalar tier, kernels::node_sum, and std::partition with the same
// predicate. GradientBoostedTrees must reproduce its predictions and
// importances bit for bit on either tier.
class ReferenceGbt {
 public:
  explicit ReferenceGbt(ml::GbtParams p) : p_(std::move(p)) {}

  void fit(const data::Matrix& x, const std::vector<double>& y) {
    ScopedKernels tier("scalar");
    const ml::BinnedMatrix binned(x, p_.max_bins);
    base_ = stats::mean(y);
    importance_.assign(x.cols(), 0.0);
    util::Rng rng(p_.seed);
    std::vector<double> preds(x.rows(), base_);
    std::vector<double> grad(x.rows());
    std::vector<std::size_t> all_rows(x.rows());
    std::iota(all_rows.begin(), all_rows.end(), 0);
    std::vector<std::size_t> all_features(x.cols());
    std::iota(all_features.begin(), all_features.end(), 0);
    const auto n_sub = std::max<std::size_t>(
        2, static_cast<std::size_t>(p_.subsample *
                                    static_cast<double>(x.rows())));
    const auto n_col = std::max<std::size_t>(
        1, static_cast<std::size_t>(p_.colsample *
                                    static_cast<double>(x.cols())));
    for (std::size_t t = 0; t < p_.n_estimators; ++t) {
      for (std::size_t i = 0; i < x.rows(); ++i) grad[i] = preds[i] - y[i];
      const auto rows = p_.subsample < 1.0
                            ? rng.sample_without_replacement(x.rows(), n_sub)
                            : all_rows;
      const auto features =
          p_.colsample < 1.0
              ? rng.sample_without_replacement(x.cols(), n_col)
              : all_features;
      trees_.push_back(build(binned, rows, features, grad));
      for (std::size_t i = 0; i < x.rows(); ++i) {
        preds[i] += leaf(trees_.back(), [&](const Node& n) {
          return binned.code(i, static_cast<std::size_t>(n.feature)) <=
                 n.bin;
        });
      }
    }
  }

  std::vector<double> predict(const data::Matrix& x) const {
    std::vector<double> out(x.rows(), base_);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (const auto& tree : trees_) {
        out[i] += leaf(tree, [&](const Node& n) {
          return x(i, static_cast<std::size_t>(n.feature)) <= n.threshold;
        });
      }
    }
    return out;
  }

  std::vector<double> importances() const {
    std::vector<double> imp = importance_;
    double total = 0.0;
    for (const double v : imp) total += v;
    if (total > 0.0) {
      for (double& v : imp) v /= total;
    }
    return imp;
  }

 private:
  struct Node {
    int feature = -1;
    std::size_t bin = 0;
    double threshold = 0.0;
    std::size_t left = 0;
    std::size_t right = 0;
    double value = 0.0;
  };
  using Tree = std::vector<Node>;

  template <typename GoesLeft>
  static double leaf(const Tree& tree, const GoesLeft& goes_left) {
    std::size_t k = 0;
    while (tree[k].feature >= 0) {
      k = goes_left(tree[k]) ? tree[k].left : tree[k].right;
    }
    return tree[k].value;
  }

  Tree build(const ml::BinnedMatrix& binned, std::vector<std::size_t> order,
             const std::vector<std::size_t>& features,
             const std::vector<double>& grad) {
    struct Item {
      std::size_t node;
      std::size_t lo;
      std::size_t hi;
      std::size_t depth;
    };
    Tree tree(1);
    std::vector<Item> stack = {{0, 0, order.size(), 0}};
    std::vector<double> node_grad(order.size());
    std::vector<std::size_t> bins(binned.cols());
    for (std::size_t f = 0; f < bins.size(); ++f) bins[f] = binned.n_bins(f);
    while (!stack.empty()) {
      const Item item = stack.back();
      stack.pop_back();
      const std::size_t n = item.hi - item.lo;
      for (std::size_t i = 0; i < n; ++i) {
        node_grad[i] = grad[order[item.lo + i]];
      }
      const double g_total = ml::kernels::node_sum(node_grad.data(), n);
      const auto h_total = static_cast<double>(n);
      const double leaf_value =
          -g_total / (h_total + p_.reg_lambda) * p_.learning_rate;
      if (item.depth >= p_.max_depth ||
          h_total < 2.0 * p_.min_child_weight) {
        tree[item.node].value = leaf_value;
        continue;
      }
      const ml::kernels::NodeScanParams scan{
          g_total,           h_total,
          p_.reg_lambda,     p_.min_child_weight,
          p_.min_split_gain, g_total * g_total / (h_total + p_.reg_lambda)};
      std::vector<ml::kernels::SplitScan> scans(features.size());
      ml::kernels::node_scan({binned.col_codes(0).data(), binned.rows(),
                              bins.data()},
                             features.data(), features.size(),
                             order.data() + item.lo, n, node_grad.data(),
                             scan, scans.data());
      int best_feature = -1;
      std::size_t best_bin = 0;
      double best_gain = p_.min_split_gain;
      for (std::size_t j = 0; j < features.size(); ++j) {
        const auto& c = scans[j];
        if (c.valid && c.gain > best_gain) {
          best_gain = c.gain;
          best_feature = static_cast<int>(features[j]);
          best_bin = c.bin;
        }
      }
      if (best_feature < 0) {
        tree[item.node].value = leaf_value;
        continue;
      }
      const auto f = static_cast<std::size_t>(best_feature);
      const auto mid = static_cast<std::size_t>(
          std::partition(order.begin() + static_cast<long>(item.lo),
                         order.begin() + static_cast<long>(item.hi),
                         [&](std::size_t r) {
                           return binned.code(r, f) <= best_bin;
                         }) -
          order.begin());
      if (mid == item.lo || mid == item.hi) {
        tree[item.node].value = leaf_value;
        continue;
      }
      Node& node = tree[item.node];
      node.feature = best_feature;
      node.bin = best_bin;
      node.threshold = binned.threshold(f, best_bin);
      node.left = tree.size();
      node.right = tree.size() + 1;
      importance_[f] += best_gain;
      const std::size_t left = node.left;
      tree.resize(tree.size() + 2);
      stack.push_back({left, item.lo, mid, item.depth + 1});
      stack.push_back({left + 1, mid, item.hi, item.depth + 1});
    }
    return tree;
  }

  ml::GbtParams p_;
  double base_ = 0.0;
  std::vector<double> importance_;
  std::vector<Tree> trees_;
};

// Columns that make features go constant inside nodes: an all-zero
// column, a near-constant one, a three-level one, two informative
// continuous ones and noise.
data::Matrix constant_prone_matrix(std::size_t n, util::Rng& rng) {
  data::Matrix x(n, 6);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-2.0, 2.0);
    x(i, 1) = rng.uniform(-2.0, 2.0);
    x(i, 2) = 0.0;
    x(i, 3) = rng.uniform() < 0.03 ? 1.0 : 0.0;
    x(i, 4) = static_cast<double>(rng.uniform_int(0, 2));
    x(i, 5) = rng.normal();
  }
  return x;
}

TEST(Gbt, LiveFeatureListBitIdenticalToFullScanReference) {
  util::Rng rng(41);
  const auto x = constant_prone_matrix(240, rng);
  const auto probe = constant_prone_matrix(80, rng);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = x(i, 0) * x(i, 4) - x(i, 1) + 2.0 * x(i, 3) + rng.normal(0.0, 0.1);
  }
  for (const double mcw : {0.0, 1.0, 5.0}) {
    for (const double msg : {-1.0, 0.0}) {
      for (const double sub : {1.0, 0.7}) {
        for (const double col : {1.0, 0.7}) {
          for (const std::size_t depth : {1UL, 6UL, 16UL}) {
            ml::GbtParams p;
            p.n_estimators = 4;
            p.max_depth = depth;
            p.min_child_weight = mcw;
            p.min_split_gain = msg;
            p.subsample = sub;
            p.colsample = col;
            ReferenceGbt ref(p);
            ref.fit(x, y);
            const auto want = ref.predict(probe);
            const auto want_imp = ref.importances();
            for (const char* tier : {"scalar", "avx2"}) {
              ScopedKernels pin(tier);
              ml::GradientBoostedTrees model(p);
              model.fit(x, y);
              const std::string what =
                  std::string(tier) + " mcw=" + std::to_string(mcw) +
                  " msg=" + std::to_string(msg) + " sub=" +
                  std::to_string(sub) + " col=" + std::to_string(col) +
                  " depth=" + std::to_string(depth);
              EXPECT_TRUE(same_bits(model.predict(probe), want)) << what;
              EXPECT_TRUE(same_bits(model.feature_importances(), want_imp))
                  << what;
            }
          }
        }
      }
    }
  }
}

TEST(Search, GridSearchFindsReasonableConfig) {
  const auto prob = make_problem(800, 300, 0.05, 15);
  ml::GbtGrid grid;
  grid.n_estimators = {5, 40};
  grid.max_depth = {2, 5};
  grid.subsample = {1.0};
  grid.colsample = {1.0};
  std::size_t calls = 0;
  const auto res = ml::grid_search(
      grid, prob.x_train, prob.y_train, prob.x_test, prob.y_test,
      [&calls](const ml::SearchPoint&) { ++calls; });
  EXPECT_EQ(res.evaluated.size(), 4u);
  EXPECT_EQ(calls, 4u);
  // Best should be the larger model on this nonlinear problem.
  EXPECT_EQ(res.best.params.n_estimators, 40u);
  for (const auto& pt : res.evaluated) {
    EXPECT_GE(pt.val_error, res.best.val_error);
  }
}

TEST(Search, BestModelPrefixMatchesRefit) {
  const auto prob = make_problem(500, 200, 0.1, 19);
  const auto val = make_problem(150, 0, 0.1, 20);
  ml::GbtGrid grid;
  grid.n_estimators = {6, 12, 24};
  grid.max_depth = {2, 5};
  grid.subsample = {0.8, 1.0};
  grid.colsample = {1.0};
  for (const char* threads : {"1", "4"}) {
    ScopedThreads pin(threads);
    const auto res = ml::grid_search(grid, prob.x_train, prob.y_train,
                                     val.x_train, val.y_train);
    ASSERT_NE(res.best_model, nullptr) << threads;
    ml::GradientBoostedTrees refit(res.best.params);
    refit.fit(prob.x_train, prob.y_train);
    EXPECT_TRUE(same_bits(res.best_model->predict_prefix(
                              prob.x_test, res.best.params.n_estimators),
                          refit.predict(prob.x_test)))
        << "IOTAX_THREADS=" << threads;
  }
}

TEST(Nas, SearchImprovesOverGenerations) {
  const auto prob = make_problem(800, 300, 0.05, 18);
  ml::NasParams nas;
  nas.population = 6;
  nas.generations = 3;
  nas.epochs = 12;
  nas.widths = {8, 16, 32};
  nas.seed = 19;
  const auto res = ml::nas_search(nas, prob.x_train, prob.y_train, prob.x_test,
                                  prob.y_test);
  EXPECT_EQ(res.history.size(), 6u + 2u * 3u);  // pop + 2 gens x 3 children
  // Best-so-far curve is non-increasing and the flagged candidates match.
  double best = std::numeric_limits<double>::infinity();
  for (const auto& cand : res.history) {
    EXPECT_EQ(cand.improved_best, cand.val_error < best);
    best = std::min(best, cand.val_error);
  }
  EXPECT_DOUBLE_EQ(best, res.best.val_error);
  EXPECT_LT(res.best.val_error, 0.4);
}

TEST(Nas, RejectsBadParams) {
  const auto prob = make_problem(50, 10, 0.05, 20);
  ml::NasParams nas;
  nas.population = 1;
  EXPECT_THROW(ml::nas_search(nas, prob.x_train, prob.y_train, prob.x_test,
                              prob.y_test),
               std::invalid_argument);
}

TEST(Ensemble, EpistemicHigherOutOfDistribution) {
  // Train on x in [-1, 1]; probe far outside.
  util::Rng rng(21);
  const std::size_t n = 1500;
  data::Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    y[i] = std::sin(2.0 * x(i, 0)) + rng.normal(0.0, 0.05);
  }
  ml::EnsembleParams params;
  params.size = 5;
  params.epochs = 30;
  params.space.widths = {16, 32};
  ml::DeepEnsemble ens(params);
  ens.fit(x, y);

  data::Matrix probe(2, 1);
  probe(0, 0) = 0.3;   // in-distribution
  probe(1, 0) = 30.0;  // far out
  const auto pred = ens.predict_uncertainty(probe);
  EXPECT_GT(pred.epistemic[1], 5.0 * pred.epistemic[0]);
}

TEST(Ensemble, AleatoryTracksNoise) {
  util::Rng rng(22);
  const std::size_t n = 3000;
  data::Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    const double sigma = x(i, 0) > 0.0 ? 0.4 : 0.05;
    y[i] = x(i, 0) + rng.normal(0.0, sigma);
  }
  ml::EnsembleParams params;
  params.size = 4;
  params.epochs = 40;
  ml::DeepEnsemble ens(params);
  ens.fit(x, y);
  data::Matrix probe(2, 1);
  probe(0, 0) = 0.6;
  probe(1, 0) = -0.6;
  const auto pred = ens.predict_uncertainty(probe);
  EXPECT_GT(pred.aleatory[0], 2.0 * pred.aleatory[1]);
}

TEST(Ensemble, UsesNasHistoryArchitectures) {
  const auto prob = make_problem(300, 50, 0.05, 23);
  std::vector<ml::NasCandidate> history(3);
  history[0].params.hidden = {24};
  history[0].val_error = 0.1;
  history[1].params.hidden = {8};
  history[1].val_error = 0.3;
  history[2].params.hidden = {40, 40};
  history[2].val_error = 0.2;
  ml::EnsembleParams params;
  params.size = 2;
  params.epochs = 2;
  params.nas_history = history;
  ml::DeepEnsemble ens(params);
  ens.fit(prob.x_train, prob.y_train);
  // Members seeded from the two best candidates (by val error).
  EXPECT_EQ(ens.member(0).params().hidden, std::vector<std::size_t>{24});
  EXPECT_EQ(ens.member(1).params().hidden,
            (std::vector<std::size_t>{40, 40}));
}

TEST(Ensemble, RejectsTooSmall) {
  ml::EnsembleParams params;
  params.size = 1;
  EXPECT_THROW(ml::DeepEnsemble{params}, std::invalid_argument);
}

}  // namespace
}  // namespace iotax
