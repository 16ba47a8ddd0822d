// The burst classifier's contracts: classification metrics against
// hand-computed values, the threshold-adapter/logistic label
// equivalence (the decision layer is exactly monotone in the booster
// score), loading through the shared checkpoint dispatch (the byte-stable
// round trip is Checkpoint.RoundTripsEveryFamily's), thread-count
// bit-identity, and a truthful "no continuation" claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>

#include "src/data/matrix.hpp"
#include "src/ml/classifier.hpp"
#include "src/ml/model.hpp"
#include "src/ml/registry.hpp"
#include "src/stats/classification.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

struct Xy {
  data::Matrix x{0, 0};
  std::vector<double> y;
};

// Separable-with-overlap binary data: label from a noisy linear score.
Xy binary_data(std::uint64_t seed, std::size_t n = 400) {
  util::Rng rng(seed);
  Xy d;
  d.x = data::Matrix(n, 3);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) d.x(i, c) = rng.uniform(-1.0, 1.0);
    const double score =
        2.0 * d.x(i, 0) - d.x(i, 1) + rng.normal(0.0, 0.3);
    d.y[i] = score > 0.0 ? 1.0 : 0.0;
  }
  return d;
}

ml::GbtParams small_gbt() {
  ml::GbtParams p;
  p.n_estimators = 20;
  p.max_depth = 3;
  return p;
}

TEST(ClassificationMetrics, ConfusionAndRatiosHandComputed) {
  //                 y:  1  1  1  0  0  0  1  0
  //              pred:  1  0  1  0  1  0  1  0
  const std::vector<double> y = {1, 1, 1, 0, 0, 0, 1, 0};
  const std::vector<double> p = {1, 0, 1, 0, 1, 0, 1, 0};
  const auto c = stats::confusion_counts(y, p);
  EXPECT_EQ(c.tp, 3u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.tn, 3u);
  EXPECT_EQ(c.total(), 8u);
  EXPECT_DOUBLE_EQ(stats::accuracy(c), 6.0 / 8.0);
  EXPECT_DOUBLE_EQ(stats::precision(c), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(stats::recall(c), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(stats::f1_score(c), 3.0 / 4.0);  // p == r
}

TEST(ClassificationMetrics, DegenerateRatiosAreZeroNotNan) {
  const std::vector<double> y = {1, 1, 0};
  const std::vector<double> none = {0, 0, 0};  // no positive predictions
  EXPECT_DOUBLE_EQ(stats::precision(y, none), 0.0);
  EXPECT_DOUBLE_EQ(stats::recall(y, none), 0.0);
  EXPECT_DOUBLE_EQ(stats::f1_score(y, none), 0.0);
}

TEST(ClassificationMetrics, RejectsNonBinaryLabels) {
  const std::vector<double> y = {1.0, 0.5};
  const std::vector<double> p = {1.0, 0.0};
  EXPECT_THROW(stats::confusion_counts(y, p), std::invalid_argument);
  EXPECT_THROW(stats::confusion_counts(p, y), std::invalid_argument);
  EXPECT_THROW(stats::confusion_counts({}, {}), std::invalid_argument);
}

TEST(ClassificationMetrics, AucHandComputedWithTies) {
  // Scores: positives {0.9, 0.5}, negatives {0.5, 0.1}.
  // Pairs: (0.9 vs 0.5) win, (0.9 vs 0.1) win, (0.5 vs 0.5) half,
  // (0.5 vs 0.1) win -> U = 3.5 of 4.
  const std::vector<double> y = {1, 1, 0, 0};
  const std::vector<double> s = {0.9, 0.5, 0.5, 0.1};
  EXPECT_DOUBLE_EQ(stats::roc_auc(y, s), 3.5 / 4.0);
  // Perfect separation and perfect inversion.
  const std::vector<double> sep = {0.8, 0.7, 0.2, 0.1};
  EXPECT_DOUBLE_EQ(stats::roc_auc(y, sep), 1.0);
  const std::vector<double> inv = {0.1, 0.2, 0.7, 0.8};
  EXPECT_DOUBLE_EQ(stats::roc_auc(y, inv), 0.0);
  // Input order must not matter (average-rank ties).
  const std::vector<double> y2 = {0, 1, 0, 1};
  const std::vector<double> s2 = {0.5, 0.5, 0.1, 0.9};
  EXPECT_DOUBLE_EQ(stats::roc_auc(y2, s2), 3.5 / 4.0);
}

TEST(ClassificationMetrics, AucUndefinedForOneClass) {
  const std::vector<double> ones = {1, 1};
  const std::vector<double> s = {0.1, 0.9};
  EXPECT_THROW(stats::roc_auc(ones, s), std::invalid_argument);
}

TEST(ClassifierParams, ValidateRejectsBadConfigs) {
  ml::ClassifierParams p;
  p.gbt = small_gbt();
  EXPECT_NO_THROW(p.validate());
  p.threshold = 1.0;  // logistic threshold is a probability
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.threshold = 0.5;
  p.gbt.loss = ml::GbtLoss::kQuantile;  // labels are squared-loss targets
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(BurstClassifier, FitRejectsNonBinaryAndOneClassTargets) {
  const auto d = binary_data(11);
  ml::ClassifierParams p;
  p.gbt = small_gbt();
  ml::BurstClassifier clf(p);
  auto bad = d.y;
  bad[0] = 0.25;
  EXPECT_THROW(clf.fit(d.x, bad), std::invalid_argument);
  const std::vector<double> ones(d.y.size(), 1.0);
  EXPECT_THROW(clf.fit(d.x, ones), std::invalid_argument);
}

TEST(BurstClassifier, LearnsAndCalibrates) {
  const auto train = binary_data(3);
  const auto test = binary_data(4);
  ml::ClassifierParams p;
  p.gbt = small_gbt();
  ml::BurstClassifier clf(p);
  clf.fit(train.x, train.y);
  EXPECT_GT(clf.platt_a(), 0.0);  // calibration must not invert the score
  const auto prob = clf.predict(test.x);
  for (const double v : prob) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  const auto labels = clf.predict_labels(test.x);
  EXPECT_GT(stats::accuracy(test.y, labels), 0.85);
  EXPECT_GT(stats::roc_auc(test.y, prob), 0.9);
}

TEST(BurstClassifier, ThresholdAdapterEquivalentToLogisticLabels) {
  // The logistic decision at probability p is (a*s + b >= logit(p)),
  // i.e. a pure score threshold at t = (logit(p) - b) / a when a > 0.
  // A threshold-kind classifier over the identical booster must
  // therefore produce the exact same labels — the decision layers are
  // two parameterisations of one monotone rule.
  const auto train = binary_data(5);
  const auto test = binary_data(6);

  ml::ClassifierParams lp;
  lp.kind = ml::ClassifierKind::kLogistic;
  lp.threshold = 0.35;  // off 0.5 so b alone doesn't decide
  lp.gbt = small_gbt();
  ml::BurstClassifier logistic(lp);
  logistic.fit(train.x, train.y);
  ASSERT_GT(logistic.platt_a(), 0.0);

  const double logit = std::log(lp.threshold / (1.0 - lp.threshold));
  ml::ClassifierParams tp;
  tp.kind = ml::ClassifierKind::kThreshold;
  tp.threshold = (logit - logistic.platt_b()) / logistic.platt_a();
  tp.gbt = small_gbt();
  ml::BurstClassifier threshold(tp);
  threshold.fit(train.x, train.y);  // same data + params -> same booster

  const auto la = logistic.predict_labels(test.x);
  const auto lb = threshold.predict_labels(test.x);
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t i = 0; i < la.size(); ++i) EXPECT_EQ(la[i], lb[i]);
  // Probabilities differ by design (calibrated vs clamped raw scores) —
  // but both kinds must rank identically (same underlying scores).
  EXPECT_DOUBLE_EQ(stats::roc_auc(test.y, logistic.predict(test.x)),
                   stats::roc_auc(test.y, threshold.predict(test.x)));
}

TEST(BurstClassifier, LoadsThroughTheSharedCheckpointDispatch) {
  const auto& magics = ml::known_model_magics();
  EXPECT_NE(std::find(magics.begin(), magics.end(), "iotax-classifier"),
            magics.end());

  const auto train = binary_data(9);
  ml::ClassifierParams p;
  p.gbt = small_gbt();
  ml::BurstClassifier clf(p);
  clf.fit(train.x, train.y);
  std::ostringstream out;
  clf.save(out);
  std::istringstream in(out.str());
  const auto generic = ml::Regressor::load(in);
  ASSERT_NE(generic, nullptr);
  ASSERT_NE(dynamic_cast<ml::BurstClassifier*>(generic.get()), nullptr);
  const auto a = clf.predict(train.x);
  const auto b = generic->predict(train.x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(BurstClassifier, RegistryBuildsAndRejectsUnknownKeys) {
  const auto names = ml::regressor_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "classifier"),
            names.end());

  const auto model = ml::make_regressor(
      "classifier",
      R"({"kind": "threshold", "threshold": 0.4,
          "gbt": {"n_estimators": 10, "max_depth": 2}})");
  const auto* clf = dynamic_cast<ml::BurstClassifier*>(model.get());
  ASSERT_NE(clf, nullptr);
  EXPECT_EQ(clf->params().kind, ml::ClassifierKind::kThreshold);
  EXPECT_DOUBLE_EQ(clf->params().threshold, 0.4);
  EXPECT_EQ(clf->params().gbt.n_estimators, 10u);

  EXPECT_THROW(ml::make_regressor("classifier", R"({"kid": "logistic"})"),
               std::invalid_argument);
  EXPECT_THROW(
      ml::make_regressor("classifier", R"({"gbt": {"n_trees": 10}})"),
      std::invalid_argument);
  EXPECT_THROW(ml::make_regressor("classifier", R"({"kind": "svm"})"),
               std::invalid_argument);
}

TEST(BurstClassifier, ContinuationClaimIsTruthful) {
  const auto train = binary_data(10);
  ml::ClassifierParams p;
  p.gbt = small_gbt();
  ml::BurstClassifier clf(p);
  EXPECT_FALSE(clf.fit_continue_info().supported);
  clf.fit(train.x, train.y);
  EXPECT_FALSE(clf.fit_continue_info().supported);
  EXPECT_THROW(clf.fit_continue(train.x, train.y, 1), std::logic_error);
}

TEST(BurstClassifier, ThreadCountBitIdentity) {
  const auto train = binary_data(12);
  const auto test = binary_data(13);
  const auto run = [&] {
    ml::ClassifierParams p;
    p.gbt = small_gbt();
    ml::BurstClassifier clf(p);
    clf.fit(train.x, train.y);
    auto prob = clf.predict(test.x);
    const auto labels = clf.predict_labels(test.x);
    prob.insert(prob.end(), labels.begin(), labels.end());
    std::ostringstream ckpt;
    clf.save(ckpt);
    return std::make_pair(std::move(prob), ckpt.str());
  };
  const char* old = std::getenv("IOTAX_THREADS");
  const std::string saved = old != nullptr ? old : "";
  const bool had = old != nullptr;
  ::setenv("IOTAX_THREADS", "1", 1);
  const auto serial = run();
  ::setenv("IOTAX_THREADS", "4", 1);
  const auto threaded = run();
  if (had) {
    ::setenv("IOTAX_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("IOTAX_THREADS");
  }
  ASSERT_EQ(serial.first.size(), threaded.first.size());
  for (std::size_t i = 0; i < serial.first.size(); ++i) {
    EXPECT_EQ(serial.first[i], threaded.first[i]);  // exact, not NEAR
  }
  EXPECT_EQ(serial.second, threaded.second);  // checkpoint bytes too
}

}  // namespace
}  // namespace iotax
