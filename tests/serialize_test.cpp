// Model persistence: saved models must restore bit-identical predictions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/linear.hpp"
#include "src/ml/nn.hpp"
#include "src/ml/registry.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

struct Xy {
  data::Matrix x{0, 0};
  std::vector<double> y;
};

Xy make_data(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Xy d;
  d.x = data::Matrix(n, 5);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 5; ++c) d.x(i, c) = rng.uniform(-3.0, 3.0);
    d.y[i] = std::sin(d.x(i, 0)) + 0.3 * d.x(i, 1) * d.x(i, 2) +
             rng.normal(0.0, 0.05);
  }
  return d;
}

TEST(GbtSerialize, RoundTripPredictionsIdentical) {
  const auto train = make_data(800, 1);
  const auto probe = make_data(200, 2);
  ml::GbtParams p;
  p.n_estimators = 40;
  p.max_depth = 5;
  p.subsample = 0.8;
  ml::GradientBoostedTrees model(p);
  model.fit(train.x, train.y);

  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::GradientBoostedTrees::load(buf);
  EXPECT_EQ(loaded.n_trees(), model.n_trees());
  EXPECT_EQ(loaded.params().n_estimators, p.n_estimators);
  const auto a = model.predict(probe.x);
  const auto b = loaded.predict(probe.x);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
  EXPECT_EQ(loaded.feature_importances(), model.feature_importances());
}

TEST(GbtSerialize, SaveUnfittedThrows) {
  ml::GradientBoostedTrees model;
  std::stringstream buf;
  EXPECT_THROW(model.save(buf), std::logic_error);
}

TEST(GbtSerialize, LoadRejectsGarbage) {
  std::stringstream buf("not a model at all");
  EXPECT_THROW(ml::GradientBoostedTrees::load(buf), std::runtime_error);
}

TEST(GbtSerialize, LoadRejectsWrongVersion) {
  std::stringstream buf("iotax-gbt 9\n");
  EXPECT_THROW(ml::GradientBoostedTrees::load(buf), std::runtime_error);
}

TEST(GbtSerialize, LoadDetectsOutOfRangeNodes) {
  const auto train = make_data(200, 3);
  ml::GradientBoostedTrees model({.n_estimators = 3, .max_depth = 3});
  model.fit(train.x, train.y);
  std::stringstream buf;
  model.save(buf);
  auto text = buf.str();
  // Corrupt a feature index to something huge.
  const auto pos = text.find("\n0 ");
  if (pos != std::string::npos) {
    text.replace(pos, 3, "\n99 ");
    std::stringstream corrupted(text);
    EXPECT_THROW(ml::GradientBoostedTrees::load(corrupted),
                 std::runtime_error);
  }
}

TEST(MlpSerialize, RoundTripPredictionsIdentical) {
  const auto train = make_data(600, 4);
  const auto probe = make_data(100, 5);
  ml::MlpParams p;
  p.hidden = {24, 16};
  p.epochs = 10;
  ml::Mlp model(p);
  model.fit(train.x, train.y);

  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::Mlp::load(buf);
  const auto a = model.predict(probe.x);
  const auto b = loaded.predict(probe.x);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
  EXPECT_EQ(loaded.params().hidden, p.hidden);
}

TEST(MlpSerialize, NllHeadSurvivesRoundTrip) {
  const auto train = make_data(600, 6);
  const auto probe = make_data(50, 7);
  ml::MlpParams p;
  p.hidden = {16};
  p.epochs = 10;
  p.nll_head = true;
  ml::Mlp model(p);
  model.fit(train.x, train.y);
  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::Mlp::load(buf);
  const auto a = model.predict_dist(probe.x);
  const auto b = loaded.predict_dist(probe.x);
  for (std::size_t i = 0; i < a.mean.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.mean[i], b.mean[i]);
    ASSERT_DOUBLE_EQ(a.variance[i], b.variance[i]);
  }
}

TEST(MlpSerialize, LoadRejectsGarbage) {
  std::stringstream buf("iotax-mlp 2\n");
  EXPECT_THROW(ml::Mlp::load(buf), std::runtime_error);
  std::stringstream buf2("nonsense");
  EXPECT_THROW(ml::Mlp::load(buf2), std::runtime_error);
}

// A checkpoint in Mlp::save's format with the given shapes: scaler
// width `features` (means 0, stddevs 1), layers (in, out) and every
// weight 0.5.
std::string mlp_checkpoint(const std::vector<std::size_t>& hidden, bool nll,
                           std::size_t features,
                           const std::vector<std::pair<std::size_t,
                                                       std::size_t>>& layers,
                           double mean = 0.0) {
  std::ostringstream out;
  out << "iotax-mlp 1\nhidden " << hidden.size();
  for (const auto h : hidden) out << ' ' << h;
  out << "\nhyper 0.001 1e-05 0 30 64 " << (nll ? 1 : 0) << " 1\n";
  out << "target 0 1\nscaler " << features << '\n';
  for (std::size_t i = 0; i < features; ++i) out << mean << ' ';
  out << '\n';
  for (std::size_t i = 0; i < features; ++i) out << "1 ";
  out << "\nlayers " << layers.size() << '\n';
  for (const auto& [in, o] : layers) {
    out << "layer " << in << ' ' << o << '\n';
    for (std::size_t i = 0; i < in * o; ++i) out << "0.5 ";
    out << '\n';
    for (std::size_t i = 0; i < o; ++i) out << "0.5 ";
    out << '\n';
  }
  return out.str();
}

// Load must throw a runtime_error whose message contains `names`.
template <typename Model>
void expect_load_rejects(const std::string& text, const std::string& names) {
  std::istringstream in(text);
  try {
    (void)Model::load(in);
    ADD_FAILURE() << "accepted a checkpoint that should name '" << names
                  << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
        << e.what();
  }
}

// A one-tree checkpoint in GradientBoostedTrees::save's format over
// two features; each node line is "feature threshold left right value".
std::string gbt_checkpoint(const std::vector<std::string>& nodes,
                           const std::string& n_trees = "1",
                           const std::string& n_features = "2") {
  std::ostringstream out;
  out << "iotax-gbt 1\nparams 1 3 0.1 1 1 0 1 1 64 17 0 0.5\n"
      << "base_score 0.25\nn_features " << n_features
      << "\nimportance 0.5 0.5\ntrees " << n_trees << "\ntree "
      << nodes.size() << '\n';
  for (const auto& n : nodes) out << n << '\n';
  return out.str();
}

TEST(GbtSerialize, CraftedTreeOfTheRightShapeLoads) {
  std::istringstream in(gbt_checkpoint(
      {"0 0.5 1 2 0", "1 1.5 3 4 0", "-1 0 -1 -1 1", "-1 0 -1 -1 2",
       "-1 0 -1 -1 3"}));
  const auto model = ml::GradientBoostedTrees::load(in);
  data::Matrix x(1, 2);
  x(0, 1) = 2.0;  // left of the root, then right: node 4
  EXPECT_EQ(model.predict(x), std::vector<double>{3.25});
}

TEST(GbtSerialize, LoadRejectsNegativeChild) {
  // Packing this tree wrote to packed_of[-5].
  expect_load_rejects<ml::GradientBoostedTrees>(
      gbt_checkpoint({"0 0.5 -5 2 0", "-1 0 -1 -1 1", "-1 0 -1 -1 2"}),
      "tree 0 node 0: child -5");
}

TEST(GbtSerialize, LoadRejectsChildPointingAtTheRoot) {
  // A cycle: the breadth-first relayout never ended.
  expect_load_rejects<ml::GradientBoostedTrees>(
      gbt_checkpoint({"0 0.5 1 2 0", "1 0.5 0 2 0", "-1 0 -1 -1 2"}),
      "tree 0 node 1: child 0");
}

TEST(GbtSerialize, LoadRejectsSharedChild) {
  // Node 3 under both 1 and 2: each sharing level doubled the walk.
  expect_load_rejects<ml::GradientBoostedTrees>(
      gbt_checkpoint({"0 0.5 1 2 0", "1 0.5 3 4 0", "1 0.5 3 4 0",
                      "-1 0 -1 -1 1", "-1 0 -1 -1 2"}),
      "tree 0 node 2: child 3 is already a child");
}

TEST(GbtSerialize, LoadRejectsHugeTreeCount) {
  // The tree list was resized to this count before any tree was read.
  std::istringstream in(gbt_checkpoint(
      {"0 0.5 1 2 0", "-1 0 -1 -1 1", "-1 0 -1 -1 2"}, "4000000000"));
  EXPECT_THROW(ml::GradientBoostedTrees::load(in), std::runtime_error);
}

TEST(GbtSerialize, LoadRejectsHugeFeatureCount) {
  // The importance vector was resized to this count up front.
  std::istringstream in(gbt_checkpoint(
      {"0 0.5 1 2 0", "-1 0 -1 -1 1", "-1 0 -1 -1 2"}, "1", "4000000000"));
  EXPECT_THROW(ml::GradientBoostedTrees::load(in), std::runtime_error);
}

TEST(MlpSerialize, LoadRejectsHugeHiddenList) {
  // The hidden list, a layer's weights and the scaler were each sized
  // by a count from the file before their values were read.
  const std::string good = mlp_checkpoint({2}, false, 2, {{2, 2}, {2, 1}});
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"hidden 1 2", "hidden 4000000000 2"},
           {"hidden 1 2", "hidden 1 4000000000"},
           {"layer 2 2", "layer 2 4000000000"},
           {"scaler 2", "scaler 4000000000"}}) {
    std::string text = good;
    text.replace(text.find(from), from.size(), to);
    std::istringstream in(text);
    EXPECT_THROW(ml::Mlp::load(in), std::runtime_error) << to;
  }
}

TEST(MlpSerialize, CraftedCheckpointOfTheRightShapeLoads) {
  std::istringstream in(mlp_checkpoint({2}, false, 2, {{2, 2}, {2, 1}}));
  const auto model = ml::Mlp::load(in);
  data::Matrix x(1, 2);
  EXPECT_EQ(model.predict(x).size(), 1U);
}

TEST(MlpSerialize, LoadRejectsLayerWiderThanThePreviousOutput) {
  // 2->2 then 5->1: predict would read 5 inputs from a 2-wide buffer.
  expect_load_rejects<ml::Mlp>(
      mlp_checkpoint({2}, false, 2, {{2, 2}, {5, 1}}), "layer 1");
}

TEST(MlpSerialize, LoadRejectsHeadThatDisagreesWithNllHead) {
  expect_load_rejects<ml::Mlp>(
      mlp_checkpoint({2}, true, 2, {{2, 2}, {2, 1}}), "layer 1 (the head)");
  expect_load_rejects<ml::Mlp>(
      mlp_checkpoint({2}, false, 2, {{2, 2}, {2, 2}}), "layer 1 (the head)");
}

TEST(MlpSerialize, LoadRejectsHiddenListThatDisagreesWithLayers) {
  expect_load_rejects<ml::Mlp>(
      mlp_checkpoint({3}, false, 2, {{2, 2}, {2, 1}}), "layer 0");
  expect_load_rejects<ml::Mlp>(
      mlp_checkpoint({2, 2}, false, 2, {{2, 2}, {2, 1}}), "2 layers");
}

TEST(MlpSerialize, SaveUnfittedThrows) {
  ml::Mlp model;
  std::stringstream buf;
  EXPECT_THROW(model.save(buf), std::logic_error);
}

TEST(LinearSerialize, RoundTripPredictionsIdentical) {
  const auto train = make_data(400, 8);
  const auto probe = make_data(80, 9);
  ml::LinearRegressor model(0.5, /*log_transform=*/true);
  model.fit(train.x, train.y);
  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::LinearRegressor::load(buf);
  EXPECT_EQ(loaded.coefficients(), model.coefficients());
  EXPECT_DOUBLE_EQ(loaded.intercept(), model.intercept());
  const auto a = model.predict(probe.x);
  const auto b = loaded.predict(probe.x);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
}

// A two-feature ridge checkpoint with `from` replaced by `to`.
std::string linear_checkpoint(const std::string& from, const std::string& to) {
  std::string text =
      "iotax-linear 1\nparams 0.5 1\nintercept 0.25\nscaler 2\n0.1 0.2 \n"
      "1 2 \ncoef 2\n0.3 0.4 \n";
  if (!from.empty()) text.replace(text.find(from), from.size(), to);
  return text;
}

TEST(LinearSerialize, LoadRejectsHugeScalerCount) {
  // The scaler's means and stddevs were sized by this count before any
  // value was read.
  std::istringstream good(linear_checkpoint("", ""));
  EXPECT_EQ(ml::LinearRegressor::load(good).coefficients().size(), 2U);
  std::istringstream in(linear_checkpoint("scaler 2", "scaler 4000000000"));
  EXPECT_THROW(ml::LinearRegressor::load(in), std::runtime_error);
}

TEST(LinearSerialize, LoadRejectsHugeCoefCount) {
  // The coefficient count must equal the scaler's, so it can only lie
  // together with it; neither may size a vector before its values are
  // read.
  std::string text = linear_checkpoint("coef 2", "coef 4000000000");
  text.replace(text.find("scaler 2"), 8, "scaler 4000000000");
  std::istringstream in(text);
  EXPECT_THROW(ml::LinearRegressor::load(in), std::runtime_error);
}

TEST(MeanSerialize, RoundTripPredictionsIdentical) {
  const auto train = make_data(100, 10);
  ml::MeanRegressor model;
  model.fit(train.x, train.y);
  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::MeanRegressor::load(buf);
  const auto a = model.predict(train.x);
  const auto b = loaded.predict(train.x);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
}

TEST(EnsembleSerialize, RoundTripUncertaintyIdentical) {
  const auto train = make_data(300, 11);
  const auto probe = make_data(60, 12);
  ml::EnsembleParams params;
  params.size = 3;
  params.epochs = 3;
  ml::DeepEnsemble model(params);
  model.fit(train.x, train.y);
  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::DeepEnsemble::load(buf);
  EXPECT_EQ(loaded.size(), model.size());
  const auto a = model.predict_uncertainty(probe.x);
  const auto b = loaded.predict_uncertainty(probe.x);
  for (std::size_t i = 0; i < a.mean.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.mean[i], b.mean[i]);
    ASSERT_DOUBLE_EQ(a.aleatory[i], b.aleatory[i]);
    ASSERT_DOUBLE_EQ(a.epistemic[i], b.epistemic[i]);
  }
}

std::string ensemble_checkpoint(const std::string& member0,
                                const std::string& member1) {
  return "iotax-ensemble 1\nepochs 3\nseed 31\nmembers 2\n" + member0 +
         member1;
}

TEST(EnsembleSerialize, LoadRejectsMembersWithDifferentInputWidths) {
  // predict_uncertainty feeds every member member 0's transform.
  const auto text = ensemble_checkpoint(
      mlp_checkpoint({2}, true, 2, {{2, 2}, {2, 2}}),
      mlp_checkpoint({2}, true, 5, {{5, 2}, {2, 2}}));
  expect_load_rejects<ml::DeepEnsemble>(text, "member 1");
}

TEST(EnsembleSerialize, LoadRejectsMembersWithDifferentScalers) {
  const auto text = ensemble_checkpoint(
      mlp_checkpoint({2}, true, 2, {{2, 2}, {2, 2}}),
      mlp_checkpoint({2}, true, 2, {{2, 2}, {2, 2}}, /*mean=*/0.25));
  expect_load_rejects<ml::DeepEnsemble>(text, "member 1");
}

// Regressor::load must dispatch on the magic token alone: a deployment
// that only knows "a saved model file" reloads any family.
TEST(UnifiedLoad, DispatchesOnMagicToken) {
  const auto train = make_data(300, 13);
  const auto probe = make_data(40, 14);

  const auto round_trip = [&](const ml::Regressor& model) {
    std::stringstream buf;
    model.save(buf);
    const auto loaded = ml::Regressor::load(buf);
    EXPECT_EQ(loaded->name(), model.name());
    const auto a = model.predict(probe.x);
    const auto b = loaded->predict(probe.x);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
  };

  ml::MeanRegressor mean;
  mean.fit(train.x, train.y);
  round_trip(mean);

  ml::LinearRegressor linear;
  linear.fit(train.x, train.y);
  round_trip(linear);

  ml::GradientBoostedTrees gbt({.n_estimators = 5, .max_depth = 3});
  gbt.fit(train.x, train.y);
  round_trip(gbt);

  ml::MlpParams mp;
  mp.hidden = {8};
  mp.epochs = 3;
  ml::Mlp mlp(mp);
  mlp.fit(train.x, train.y);
  round_trip(mlp);
}

TEST(UnifiedLoad, RejectsUnknownHeaderAndUnseekableGarbage) {
  std::stringstream buf("iotax-frobnicator 1\n");
  EXPECT_THROW(ml::Regressor::load(buf), std::runtime_error);
  std::stringstream empty;
  EXPECT_THROW(ml::Regressor::load(empty), std::runtime_error);
}

// A bad checkpoint must say which file, what it found, and what would
// have been valid — the operator is three shell commands away from the
// fix only if the message carries all three.
TEST(UnifiedLoad, DiagnosticNamesSourceTokenAndKnownMagics) {
  std::stringstream buf("iotax-frobnicator 1\n");
  try {
    ml::Regressor::load(buf, "checkpoints/prod.gbt");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checkpoints/prod.gbt"), std::string::npos) << what;
    EXPECT_NE(what.find("iotax-frobnicator"), std::string::npos) << what;
    for (const auto& magic : ml::known_model_magics()) {
      EXPECT_NE(what.find(magic), std::string::npos) << what;
    }
  }
}

TEST(UnifiedLoad, EmptyStreamDiagnosticIsExplicit) {
  std::stringstream empty;
  try {
    ml::Regressor::load(empty, "empty.bin");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("empty.bin"), std::string::npos) << what;
    EXPECT_NE(what.find("known model magics"), std::string::npos) << what;
  }
}

TEST(UnifiedLoad, LoadRegressorFileReportsMissingPath) {
  try {
    ml::load_regressor_file("/no/such/dir/model.gbt");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/dir/model.gbt"),
              std::string::npos);
  }
}

// --- make_regressor factory --------------------------------------------

TEST(Registry, BuildsEveryAdvertisedFamily) {
  const auto train = make_data(200, 15);
  // Shrink the expensive families so the test stays fast; an absent key
  // keeps the family's default.
  const std::map<std::string, std::string> params = {
      {"classifier", R"({"gbt": {"n_estimators": 5, "max_depth": 3}})"},
      {"ensemble", R"({"size": 2, "epochs": 2})"},
      {"gbt", R"({"n_estimators": 5, "max_depth": 3})"},
      {"mlp", R"({"hidden": [8], "epochs": 2})"},
  };
  // The classifier family only accepts 0/1 targets; binarize at the
  // median so the sweep exercises it like any other family.
  std::vector<double> sorted = train.y;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::vector<double> binary(train.y.size());
  for (std::size_t i = 0; i < train.y.size(); ++i) {
    binary[i] = train.y[i] > median ? 1.0 : 0.0;
  }
  for (const auto& family : ml::regressor_names()) {
    const auto it = params.find(family);
    const auto model = ml::make_regressor(
        family, it != params.end() ? it->second : "{}");
    ASSERT_NE(model, nullptr) << family;
    const auto& y = family == "classifier" ? binary : train.y;
    model->fit(train.x, y);
    EXPECT_EQ(model->predict(train.x).size(), y.size()) << family;
  }
}

TEST(Registry, AppliesJsonParams) {
  const auto gbt = ml::make_regressor(
      "gbt", R"({"n_estimators": 7, "max_depth": 2, "seed": 3})");
  const auto train = make_data(200, 16);
  gbt->fit(train.x, train.y);
  EXPECT_NE(gbt->name().find("trees=7"), std::string::npos) << gbt->name();

  const auto mlp = ml::make_regressor(
      "mlp", R"({"hidden": [8, 4], "epochs": 2, "nll_head": true})");
  mlp->fit(train.x, train.y);
  const auto* as_mlp = dynamic_cast<const ml::Mlp*>(mlp.get());
  ASSERT_NE(as_mlp, nullptr);
  EXPECT_EQ(as_mlp->params().hidden, (std::vector<std::size_t>{8, 4}));
  EXPECT_TRUE(as_mlp->params().nll_head);
}

TEST(Registry, FactoryMatchesDirectConstruction) {
  const auto train = make_data(300, 17);
  const auto probe = make_data(50, 18);
  const auto from_factory = ml::make_regressor(
      "gbt", R"({"n_estimators": 10, "max_depth": 4, "seed": 5})");
  from_factory->fit(train.x, train.y);
  ml::GbtParams p;
  p.n_estimators = 10;
  p.max_depth = 4;
  p.seed = 5;
  ml::GradientBoostedTrees direct(p);
  direct.fit(train.x, train.y);
  const auto a = from_factory->predict(probe.x);
  const auto b = direct.predict(probe.x);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Registry, RejectsUnknownFamilyKeyAndMalformedJson) {
  EXPECT_THROW(ml::make_regressor("xgboost"), std::invalid_argument);
  // A typo must never silently train a default model.
  EXPECT_THROW(ml::make_regressor("gbt", R"({"n_estimator": 7})"),
               std::invalid_argument);
  EXPECT_THROW(ml::make_regressor("mean", R"({"anything": 1})"),
               std::invalid_argument);
  EXPECT_THROW(ml::make_regressor("gbt", "{not json"),
               std::invalid_argument);
  EXPECT_THROW(ml::make_regressor("gbt", R"(["list"])"),
               std::invalid_argument);
  EXPECT_THROW(ml::make_regressor("gbt", R"({"n_estimators": -1})"),
               std::invalid_argument);
}

}  // namespace
}  // namespace iotax
