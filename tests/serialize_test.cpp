// Model persistence: every family's checkpoint reloads through
// Regressor::load to bit-identical outputs and the same bytes, and every
// rejected checkpoint names its source and a util::Reason.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <tuple>
#include <typeinfo>
#include <utility>
#include <vector>

#include "src/ml/checkpoint.hpp"
#include "src/ml/classifier.hpp"
#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/linear.hpp"
#include "src/ml/nn.hpp"
#include "src/ml/registry.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

using util::Reason;

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

// `text` with its first `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  text.replace(text.find(from), from.size(), to);
  return text;
}

// The crafted checkpoints below are in save's canonical form: every
// value prints unchanged at precision 17, so a load re-saves them
// verbatim.

// An Mlp checkpoint with the given shapes: scaler width `features`
// (means `mean`, stddevs 1), layers (in, out) and every weight 0.5.
std::string mlp_checkpoint(const std::vector<std::size_t>& hidden, bool nll,
                           std::size_t features,
                           const std::vector<std::pair<std::size_t,
                                                       std::size_t>>& layers,
                           double mean = 0.0) {
  std::ostringstream out;
  out << "iotax-mlp 1\nhidden " << hidden.size();
  for (const auto h : hidden) out << ' ' << h;
  out << "\nhyper 0.5 0.25 0 30 64 " << (nll ? 1 : 0) << " 1\n";
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

// A one-tree GradientBoostedTrees checkpoint over two features; each
// node line is "feature threshold left right value".
std::string gbt_checkpoint(const std::vector<std::string>& nodes,
                           const std::string& n_trees = "1",
                           const std::string& n_features = "2") {
  std::ostringstream out;
  out << "iotax-gbt 1\nparams 1 3 0.5 1 1 0 1 1 64 17 0 0.5\n"
      << "base_score 0.25\nn_features " << n_features
      << "\nimportance 0.5 0.5\ntrees " << n_trees << "\ntree "
      << nodes.size() << '\n';
  for (const auto& n : nodes) out << n << '\n';
  return out.str();
}

const std::vector<std::string> kStump = {"0 0.5 1 2 0", "-1 0 -1 -1 0.25",
                                         "-1 0 -1 -1 0.5"};

// A two-feature ridge checkpoint.
const std::string kLinear =
    "iotax-linear 1\nparams 0.5 1\nintercept 0.25\nscaler 2\n0.5 0.25 \n"
    "1 2 \ncoef 2\n0.25 -0.5 \n";

std::string ensemble_checkpoint(const std::string& member0,
                                const std::string& member1) {
  return "iotax-ensemble 1\nepochs 3\nseed 31\nmembers 2\n" + member0 +
         member1;
}

// One hand-written v1 checkpoint per family.
std::map<std::string, std::string> golden_checkpoints() {
  const std::string nll_mlp = mlp_checkpoint({2}, true, 2, {{2, 2}, {2, 2}});
  return {
      {"classifier",
       "iotax-classifier 1\nkind logistic\nthreshold 0.5\nplatt 2 -0.5\n" +
           gbt_checkpoint(kStump)},
      {"ensemble", ensemble_checkpoint(nll_mlp, nll_mlp)},
      {"gbt", gbt_checkpoint(kStump)},
      {"linear", kLinear},
      {"mean", "iotax-mean 1\nmean 0.5\n"},
      {"mlp", nll_mlp},
  };
}

// Regressor::load(text, "probe.model") must throw a CheckpointError
// with `reason` whose message names the source and contains `names`.
void expect_load_rejects(const std::string& text, Reason reason,
                         const std::string& names) {
  std::istringstream in(text);
  try {
    (void)ml::Regressor::load(in, "probe.model");
    ADD_FAILURE() << "accepted a checkpoint that should name '" << names
                  << "'";
  } catch (const ml::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_EQ(e.reason(), reason) << what;
    EXPECT_NE(what.find("probe.model"), std::string::npos) << what;
    EXPECT_NE(what.find(names), std::string::npos) << what;
  }
}

// A stream buffer that can only be read forward, like a pipe:
// seekoff/seekpos keep std::streambuf's defaults, which fail.
class ForwardOnlyBuf : public std::streambuf {
 public:
  explicit ForwardOnlyBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 private:
  std::string text_;
};

std::unique_ptr<ml::Regressor> load_forward_only(const std::string& text) {
  ForwardOnlyBuf buf(text);
  std::istream in(&buf);
  return ml::Regressor::load(in);
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

// Params small enough to fit in milliseconds; an absent key keeps the
// family's default.
std::string tiny_params(const std::string& family) {
  static const std::map<std::string, std::string> kParams = {
      {"classifier", R"({"gbt": {"n_estimators": 5, "max_depth": 3}})"},
      {"ensemble", R"({"size": 2, "epochs": 2})"},
      {"gbt", R"({"n_estimators": 5, "max_depth": 3})"},
      {"mlp", R"({"hidden": [8], "epochs": 2})"},
  };
  const auto it = kParams.find(family);
  return it != kParams.end() ? it->second : "{}";
}

// make_regressor(family, params) fitted on `train`. The classifier
// family only accepts 0/1 targets, so it gets y binarized at the
// median.
std::unique_ptr<ml::Regressor> fit_tiny(const std::string& family,
                                        const std::string& params,
                                        const Xy& train) {
  auto model = ml::make_regressor(family, params);
  std::vector<double> y = train.y;
  if (family == "classifier") {
    std::vector<double> sorted = y;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    for (double& v : y) v = v > median ? 1.0 : 0.0;
  }
  model->fit(train.x, y);
  return model;
}

TEST(GbtSerialize, SaveUnfittedThrows) {
  ml::GradientBoostedTrees model;
  std::stringstream buf;
  EXPECT_THROW(model.save(buf), std::logic_error);
}

TEST(GbtSerialize, LoadRejectsGarbage) {
  expect_load_rejects("not a model at all", Reason::kBadMagic, "'not'");
}

TEST(GbtSerialize, LoadRejectsWrongVersion) {
  expect_load_rejects("iotax-gbt 9\n", Reason::kBadVersion, "iotax-gbt");
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
    expect_load_rejects(text, Reason::kSizeMismatch,
                        "feature 99 out of range");
  }
}

TEST(GbtSerialize, CraftedTreeOfTheRightShapeLoads) {
  std::istringstream in(gbt_checkpoint(
      {"0 0.5 1 2 0", "1 1.5 3 4 0", "-1 0 -1 -1 1", "-1 0 -1 -1 2",
       "-1 0 -1 -1 3"}));
  const auto model = ml::Regressor::load(in);
  data::Matrix x(1, 2);
  x(0, 1) = 2.0;  // left of the root, then right: node 4
  EXPECT_EQ(model->predict(x), std::vector<double>{3.25});
}

TEST(GbtSerialize, LoadRejectsNegativeChild) {
  // Packing this tree wrote to packed_of[-5].
  expect_load_rejects(
      gbt_checkpoint({"0 0.5 -5 2 0", "-1 0 -1 -1 1", "-1 0 -1 -1 2"}),
      Reason::kSizeMismatch, "tree 0 node 0: child -5");
}

TEST(GbtSerialize, LoadRejectsChildPointingAtTheRoot) {
  // A cycle: the breadth-first relayout never ended.
  expect_load_rejects(
      gbt_checkpoint({"0 0.5 1 2 0", "1 0.5 0 2 0", "-1 0 -1 -1 2"}),
      Reason::kSizeMismatch, "tree 0 node 1: child 0");
}

TEST(GbtSerialize, LoadRejectsSharedChild) {
  // Node 3 under both 1 and 2: each sharing level doubled the walk.
  expect_load_rejects(
      gbt_checkpoint({"0 0.5 1 2 0", "1 0.5 3 4 0", "1 0.5 3 4 0",
                      "-1 0 -1 -1 1", "-1 0 -1 -1 2"}),
      Reason::kSizeMismatch, "tree 0 node 2: child 3 is already a child");
}

// A lying count never sizes a vector: the reader reads on until the
// stream ends (truncated) or it meets the next keyword where a number
// should be (bad-number).
TEST(GbtSerialize, LoadRejectsHugeTreeCount) {
  // The tree list was resized to this count before any tree was read.
  expect_load_rejects(gbt_checkpoint(kStump, "4000000000"),
                      Reason::kTruncated, "iotax-gbt");
}

TEST(GbtSerialize, LoadRejectsHugeFeatureCount) {
  // The importance vector was resized to this count up front.
  expect_load_rejects(gbt_checkpoint(kStump, "1", "4000000000"),
                      Reason::kBadNumber, "'importance'");
}

TEST(MlpSerialize, LoadRejectsGarbage) {
  expect_load_rejects("iotax-mlp 2\n", Reason::kBadVersion, "iotax-mlp");
  expect_load_rejects("nonsense", Reason::kBadMagic, "'nonsense'");
}

TEST(MlpSerialize, LoadRejectsHugeHiddenList) {
  // The hidden list, a layer's weights and the scaler were each sized
  // by a count from the file before their values were read.
  const std::string good = mlp_checkpoint({2}, false, 2, {{2, 2}, {2, 1}});
  for (const auto& [from, to, reason] :
       std::vector<std::tuple<std::string, std::string, Reason>>{
           {"hidden 1 2", "hidden 4000000000 2", Reason::kBadNumber},
           {"hidden 1 2", "hidden 1 4000000000", Reason::kSizeMismatch},
           {"layer 2 2", "layer 2 4000000000", Reason::kSizeMismatch},
           {"scaler 2", "scaler 4000000000", Reason::kBadNumber}}) {
    SCOPED_TRACE(to);
    expect_load_rejects(replaced(good, from, to), reason, "iotax-mlp");
  }
}

TEST(MlpSerialize, CraftedCheckpointOfTheRightShapeLoads) {
  std::istringstream in(mlp_checkpoint({2}, false, 2, {{2, 2}, {2, 1}}));
  const auto model = ml::Regressor::load(in);
  data::Matrix x(1, 2);
  EXPECT_EQ(model->predict(x).size(), 1U);
}

TEST(MlpSerialize, LoadRejectsLayerWiderThanThePreviousOutput) {
  // 2->2 then 5->1: predict would read 5 inputs from a 2-wide buffer.
  expect_load_rejects(mlp_checkpoint({2}, false, 2, {{2, 2}, {5, 1}}),
                      Reason::kSizeMismatch, "layer 1");
}

TEST(MlpSerialize, LoadRejectsHeadThatDisagreesWithNllHead) {
  expect_load_rejects(mlp_checkpoint({2}, true, 2, {{2, 2}, {2, 1}}),
                      Reason::kSizeMismatch, "layer 1 (the head)");
  expect_load_rejects(mlp_checkpoint({2}, false, 2, {{2, 2}, {2, 2}}),
                      Reason::kSizeMismatch, "layer 1 (the head)");
}

TEST(MlpSerialize, LoadRejectsHiddenListThatDisagreesWithLayers) {
  expect_load_rejects(mlp_checkpoint({3}, false, 2, {{2, 2}, {2, 1}}),
                      Reason::kSizeMismatch, "layer 0");
  expect_load_rejects(mlp_checkpoint({2, 2}, false, 2, {{2, 2}, {2, 1}}),
                      Reason::kSizeMismatch, "2 layers");
}

TEST(MlpSerialize, SaveUnfittedThrows) {
  ml::Mlp model;
  std::stringstream buf;
  EXPECT_THROW(model.save(buf), std::logic_error);
}

TEST(LinearSerialize, LoadRejectsHugeScalerCount) {
  // The scaler's means and stddevs were sized by this count before any
  // value was read.
  std::istringstream good(kLinear);
  EXPECT_EQ(ml::Regressor::load(good)->n_features(), 2U);
  expect_load_rejects(replaced(kLinear, "scaler 2", "scaler 4000000000"),
                      Reason::kBadNumber, "'scaler'");
}

TEST(LinearSerialize, LoadRejectsHugeCoefCount) {
  // The coefficient count must equal the scaler's, so it can only lie
  // together with it; neither may size a vector before its values are
  // read.
  expect_load_rejects(
      replaced(replaced(kLinear, "coef 2", "coef 4000000000"), "scaler 2",
               "scaler 4000000000"),
      Reason::kBadNumber, "'scaler'");
}

TEST(EnsembleSerialize, LoadRejectsMembersWithDifferentInputWidths) {
  // predict_uncertainty feeds every member member 0's transform.
  const auto text = ensemble_checkpoint(
      mlp_checkpoint({2}, true, 2, {{2, 2}, {2, 2}}),
      mlp_checkpoint({2}, true, 5, {{5, 2}, {2, 2}}));
  expect_load_rejects(text, Reason::kSizeMismatch, "member 1");
}

TEST(EnsembleSerialize, LoadRejectsMembersWithDifferentScalers) {
  const auto text = ensemble_checkpoint(
      mlp_checkpoint({2}, true, 2, {{2, 2}, {2, 2}}),
      mlp_checkpoint({2}, true, 2, {{2, 2}, {2, 2}}, /*mean=*/0.25));
  expect_load_rejects(text, Reason::kSizeMismatch, "member 1");
}

TEST(EnsembleSerialize, LoadRejectsMembersWithoutAnNllHead) {
  // An ensemble of MSE heads loaded, then its first predict threw.
  const auto mse = mlp_checkpoint({2}, false, 2, {{2, 2}, {2, 1}});
  expect_load_rejects(ensemble_checkpoint(mse, mse), Reason::kSizeMismatch,
                      "member 0");
}

// Families x properties: every family make_regressor builds, plus an
// NLL-head mlp, reloads through Regressor::load from a forward-only
// stream as the same type and name, re-saves the same bytes and gives
// bit-identical outputs on every surface it has. Unfitted, it refuses
// to save; a version-2 header of its magic is rejected.
TEST(Checkpoint, RoundTripsEveryFamily) {
  const auto train = make_data(200, 15);
  const auto probe = make_data(40, 16);
  std::vector<std::pair<std::string, std::string>> cases;
  for (const auto& family : ml::regressor_names()) {
    cases.emplace_back(family, tiny_params(family));
  }
  cases.emplace_back("mlp",
                     R"({"hidden": [8], "epochs": 2, "nll_head": true})");
  const auto& magics = ml::known_model_magics();
  for (const auto& [family, params] : cases) {
    SCOPED_TRACE(family + " " + params);
    const auto model = fit_tiny(family, params, train);
    std::ostringstream saved;
    model->save(saved);
    const std::string magic = "iotax-" + family;
    EXPECT_EQ(saved.str().rfind(magic + " 1\n", 0), 0U);
    EXPECT_NE(std::find(magics.begin(), magics.end(), magic), magics.end());

    const auto loaded = load_forward_only(saved.str());
    std::ostringstream resaved;
    loaded->save(resaved);
    EXPECT_EQ(resaved.str(), saved.str());
    const ml::Regressor& a = *model;
    const ml::Regressor& b = *loaded;
    EXPECT_TRUE(typeid(a) == typeid(b));
    EXPECT_EQ(b.name(), a.name());
    EXPECT_EQ(b.n_features(), a.n_features());
    expect_same_bits(b.predict(probe.x), a.predict(probe.x));
    if (const auto* mlp = dynamic_cast<const ml::Mlp*>(&a);
        mlp != nullptr && mlp->params().nll_head) {
      const auto da = mlp->predict_dist(probe.x);
      const auto db = dynamic_cast<const ml::Mlp&>(b).predict_dist(probe.x);
      expect_same_bits(db.mean, da.mean);
      expect_same_bits(db.variance, da.variance);
    }
    if (const auto* ens = dynamic_cast<const ml::DeepEnsemble*>(&a)) {
      const auto ua = ens->predict_uncertainty(probe.x);
      const auto ub =
          dynamic_cast<const ml::DeepEnsemble&>(b).predict_uncertainty(
              probe.x);
      expect_same_bits(ub.mean, ua.mean);
      expect_same_bits(ub.aleatory, ua.aleatory);
      expect_same_bits(ub.epistemic, ua.epistemic);
    }
    if (const auto* clf = dynamic_cast<const ml::BurstClassifier*>(&a)) {
      expect_same_bits(
          dynamic_cast<const ml::BurstClassifier&>(b).predict_labels(probe.x),
          clf->predict_labels(probe.x));
    }
    if (const auto* gbt = dynamic_cast<const ml::GradientBoostedTrees*>(&a)) {
      expect_same_bits(
          dynamic_cast<const ml::GradientBoostedTrees&>(b)
              .feature_importances(),
          gbt->feature_importances());
    }

    std::ostringstream unfitted;
    EXPECT_THROW(ml::make_regressor(family, params)->save(unfitted),
                 std::logic_error);
    expect_load_rejects(magic + " 2\n", Reason::kBadVersion, magic);
  }
}

// The v1 format pinned by hand, one checkpoint per family: each loads
// and re-saves to the same bytes.
TEST(Checkpoint, GoldenV1CheckpointsResaveVerbatim) {
  const auto goldens = golden_checkpoints();
  EXPECT_EQ(goldens.size(), ml::regressor_names().size());
  for (const auto& family : ml::regressor_names()) {
    SCOPED_TRACE(family);
    ASSERT_EQ(goldens.count(family), 1U);
    const std::string& text = goldens.at(family);
    std::istringstream in(text);
    const auto model = ml::Regressor::load(in, family);
    std::ostringstream out;
    model->save(out);
    EXPECT_EQ(out.str(), text);
  }
}

// One row per reason, plus the range checks that params and the scaler
// apply to values that parse.
TEST(Checkpoint, RejectionsNameSourceAndReason) {
  const auto goldens = golden_checkpoints();
  const std::string& gbt = goldens.at("gbt");
  const std::vector<std::tuple<std::string, Reason, std::string>> cases = {
      {"iotax-frobnicator 1\n", Reason::kBadMagic, "iotax-frobnicator"},
      {"", Reason::kBadMagic, "<empty stream>"},
      {replaced(gbt, "iotax-gbt 1", "iotax-gbt 2"), Reason::kBadVersion,
       "iotax-gbt"},
      {gbt_checkpoint(kStump, "2"), Reason::kTruncated, "'tree'"},
      {replaced(gbt, "base_score", "base_scor"), Reason::kMalformedLine,
       "expected 'base_score', got 'base_scor'"},
      {replaced(gbt, "base_score 0.25", "base_score x"), Reason::kBadNumber,
       "'base_score'"},
      {replaced(gbt, "params 1 ", "params 0 "), Reason::kBadNumber,
       "0 trees"},
      {replaced(goldens.at("classifier"), "threshold 0.5", "threshold 2"),
       Reason::kBadNumber, "threshold"},
      {replaced(kLinear, "\n1 2 \n", "\n1 0 \n"), Reason::kBadNumber,
       "stddev"},
      {replaced(goldens.at("mlp"), " 0 30 ", " 5 30 "), Reason::kBadNumber,
       "dropout"},
      {replaced(goldens.at("ensemble"), "members 2", "members 1"),
       Reason::kSizeMismatch, "at least 2"},
  };
  for (const auto& [text, reason, names] : cases) {
    SCOPED_TRACE(text.substr(0, text.find('\n')) + " / " + names);
    expect_load_rejects(text, reason, names);
  }
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
  for (const auto& family : ml::regressor_names()) {
    const auto model = fit_tiny(family, tiny_params(family), train);
    ASSERT_NE(model, nullptr) << family;
    EXPECT_EQ(model->predict(train.x).size(), train.y.size()) << family;
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
