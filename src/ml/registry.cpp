#include "src/ml/registry.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "src/ml/checkpoint.hpp"
#include "src/ml/classifier.hpp"
#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/linear.hpp"
#include "src/ml/nn.hpp"
#include "src/util/json.hpp"

namespace iotax::ml {

namespace {

[[noreturn]] void unknown_key(const std::string& family,
                              const std::string& key) {
  throw std::invalid_argument("make_regressor: unknown " + family +
                              " parameter '" + key + "'");
}

std::size_t as_size(const util::Json& v) {
  const long long n = v.as_int();
  if (n < 0) throw std::invalid_argument("make_regressor: negative size");
  return static_cast<std::size_t>(n);
}

std::vector<std::size_t> as_size_array(const util::Json& v) {
  if (!v.is_array()) {
    throw std::invalid_argument("make_regressor: expected an array");
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < v.size(); ++i) out.push_back(as_size(v[i]));
  return out;
}

std::unique_ptr<Regressor> make_linear(const util::Json& params) {
  double l2 = 1.0;
  bool log_transform = true;
  for (const auto& [key, value] : params.items()) {
    if (key == "l2") {
      l2 = value.as_double();
    } else if (key == "log_transform") {
      log_transform = value.as_bool();
    } else {
      unknown_key("linear", key);
    }
  }
  return std::make_unique<LinearRegressor>(l2, log_transform);
}

GbtParams parse_gbt_params(const util::Json& params,
                           const std::string& family) {
  GbtParams p;
  for (const auto& [key, value] : params.items()) {
    if (key == "n_estimators") {
      p.n_estimators = as_size(value);
    } else if (key == "max_depth") {
      p.max_depth = as_size(value);
    } else if (key == "loss") {
      const std::string& loss = value.as_string();
      if (loss == "squared") {
        p.loss = GbtLoss::kSquaredError;
      } else if (loss == "quantile") {
        p.loss = GbtLoss::kQuantile;
      } else {
        throw std::invalid_argument("make_regressor: gbt loss must be "
                                    "'squared' or 'quantile', got '" +
                                    loss + "'");
      }
    } else if (key == "quantile_alpha") {
      p.quantile_alpha = value.as_double();
    } else if (key == "learning_rate") {
      p.learning_rate = value.as_double();
    } else if (key == "reg_lambda") {
      p.reg_lambda = value.as_double();
    } else if (key == "min_child_weight") {
      p.min_child_weight = value.as_double();
    } else if (key == "min_split_gain") {
      p.min_split_gain = value.as_double();
    } else if (key == "subsample") {
      p.subsample = value.as_double();
    } else if (key == "colsample") {
      p.colsample = value.as_double();
    } else if (key == "max_bins") {
      p.max_bins = as_size(value);
    } else if (key == "per_feature_bins") {
      p.per_feature_bins = as_size_array(value);
    } else if (key == "early_stopping_rounds") {
      p.early_stopping_rounds = as_size(value);
    } else if (key == "seed") {
      p.seed = static_cast<std::uint64_t>(value.as_int());
    } else {
      unknown_key(family, key);
    }
  }
  return p;
}

std::unique_ptr<Regressor> make_gbt(const util::Json& params) {
  return std::make_unique<GradientBoostedTrees>(
      parse_gbt_params(params, "gbt"));
}

std::unique_ptr<Regressor> make_classifier(const util::Json& params) {
  ClassifierParams p;
  for (const auto& [key, value] : params.items()) {
    if (key == "kind") {
      const std::string& kind = value.as_string();
      if (kind == "logistic") {
        p.kind = ClassifierKind::kLogistic;
      } else if (kind == "threshold") {
        p.kind = ClassifierKind::kThreshold;
      } else {
        throw std::invalid_argument(
            "make_regressor: classifier kind must be 'logistic' or "
            "'threshold', got '" +
            kind + "'");
      }
    } else if (key == "threshold") {
      p.threshold = value.as_double();
    } else if (key == "platt_max_iters") {
      p.platt_max_iters = as_size(value);
    } else if (key == "gbt") {
      if (!value.is_object()) {
        throw std::invalid_argument(
            "make_regressor: classifier 'gbt' must be an object");
      }
      p.gbt = parse_gbt_params(value, "classifier.gbt");
    } else {
      unknown_key("classifier", key);
    }
  }
  return std::make_unique<BurstClassifier>(std::move(p));
}

std::unique_ptr<Regressor> make_mlp(const util::Json& params) {
  MlpParams p;
  for (const auto& [key, value] : params.items()) {
    if (key == "hidden") {
      p.hidden = as_size_array(value);
    } else if (key == "learning_rate") {
      p.learning_rate = value.as_double();
    } else if (key == "weight_decay") {
      p.weight_decay = value.as_double();
    } else if (key == "dropout") {
      p.dropout = value.as_double();
    } else if (key == "epochs") {
      p.epochs = as_size(value);
    } else if (key == "batch_size") {
      p.batch_size = as_size(value);
    } else if (key == "nll_head") {
      p.nll_head = value.as_bool();
    } else if (key == "seed") {
      p.seed = static_cast<std::uint64_t>(value.as_int());
    } else {
      unknown_key("mlp", key);
    }
  }
  return std::make_unique<Mlp>(std::move(p));
}

std::unique_ptr<Regressor> make_mean(const util::Json& params) {
  if (params.size() != 0) unknown_key("mean", params.items().front().first);
  return std::make_unique<MeanRegressor>();
}

std::unique_ptr<Regressor> make_ensemble(const util::Json& params) {
  EnsembleParams p;
  for (const auto& [key, value] : params.items()) {
    if (key == "size") {
      p.size = as_size(value);
    } else if (key == "epochs") {
      p.epochs = as_size(value);
    } else if (key == "seed") {
      p.seed = static_cast<std::uint64_t>(value.as_int());
    } else {
      unknown_key("ensemble", key);
    }
  }
  return std::make_unique<DeepEnsemble>(std::move(p));
}

template <typename Model>
std::unique_ptr<Regressor> read_family(CheckpointReader& r) {
  return std::make_unique<Model>(Model::read(r));
}

/// The model families, sorted by name: each builds from JSON params and
/// reads the body of its "iotax-<name>" checkpoint.
struct Family {
  const char* name;
  std::unique_ptr<Regressor> (*make)(const util::Json& params);
  std::unique_ptr<Regressor> (*read)(CheckpointReader& r);
};

constexpr Family kFamilies[] = {
    {"classifier", make_classifier, read_family<BurstClassifier>},
    {"ensemble", make_ensemble, read_family<DeepEnsemble>},
    {"gbt", make_gbt, read_family<GradientBoostedTrees>},
    {"linear", make_linear, read_family<LinearRegressor>},
    {"mean", make_mean, read_family<MeanRegressor>},
    {"mlp", make_mlp, read_family<Mlp>},
};

}  // namespace

std::vector<std::string> regressor_names() {
  std::vector<std::string> names;
  for (const Family& family : kFamilies) names.emplace_back(family.name);
  return names;
}

const std::vector<std::string>& known_model_magics() {
  static const std::vector<std::string> kMagics = [] {
    std::vector<std::string> magics = regressor_names();
    for (std::string& magic : magics) magic.insert(0, "iotax-");
    return magics;
  }();
  return kMagics;
}

std::unique_ptr<Regressor> make_regressor(const std::string& name,
                                          const std::string& params_json) {
  util::Json params;
  try {
    params = util::Json::parse(params_json);
  } catch (const std::invalid_argument& err) {
    throw std::invalid_argument(std::string("make_regressor: bad params: ") +
                                err.what());
  }
  if (!params.is_object()) {
    throw std::invalid_argument("make_regressor: params must be an object");
  }
  for (const Family& family : kFamilies) {
    if (name == family.name) return family.make(params);
  }
  throw std::invalid_argument("make_regressor: unknown model family '" + name +
                              "'");
}

std::unique_ptr<Regressor> Regressor::load(std::istream& in,
                                           const std::string& source) {
  CheckpointReader r(in, source);
  const std::string& magic = r.token();
  const auto& magics = known_model_magics();
  const auto it = std::find(magics.begin(), magics.end(), magic);
  if (it == magics.end()) {
    std::string known;
    for (const auto& m : magics) known += (known.empty() ? "" : ", ") + m;
    r.fail(util::Reason::kBadMagic,
           "unrecognized model header '" +
               (magic.empty() ? "<empty stream>" : magic) +
               "' (known model magics: " + known + ")");
  }
  r.version();
  return kFamilies[it - magics.begin()].read(r);
}

std::unique_ptr<Regressor> load_regressor_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open model file " + path);
  }
  return Regressor::load(in, path);
}

std::uint64_t hash_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open model file " + path);
  }
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis
  char buf[4096];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    const auto n = static_cast<std::size_t>(in.gcount());
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;  // FNV-1a 64 prime
    }
    if (!in) break;
  }
  return h;
}

std::string format_params_hash(std::uint64_t hash) {
  static const char* kHex = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(hash >> shift) & 0xF];
  }
  return out;
}

std::size_t ModelRegistry::add(const std::string& path) {
  const std::uint64_t hash = hash_model_file(path);
  // The hash identifies a rejected artifact by content even though it
  // never became a model.
  const auto with_slot = [&](const std::exception& err) {
    return std::string(err.what()) + " (registry slot " +
           std::to_string(slots_.size()) + ", generation 1, params hash " +
           format_params_hash(hash) + ")";
  };
  std::shared_ptr<const Regressor> model;
  try {
    model = load_regressor_file(path);
  } catch (const CheckpointError& err) {
    throw CheckpointError(err.reason(), with_slot(err));
  } catch (const std::exception& err) {
    throw std::runtime_error(with_slot(err));
  }
  auto entry = std::make_shared<const ModelEntry>(
      ModelEntry{std::move(model), path, 1, hash});
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(std::move(entry));
  previous_.push_back(nullptr);
  paths_.push_back(path);
  return slots_.size() - 1;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

std::shared_ptr<const ModelEntry> ModelRegistry::entry(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.at(i);
}

std::uint64_t ModelRegistry::publish(std::size_t i,
                                     std::shared_ptr<const Regressor> model,
                                     std::string source,
                                     std::uint64_t params_hash) {
  if (model == nullptr) {
    throw std::invalid_argument("ModelRegistry::publish: null model");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = slots_.at(i);
  auto entry = std::make_shared<const ModelEntry>(
      ModelEntry{std::move(model), std::move(source), slot->generation + 1,
                 params_hash});
  previous_.at(i) = slot;
  slot = std::move(entry);
  return slot->generation;
}

std::shared_ptr<const ModelEntry> ModelRegistry::rollback(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto prev = previous_.at(i);
  if (prev == nullptr) {
    throw std::runtime_error("ModelRegistry::rollback: slot " +
                             std::to_string(i) +
                             " has no previous publication");
  }
  auto cur = slots_.at(i);
  auto entry = std::make_shared<const ModelEntry>(
      ModelEntry{prev->model, prev->source, cur->generation + 1,
                 prev->params_hash});
  previous_.at(i) = std::move(cur);
  slots_.at(i) = entry;
  return entry;
}

}  // namespace iotax::ml
