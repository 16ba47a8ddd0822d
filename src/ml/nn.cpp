#include "src/ml/nn.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>

#include "src/ml/checkpoint.hpp"
#include "src/ml/kernels/gemm.hpp"
#include "src/obs/trace.hpp"
#include "src/stats/descriptive.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace iotax::ml {

void MlpParams::validate() const {
  for (std::size_t h : hidden) {
    if (h == 0) throw std::invalid_argument("MlpParams: zero-width layer");
  }
  if (learning_rate <= 0.0) {
    throw std::invalid_argument("MlpParams: learning_rate <= 0");
  }
  if (weight_decay < 0.0) {
    throw std::invalid_argument("MlpParams: weight_decay < 0");
  }
  if (dropout < 0.0 || dropout >= 1.0) {
    throw std::invalid_argument("MlpParams: dropout not in [0,1)");
  }
  if (epochs == 0 || batch_size == 0) {
    throw std::invalid_argument("MlpParams: zero epochs/batch");
  }
}

std::string MlpParams::to_string() const {
  std::string s = "mlp[";
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    if (i != 0) s += "x";
    s += std::to_string(hidden[i]);
  }
  s += ",lr=" + std::to_string(learning_rate);
  s += ",do=" + std::to_string(dropout);
  if (nll_head) s += ",nll";
  s += "]";
  return s;
}

// Per-layer Adam moments plus the step counter and the RNG streams the
// epoch loop consumes; holding these (the weights live in the layers)
// is exactly what makes epoch continuation bit-identical to having
// never stopped.
struct MlpTrainState {
  struct Adam {
    std::vector<double> mw, vw, mb, vb;
  };
  std::vector<Adam> adam;
  std::size_t step = 0;
  util::Rng shuffle_rng;
  util::Rng dropout_rng;
  /// Row visit order. Each epoch shuffles it IN PLACE, so epoch k's
  /// permutation compounds on epoch k-1's; a continuation must resume
  /// from the compounded order, not from identity.
  std::vector<std::size_t> order;
};

Mlp::Mlp(MlpParams params) : params_(std::move(params)) { params_.validate(); }

Mlp::~Mlp() = default;
Mlp::Mlp(Mlp&&) noexcept = default;
Mlp& Mlp::operator=(Mlp&&) noexcept = default;

namespace {
constexpr double kLogVarMin = -8.0;
constexpr double kLogVarMax = 4.0;
}  // namespace

const double* Mlp::forward_batch(const double* in, std::size_t n_rows,
                                 std::vector<double>& buf_a,
                                 std::vector<double>& buf_b) const {
  const double* cur = in;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double>& out_buf = (l % 2 == 0) ? buf_a : buf_b;
    if (out_buf.size() < n_rows * layer.out) {
      out_buf.resize(n_rows * layer.out);
    }
    kernels::dense_forward(cur, n_rows, layer.in, layer.w.data(),
                           layer.b.data(), layer.out, out_buf.data());
    if (l + 1 < layers_.size()) {
      // ReLU, elementwise — the same std::max training applies.
      const std::size_t total = n_rows * layer.out;
      for (std::size_t k = 0; k < total; ++k) {
        out_buf[k] = std::max(0.0, out_buf[k]);
      }
    }
    cur = out_buf.data();
  }
  return cur;
}

void Mlp::fit(const data::MatrixView& x, std::span<const double> y) {
  if (x.rows() != y.size()) {
    throw std::invalid_argument("Mlp::fit: size mismatch");
  }
  if (x.rows() < 2) throw std::invalid_argument("Mlp::fit: need >= 2 rows");
  // Fused log1p + standardise: one materialized matrix instead of two.
  const data::Matrix z = scaler_.fit_transform_log1p(x);
  fit_impl(z, y);
}

void Mlp::fit_preprocessed(const data::Matrix& z, std::span<const double> y,
                           const data::StandardScaler& scaler) {
  if (z.rows() != y.size()) {
    throw std::invalid_argument("Mlp::fit_preprocessed: size mismatch");
  }
  if (z.rows() < 2) {
    throw std::invalid_argument("Mlp::fit_preprocessed: need >= 2 rows");
  }
  if (!scaler.fitted() || scaler.means().size() != z.cols()) {
    throw std::invalid_argument("Mlp::fit_preprocessed: scaler mismatch");
  }
  scaler_ = scaler;
  fit_impl(z, y);
}

void Mlp::fit_impl(const data::Matrix& z, std::span<const double> y) {
  IOTAX_TRACE_SPAN("mlp.fit");
  obs::span_arg("rows", static_cast<double>(z.rows()));
  obs::span_arg("epochs", static_cast<double>(params_.epochs));

  y_mean_ = stats::mean(y);
  y_scale_ = std::max(stats::stddev(y), 1e-6);

  // Architecture: input -> hidden... -> output (1 or 2 units).
  const std::size_t out_dim = params_.nll_head ? 2 : 1;
  std::vector<std::size_t> widths;
  widths.push_back(z.cols());
  for (std::size_t h : params_.hidden) widths.push_back(h);
  widths.push_back(out_dim);

  util::Rng rng(params_.seed);
  layers_.clear();
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    Layer layer;
    layer.in = widths[l];
    layer.out = widths[l + 1];
    layer.w.resize(layer.in * layer.out);
    layer.b.assign(layer.out, 0.0);
    // He initialisation for ReLU nets.
    const double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    for (auto& w : layer.w) w = rng.normal(0.0, scale);
    layers_.push_back(std::move(layer));
  }

  // Fresh optimizer state; run_epochs advances it and fit_continue
  // resumes from wherever it stops.
  train_state_ = std::make_unique<MlpTrainState>();
  train_state_->adam.resize(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    train_state_->adam[l].mw.assign(layers_[l].w.size(), 0.0);
    train_state_->adam[l].vw.assign(layers_[l].w.size(), 0.0);
    train_state_->adam[l].mb.assign(layers_[l].b.size(), 0.0);
    train_state_->adam[l].vb.assign(layers_[l].b.size(), 0.0);
  }
  train_state_->shuffle_rng = rng.fork(1);
  train_state_->dropout_rng = rng.fork(2);

  run_epochs(z, y, params_.epochs);
  fitted_ = true;
}

void Mlp::run_epochs(const data::Matrix& z, std::span<const double> y,
                     std::size_t n_epochs) {
  // Target normalisation against the frozen fit-time statistics: the
  // same elementwise arithmetic the cold fit ran, so resuming on the
  // fit-time data recomputes an identical ty.
  std::vector<double> ty(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    ty[i] = (y[i] - y_mean_) / y_scale_;
  }

  MlpTrainState& st = *train_state_;
  const std::size_t n_layers = layers_.size();
  const bool use_dropout = params_.dropout > 0.0;
  const double keep = 1.0 - params_.dropout;

  // Layer-major minibatch scratch, sized for the largest batch. acts[l]
  // is layer l's input for every batch row (acts[0] the gathered rows,
  // acts[l + 1] layer l's output after ReLU and dropout); masks[l] is
  // hidden layer l's dropout mask; delta and delta_in ping-pong the
  // output and input gradients of the layer being backpropagated.
  const std::size_t max_rows = std::min(params_.batch_size, z.rows());
  std::vector<std::vector<double>> acts(n_layers + 1);
  std::vector<std::vector<char>> masks(use_dropout ? n_layers - 1 : 0);
  const std::size_t in_dim = layers_.front().in;
  std::size_t max_width = in_dim;
  acts[0].resize(max_rows * in_dim);
  for (std::size_t l = 0; l < n_layers; ++l) {
    acts[l + 1].resize(max_rows * layers_[l].out);
    if (l < masks.size()) masks[l].resize(max_rows * layers_[l].out);
    max_width = std::max(max_width, layers_[l].out);
  }
  std::vector<double> delta(max_rows * max_width);
  std::vector<double> delta_in(max_rows * max_width);
  std::vector<std::vector<double>> gw(n_layers);
  std::vector<std::vector<double>> gb(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    gw[l].assign(layers_[l].w.size(), 0.0);
    gb[l].assign(layers_[l].b.size(), 0.0);
  }
  // Inference buffers for the obs-only loss pass.
  std::vector<double> eval_a;
  std::vector<double> eval_b;

  std::vector<std::size_t>& order = st.order;
  if (order.size() != z.rows()) {
    order.resize(z.rows());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  }

  kernels::AdamStep update;  // default betas and eps
  update.learning_rate = params_.learning_rate;
  update.weight_decay = params_.weight_decay;

  for (std::size_t epoch = 0; epoch < n_epochs; ++epoch) {
    obs::SpanGuard epoch_span("mlp.epoch");
    st.shuffle_rng.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += params_.batch_size) {
      const std::size_t n = std::min(order.size(), start + params_.batch_size) -
                            start;
      for (auto& g : gw) std::fill(g.begin(), g.end(), 0.0);
      for (auto& g : gb) std::fill(g.begin(), g.end(), 0.0);
      for (std::size_t r = 0; r < n; ++r) {
        const auto row = z.row(order[start + r]);
        std::copy(row.begin(), row.end(), acts[0].data() + r * in_dim);
      }
      if (use_dropout) {
        // Row, then layer, then unit: the order a row-at-a-time forward
        // draws them in, so dropout_rng yields the same stream.
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t l = 0; l < masks.size(); ++l) {
            char* m = masks[l].data() + r * layers_[l].out;
            for (std::size_t o = 0; o < layers_[l].out; ++o) {
              m[o] = st.dropout_rng.uniform() < keep ? 1 : 0;
            }
          }
        }
      }

      // Forward: dense layer, then ReLU and inverted dropout on hidden
      // layers.
      for (std::size_t l = 0; l < n_layers; ++l) {
        const Layer& layer = layers_[l];
        double* out = acts[l + 1].data();
        kernels::dense_forward(acts[l].data(), n, layer.in, layer.w.data(),
                               layer.b.data(), layer.out, out);
        if (l + 1 == n_layers) break;
        const std::size_t total = n * layer.out;
        for (std::size_t k = 0; k < total; ++k) out[k] = std::max(0.0, out[k]);
        if (use_dropout) {
          const char* m = masks[l].data();
          for (std::size_t k = 0; k < total; ++k) {
            out[k] = m[k] != 0 ? out[k] / keep : 0.0;
          }
        }
      }

      // Output deltas (dLoss/dPreactivation of the output layer).
      const std::size_t out_dim = layers_.back().out;
      for (std::size_t r = 0; r < n; ++r) {
        const double* act = acts[n_layers].data() + r * out_dim;
        double* d = delta.data() + r * out_dim;
        const double target = ty[order[start + r]];
        if (params_.nll_head) {
          const double log_var = std::clamp(act[1], kLogVarMin, kLogVarMax);
          const double var = std::exp(log_var);
          const double diff = act[0] - target;
          d[0] = diff / var;
          d[1] = 0.5 - 0.5 * diff * diff / var;
        } else {
          d[0] = act[0] - target;
        }
      }

      // Backprop, top layer down. Layer 0's input gradient would be the
      // gradient w.r.t. the data, which nothing reads, so it is skipped.
      for (std::size_t l = n_layers; l-- > 0;) {
        const Layer& layer = layers_[l];
        kernels::dense_grad_weights(acts[l].data(), delta.data(), n, layer.in,
                                    layer.out, gw[l].data(), gb[l].data());
        if (l == 0) break;
        kernels::dense_grad_input(delta.data(), n, layer.out, layer.w.data(),
                                  layer.in, delta_in.data());
        // Through ReLU (and dropout mask) of the previous layer.
        const double* a = acts[l].data();
        const std::size_t total = n * layer.in;
        for (std::size_t k = 0; k < total; ++k) {
          if (a[k] <= 0.0) {
            delta_in[k] = 0.0;
          } else if (use_dropout) {
            delta_in[k] = masks[l - 1][k] != 0 ? delta_in[k] / keep : 0.0;
          }
        }
        std::swap(delta, delta_in);
      }

      // Adam update with decoupled weight decay (biases are not decayed).
      ++st.step;
      const auto step = static_cast<double>(st.step);
      update.bc1 = 1.0 - std::pow(update.beta1, step);
      update.bc2 = 1.0 - std::pow(update.beta2, step);
      update.batch_n = static_cast<double>(n);
      for (std::size_t l = 0; l < n_layers; ++l) {
        Layer& layer = layers_[l];
        MlpTrainState::Adam& adam = st.adam[l];
        kernels::adam_step(layer.w.data(), adam.mw.data(), adam.vw.data(),
                           gw[l].data(), layer.w.size(), update,
                           /*decay=*/true);
        kernels::adam_step(layer.b.data(), adam.mb.data(), adam.vb.data(),
                           gb[l].data(), layer.b.size(), update,
                           /*decay=*/false);
      }
    }

    if (obs::enabled()) {
      // Mean training loss on the post-epoch weights, summed in row
      // order. Runs only under observation and consumes no RNG (no
      // dropout), so it cannot perturb the fitted model.
      const std::size_t out_dim = layers_.back().out;
      double loss = 0.0;
      for (std::size_t lo = 0; lo < z.rows(); lo += max_rows) {
        const std::size_t hi = std::min(z.rows(), lo + max_rows);
        const double* res =
            forward_batch(z.row(lo).data(), hi - lo, eval_a, eval_b);
        for (std::size_t r = lo; r < hi; ++r) {
          const double* act = res + (r - lo) * out_dim;
          const double diff = act[0] - ty[r];
          if (params_.nll_head) {
            const double log_var = std::clamp(act[1], kLogVarMin, kLogVarMax);
            loss += 0.5 * (log_var + diff * diff / std::exp(log_var));
          } else {
            loss += 0.5 * diff * diff;
          }
        }
      }
      obs::span_arg("epoch", static_cast<double>(epoch));
      obs::span_arg("loss", loss / static_cast<double>(z.rows()));
    }
  }
}

void Mlp::fit_continue(const data::MatrixView& x, std::span<const double> y,
                       std::size_t extra_rounds) {
  if (!fitted_) throw std::logic_error("Mlp::fit_continue: not fitted");
  if (x.rows() != y.size()) {
    throw std::invalid_argument("Mlp::fit_continue: size mismatch");
  }
  if (x.rows() < 2) {
    throw std::invalid_argument("Mlp::fit_continue: need >= 2 rows");
  }
  // The scaler is frozen at fit time; transform_log1p reproduces the
  // fit-time preprocessing bit-exactly (it is the same elementwise
  // arithmetic fit_transform_log1p ran after fitting).
  const data::Matrix z = scaler_.transform_log1p(x);
  fit_continue_preprocessed(z, y, extra_rounds);
}

void Mlp::fit_continue_preprocessed(const data::Matrix& z,
                                    std::span<const double> y,
                                    std::size_t extra_rounds) {
  if (!fitted_) throw std::logic_error("Mlp::fit_continue: not fitted");
  if (z.rows() != y.size()) {
    throw std::invalid_argument("Mlp::fit_continue: size mismatch");
  }
  if (z.cols() != n_features()) {
    throw std::invalid_argument("Mlp::fit_continue: feature count mismatch");
  }
  if (train_state_ == nullptr) {
    throw std::logic_error(
        "Mlp::fit_continue: no retained training state — checkpoints do not "
        "serialize optimizer moments, so loaded models cannot continue");
  }
  if (extra_rounds == 0) return;
  IOTAX_TRACE_SPAN("mlp.fit_continue");
  obs::span_arg("rows", static_cast<double>(z.rows()));
  obs::span_arg("extra_rounds", static_cast<double>(extra_rounds));
  run_epochs(z, y, extra_rounds);
  // A continued model has trained epochs + extra_rounds epochs total;
  // advancing the recorded count keeps name()/save() agreeing with a
  // cold fit of that length.
  params_.epochs += extra_rounds;
}

std::vector<double> Mlp::predict(const data::MatrixView& x) const {
  if (!fitted_) throw std::logic_error("Mlp::predict: not fitted");
  IOTAX_TRACE_SPAN("mlp.predict");
  const data::Matrix z = scaler_.transform_log1p(x);
  std::vector<double> out(z.rows());
  // Rows are independent; each chunk owns scratch buffers and writes
  // only its own output slots (bit-identical at any thread count).
  const std::size_t out_dim = layers_.back().out;
  util::parallel_for_chunks(
      z.rows(),
      [&](std::size_t lo, std::size_t hi) {
        // z is row-major and contiguous, so the chunk is a dense block;
        // forward_batch runs it through the GEMM microkernel.
        std::vector<double> buf_a;
        std::vector<double> buf_b;
        const double* res = forward_batch(z.row(lo).data(), hi - lo,
                                          buf_a, buf_b);
        for (std::size_t r = lo; r < hi; ++r) {
          out[r] = res[(r - lo) * out_dim] * y_scale_ + y_mean_;
        }
      },
      64);
  return out;
}

DistPrediction Mlp::predict_dist(const data::MatrixView& x) const {
  DistPrediction pred;
  predict_dist_into(x, &pred);
  return pred;
}

void Mlp::predict_dist_into(const data::MatrixView& x,
                            DistPrediction* out) const {
  if (!fitted_) throw std::logic_error("Mlp::predict_dist: not fitted");
  const data::Matrix z = scaler_.transform_log1p(x);
  predict_dist_preprocessed(z, out);
}

void Mlp::predict_dist_preprocessed(const data::Matrix& z,
                                    DistPrediction* out) const {
  if (!fitted_) throw std::logic_error("Mlp::predict_dist: not fitted");
  if (!params_.nll_head) {
    throw std::logic_error("Mlp::predict_dist: requires an NLL head");
  }
  IOTAX_TRACE_SPAN("mlp.predict_dist");
  out->mean.resize(z.rows());
  out->variance.resize(z.rows());
  const std::size_t out_dim = layers_.back().out;
  util::parallel_for_chunks(
      z.rows(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> buf_a;
        std::vector<double> buf_b;
        const double* res = forward_batch(z.row(lo).data(), hi - lo,
                                          buf_a, buf_b);
        for (std::size_t r = lo; r < hi; ++r) {
          const double* orow = res + (r - lo) * out_dim;
          out->mean[r] = orow[0] * y_scale_ + y_mean_;
          const double log_var = std::clamp(orow[1], kLogVarMin, kLogVarMax);
          out->variance[r] = std::exp(log_var) * y_scale_ * y_scale_;
        }
      },
      64);
}

std::string Mlp::name() const { return params_.to_string(); }

void Mlp::save(std::ostream& out) const {
  if (!fitted_) throw std::logic_error("Mlp::save: not fitted");
  write_header(out, "iotax-mlp");
  out << "hidden " << params_.hidden.size();
  for (const auto h : params_.hidden) out << ' ' << h;
  out << '\n';
  out << "hyper " << params_.learning_rate << ' ' << params_.weight_decay
      << ' ' << params_.dropout << ' ' << params_.epochs << ' '
      << params_.batch_size << ' ' << (params_.nll_head ? 1 : 0) << ' '
      << params_.seed << '\n';
  out << "target " << y_mean_ << ' ' << y_scale_ << '\n';
  write_scaler(out, scaler_);
  out << "layers " << layers_.size() << '\n';
  for (const auto& layer : layers_) {
    out << "layer " << layer.in << ' ' << layer.out << '\n';
    for (const auto w : layer.w) out << w << ' ';
    out << '\n';
    for (const auto b : layer.b) out << b << ' ';
    out << '\n';
  }
  if (!out) throw std::runtime_error("Mlp::save: stream failure");
}

Mlp Mlp::read(CheckpointReader& r) {
  MlpParams params;
  std::size_t n_hidden = 0;
  r.expect("hidden") >> n_hidden;
  r.values(n_hidden, params.hidden);
  int nll = 0;
  r.expect("hyper") >> params.learning_rate >> params.weight_decay >>
      params.dropout >> params.epochs >> params.batch_size >> nll >>
      params.seed;
  params.nll_head = nll != 0;

  Mlp model = r.checked([&] { return Mlp(params); });
  r.expect("target") >> model.y_mean_ >> model.y_scale_;
  model.scaler_ = r.scaler();
  std::size_t n_layers = 0;
  r.expect("layers") >> n_layers;
  const auto mismatch = [&](const std::string& what) {
    r.fail(util::Reason::kSizeMismatch, "iotax-mlp " + what);
  };
  if (n_layers != params.hidden.size() + 1) {
    mismatch(std::to_string(n_layers) + " layers but hidden lists " +
             std::to_string(params.hidden.size()) + " widths");
  }
  // Every shape is checked before its weights are read: inference
  // walks the layers trusting that each one's input width is the
  // previous one's output width (the scaler's for layer 0) and that
  // the head matches nll_head.
  model.layers_.resize(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    Layer& layer = model.layers_[l];
    r.expect("layer") >> layer.in >> layer.out;
    const bool head = l + 1 == n_layers;
    const std::size_t in =
        l == 0 ? model.scaler_.means().size() : model.layers_[l - 1].out;
    const std::size_t out =
        head ? (params.nll_head ? 2 : 1) : params.hidden[l];
    if (layer.in != in || layer.out != out) {
      mismatch("layer " + std::to_string(l) + (head ? " (the head)" : "") +
               " is " + std::to_string(layer.in) + " -> " +
               std::to_string(layer.out) + " but must be " +
               std::to_string(in) + " -> " + std::to_string(out));
    }
    r.values(layer.in * layer.out, layer.w).values(layer.out, layer.b);
  }
  model.fitted_ = true;
  return model;
}

}  // namespace iotax::ml
