// Feedforward neural network regressor with Adam, dropout, weight decay,
// and an optional heteroscedastic Gaussian-NLL head (mean + log-variance
// outputs). The NLL head is what the AutoDEUQ-style deep ensemble needs
// to separate aleatory from epistemic uncertainty (§VIII).
//
// Inputs are preprocessed internally (signed log1p + standardisation) and
// the target is centred/scaled, so callers pass raw counter features.
//
// Training runs one layer at a time over a whole minibatch through the
// dispatched kernels of src/ml/kernels/gemm.hpp, and its bits equal
// those of training one row at a time (the reference trainer in
// tests/ml_test.cpp):
//   - the batch's dropout masks are drawn up front in row-at-a-time
//     order (row, then layer, then unit), so dropout_rng yields the
//     same stream;
//   - the forward pass is kernels::dense_forward, the inference kernel,
//     so training follows IOTAX_FAST_MATH as inference does (off by
//     default, and only then bit-identical);
//   - backprop skips a zero delta as a per-row `if (d == 0.0) continue`
//     would, so 0 * inf never becomes NaN;
//   - layer 0's input gradient (the gradient w.r.t. the data) is never
//     computed, because nothing reads it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "src/data/scaler.hpp"
#include "src/ml/model.hpp"

namespace iotax::ml {

/// Optimizer state retained between fit() and fit_continue(): Adam
/// moments, the global step count, and the shuffle/dropout RNG streams.
/// Defined in nn.cpp; lives only on models fitted in this process
/// (checkpoints don't serialize optimizer moments, so loaded models
/// cannot continue).
struct MlpTrainState;

struct MlpParams {
  std::vector<std::size_t> hidden = {64, 64};
  double learning_rate = 1e-3;
  double weight_decay = 1e-5;
  double dropout = 0.0;
  std::size_t epochs = 30;
  std::size_t batch_size = 64;
  /// Two-output Gaussian head (mean, log variance) trained with NLL
  /// instead of a single-output MSE head.
  bool nll_head = false;
  std::uint64_t seed = 1;

  void validate() const;
  std::string to_string() const;
};

/// Mean/variance prediction from an NLL-head network (variance is the
/// predicted *aleatory* variance in target units).
struct DistPrediction {
  std::vector<double> mean;
  std::vector<double> variance;
};

class Mlp final : public Regressor {
 public:
  explicit Mlp(MlpParams params = {});
  // Out-of-line for the unique_ptr<MlpTrainState> member (incomplete
  // here); declaring the destructor suppresses the implicit moves, so
  // they are re-declared and defaulted in nn.cpp.
  ~Mlp() override;
  Mlp(Mlp&&) noexcept;
  Mlp& operator=(Mlp&&) noexcept;

  void fit(const data::MatrixView& x, std::span<const double> y) override;

  /// Warm-start continuation: run `extra_rounds` more epochs from the
  /// retained optimizer state (Adam moments, step count, shuffle and
  /// dropout RNG streams). The preprocessing scaler and target
  /// normalisation stay frozen at their fit-time values, so re-feeding
  /// the fit-time matrix reproduces the exact training stream and
  /// fit(N epochs) + fit_continue(x, y, M) is bit-identical to a cold
  /// fit with epochs == N + M (params_.epochs is advanced to match).
  /// Models loaded from a checkpoint carry no optimizer state and throw
  /// std::logic_error here.
  void fit_continue(const data::MatrixView& x, std::span<const double> y,
                    std::size_t extra_rounds) override;
  FitContinueInfo fit_continue_info() const override {
    return {true, "epoch"};
  }
  std::vector<double> predict(const data::MatrixView& x) const override;
  std::string name() const override;
  std::size_t n_features() const override {
    return layers_.empty() ? 0 : layers_.front().in;
  }

  /// fit() on an already log1p'd + standardised matrix, adopting the
  /// scaler that produced it. DeepEnsemble preprocesses its training set
  /// once and shares `z` across all members instead of each member
  /// re-materializing the identical transform.
  void fit_preprocessed(const data::Matrix& z, std::span<const double> y,
                        const data::StandardScaler& scaler);

  /// fit_continue() on an already log1p'd + standardised matrix (the
  /// output of scaler().transform_log1p). DeepEnsemble transforms its
  /// input once and continues every member against the shared copy.
  void fit_continue_preprocessed(const data::Matrix& z,
                                 std::span<const double> y,
                                 std::size_t extra_rounds);

  /// Mean and aleatory variance; requires an NLL head.
  DistPrediction predict_dist(const data::MatrixView& x) const;

  /// predict_dist writing into an existing buffer, so callers looping
  /// over many inputs (or ensemble members) can reuse one allocation.
  void predict_dist_into(const data::MatrixView& x, DistPrediction* out) const;

  /// predict_dist_into on an already-preprocessed matrix (the output of
  /// scaler().transform_log1p). DeepEnsemble transforms its input once
  /// and shares it across members — which all hold the same fit-time
  /// scaler — instead of materializing one identical copy per member.
  void predict_dist_preprocessed(const data::Matrix& z,
                                 DistPrediction* out) const;

  /// The fitted preprocessing scaler (log1p + standardise parameters).
  const data::StandardScaler& scaler() const { return scaler_; }

  /// Serialize the fitted network (weights + preprocessing) as versioned
  /// text; read() restores bit-identical predictions.
  void save(std::ostream& out) const override;
  static Mlp read(CheckpointReader& r);

  const MlpParams& params() const { return params_; }

 private:
  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<double> w;  // out x in, row-major
    std::vector<double> b;  // out
  };

  /// Forward over a dense row-major block (n_rows x input width,
  /// contiguous) through the dispatched GEMM microkernel
  /// (kernels::dense_forward), without dropout — bit-identical per row
  /// to the training forward with dropout off. Returns a pointer to the
  /// final layer's activations (n_rows x out_dim) inside one of the two
  /// ping-pong scratch buffers.
  const double* forward_batch(const double* in, std::size_t n_rows,
                              std::vector<double>& buf_a,
                              std::vector<double>& buf_b) const;

  /// Training loop on the preprocessed matrix (scaler_ already set).
  void fit_impl(const data::Matrix& z, std::span<const double> y);

  /// Run `n_epochs` epochs of the Adam/SGD loop against the retained
  /// train_state_ (which must exist). Shared by fit_impl (from a fresh
  /// state) and fit_continue (resuming).
  void run_epochs(const data::Matrix& z, std::span<const double> y,
                  std::size_t n_epochs);

  MlpParams params_;
  std::vector<Layer> layers_;
  data::StandardScaler scaler_;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
  bool fitted_ = false;
  // Retained optimizer state for fit_continue; null on loaded models.
  std::unique_ptr<MlpTrainState> train_state_;
};

}  // namespace iotax::ml
