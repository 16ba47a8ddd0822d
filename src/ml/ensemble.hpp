// AutoDEUQ-style deep ensemble with uncertainty decomposition (§VIII).
//
// K NLL-head MLPs with diverse architectures are trained on the same
// data; by the law of total variance the predictive variance splits into
//   aleatory  AU(x) = E_k[ sigma_k^2(x) ]   (mean predicted noise)
//   epistemic EU(x) = Var_k[ mu_k(x) ]      (model disagreement)
// High-EU samples are flagged out-of-distribution; the paper attributes
// their full error to the OoD class (litmus test 3).
#pragma once

#include <memory>
#include <vector>

#include "src/ml/nas.hpp"
#include "src/ml/nn.hpp"

namespace iotax::ml {

struct EnsembleParams {
  std::size_t size = 8;
  /// Architectures: either mutated from a NAS result (preferred, as in
  /// AutoDEUQ) or sampled randomly when no NAS history is given.
  NasParams space;
  std::size_t epochs = 25;
  std::uint64_t seed = 31;
  /// When non-empty, member architectures are drawn from the best
  /// candidates here (AutoDEUQ's reuse of the NAS population); leaving
  /// it empty samples fresh architectures from `space`.
  std::vector<NasCandidate> nas_history;
};

struct UncertaintyPrediction {
  std::vector<double> mean;       // ensemble mean prediction
  std::vector<double> aleatory;   // AU(x), variance units (log10^2)
  std::vector<double> epistemic;  // EU(x), variance units (log10^2)
};

class DeepEnsemble final : public Regressor {
 public:
  explicit DeepEnsemble(EnsembleParams params = {});

  /// Train the ensemble using params().nas_history for the member
  /// architectures (fresh random samples when it is empty). The training
  /// matrix is preprocessed (log1p + standardise) once and shared across
  /// all members, not re-materialized per member.
  void fit(const data::MatrixView& x, std::span<const double> y) override;

  /// Warm-start continuation: every member runs `extra_rounds` more
  /// epochs from its retained optimizer state against one shared
  /// preprocessed copy of `x` (member hyperparameters were all drawn
  /// up front at fit time, independent of the epoch count, so for the
  /// same data this is bit-identical to a cold fit with
  /// epochs == N + extra_rounds). Loaded ensembles carry no member
  /// optimizer state and throw std::logic_error.
  void fit_continue(const data::MatrixView& x, std::span<const double> y,
                    std::size_t extra_rounds) override;
  FitContinueInfo fit_continue_info() const override {
    return {true, "epoch"};
  }

  UncertaintyPrediction predict_uncertainty(const data::MatrixView& x) const;
  std::vector<double> predict(const data::MatrixView& x) const override;
  std::string name() const override;
  std::size_t n_features() const override {
    return members_.empty() ? 0 : members_.front()->n_features();
  }

  /// Persist the K fitted members ("iotax-ensemble" header followed by
  /// one Mlp block per member). The NAS search space / history are not
  /// round-tripped; a loaded ensemble predicts, it is not refittable
  /// from the same history.
  void save(std::ostream& out) const override;
  /// Reads at least two NLL-head "iotax-mlp" members with one scaler.
  static DeepEnsemble read(CheckpointReader& r);

  std::size_t size() const { return members_.size(); }
  const Mlp& member(std::size_t i) const { return *members_.at(i); }

  const EnsembleParams& params() const { return params_; }

 private:
  EnsembleParams params_;
  std::vector<std::unique_ptr<Mlp>> members_;
};

}  // namespace iotax::ml
