// Common regressor interface: every model maps a feature Matrix to log10
// I/O throughput predictions.
//
// fit/predict take MatrixView, so models train and score straight off a
// row/column subset of shared storage; a plain Matrix converts
// implicitly, so `model.fit(matrix, y)` call sites read unchanged.
// Views are consumed within the call — no model retains one.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "src/data/view.hpp"

namespace iotax::ml {

class CheckpointReader;

/// Capability report for Regressor::fit_continue. The online loop asks
/// for this instead of dynamic_cast-probing concrete families: a model
/// either supports warm-start continuation (and names the unit one
/// round of continuation adds — "tree" for boosters, "epoch" for
/// gradient trainers) or it does not and fit_continue throws.
struct FitContinueInfo {
  bool supported = false;
  /// What one `extra_rounds` step means for this family ("tree",
  /// "epoch"); empty when unsupported.
  const char* round_unit = "";
};

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Train on features x (n_samples x n_features) and targets y (log10
  /// throughput). Implementations must be deterministic given their
  /// configured seed and must produce bit-identical results whether x is
  /// a whole Matrix or a view of one.
  virtual void fit(const data::MatrixView& x, std::span<const double> y) = 0;

  /// Predict one value per row; requires fit() first.
  virtual std::vector<double> predict(const data::MatrixView& x) const = 0;

  /// Warm-start continuation: add `extra_rounds` more rounds of training
  /// (trees for GBT, epochs for MLP/ensemble members) on top of the
  /// fitted state. The v2 contract is bit-exact resumability: for the
  /// same data and seed, fit(N rounds) followed by
  /// fit_continue(x, y, M) must equal a cold fit(N + M rounds) — same
  /// predictions to the last bit, at any IOTAX_THREADS. Families that
  /// cannot continue (mean, linear — they have no round structure)
  /// report {supported = false} from fit_continue_info() and the default
  /// implementation here throws std::logic_error naming the model.
  virtual void fit_continue(const data::MatrixView& x,
                            std::span<const double> y,
                            std::size_t extra_rounds);

  /// Whether fit_continue is implemented for this family, and what one
  /// round means. Callers must check this instead of probing concrete
  /// types; the base default reports unsupported.
  virtual FitContinueInfo fit_continue_info() const { return {}; }

  /// Short human-readable description ("gbt[trees=32,depth=21]").
  virtual std::string name() const = 0;

  /// Width of the feature vectors this fitted model consumes, or 0 when
  /// the family accepts any width (MeanRegressor). The serve admission
  /// path rejects mis-sized requests against this before batching.
  virtual std::size_t n_features() const { return 0; }

  /// Serialize the fitted model as a v1 checkpoint (src/ml/checkpoint.hpp);
  /// throws std::logic_error when not fitted.
  virtual void save(std::ostream& out) const = 0;

  /// Restore any regressor saved through save(): reads the "<magic>
  /// <version>" header, then the family's static read() reads the body.
  /// The stream is only read forward (a pipe works). Every rejection is
  /// an ml::CheckpointError naming `source` (a path, or "") and a
  /// util::Reason; a bad header also names the token and the known
  /// model magics.
  static std::unique_ptr<Regressor> load(std::istream& in,
                                         const std::string& source = "");
};

/// The magic tokens Regressor::load dispatches on: "iotax-" plus each of
/// regressor_names(), sorted. Error messages and tooling list these so a
/// bad checkpoint says what would have been accepted.
const std::vector<std::string>& known_model_magics();

/// Baseline that predicts the training-set mean: the weakest legitimate
/// model, used to normalise taxonomy error fractions.
class MeanRegressor final : public Regressor {
 public:
  void fit(const data::MatrixView& x, std::span<const double> y) override;
  std::vector<double> predict(const data::MatrixView& x) const override;
  std::string name() const override { return "mean"; }

  void save(std::ostream& out) const override;
  static MeanRegressor read(CheckpointReader& r);

 private:
  double mean_ = 0.0;
  bool fitted_ = false;
};

}  // namespace iotax::ml
