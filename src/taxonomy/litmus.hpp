// The paper's litmus tests (§VI-§IX): data-driven estimators that split a
// model's error into the five taxonomy classes.
//
//   1. Application-modeling bound — duplicate sets give the best error any
//      model of application features alone can reach (§VI.A).
//   2. Global-system bound — a "golden" model that also sees the job start
//      time removes system-modeling error; its test error bounds what any
//      app+system model can reach (§VII.A).
//   3. Out-of-distribution attribution — deep-ensemble epistemic
//      uncertainty flags OoD jobs; their error is e_OoD (§VIII.A).
//   4/5. Contention+noise bound — concurrent (Δt≈0) duplicates isolate
//      ζ_l and ω; a Student-t fit with Bessel correction yields the
//      system's irreducible I/O variability (§IX.A).
#pragma once

#include <optional>

#include "src/data/split.hpp"
#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/stats/fitting.hpp"
#include "src/taxonomy/duplicates.hpp"
#include "src/taxonomy/feature_sets.hpp"

namespace iotax::taxonomy {

// ------------------------------------------------ Litmus 1: application

struct AppBoundResult {
  DuplicateStats stats;
  double median_abs_error = 0.0;  // the bound, in log10 units
  double mean_abs_error = 0.0;
};

/// Estimate the lower bound on median |log10| error achievable by any
/// model that sees only application features (duplicate-set litmus test).
AppBoundResult litmus_application_bound(const data::DatasetView& ds);

// ------------------------------------------------ Litmus 2: system

struct SystemBoundResult {
  double err_app_only = 0.0;   // tuned model on application features
  double err_with_time = 0.0;  // golden model: + start time (the bound)
  double reduction_frac = 0.0; // relative error drop from the time feature
};

/// Train the start-time golden model and report its test error next to
/// `err_app_only`, the test error of the caller's model on application
/// features alone (the pipeline passes the tuned model Step 2.2 already
/// scored). The timed matrices hold the application features plus the
/// start time, which must be their LAST column (its bin budget is
/// widened to day-level resolution).
SystemBoundResult litmus_system_bound(double err_app_only,
                                      const data::MatrixView& x_train_timed,
                                      const data::MatrixView& x_test_timed,
                                      std::span<const double> y_train,
                                      std::span<const double> y_test,
                                      const ml::GbtParams& params);

// ------------------------------------------------ Litmus 3: OoD

struct OodResult {
  double eu_threshold = 0.0;
  std::size_t n_ood = 0;
  double frac_ood = 0.0;         // OoD fraction of test jobs
  double error_share_ood = 0.0;  // fraction of total |error| they carry
  double error_ratio = 0.0;      // mean OoD error / mean error
  std::vector<bool> is_ood;      // per test row
};

/// Classify test jobs by epistemic uncertainty and attribute error. The
/// threshold defaults to the inverse-cumulative-error "shoulder": the
/// smallest EU value t such that jobs above t contribute under
/// `shoulder_frac` of total error (§VIII.A's robust-threshold argument).
OodResult litmus_ood(std::span<const double> epistemic,
                     std::span<const double> abs_errors,
                     std::optional<double> eu_threshold = std::nullopt,
                     double shoulder_frac = 0.03);

// ------------------------------------------------ Litmus 4/5: noise

struct NoiseBoundResult {
  std::size_t n_sets = 0;
  std::size_t n_jobs = 0;
  double median_abs_error = 0.0;  // concurrent-duplicate bound (log10)
  double sigma_log10 = 0.0;       // Bessel-corrected spread estimate
  double band68_pct = 0.0;        // +-% band at 68% coverage
  double band95_pct = 0.0;        // +-% band at 95% coverage
  stats::StudentTFit t_fit;
  stats::NormalFit normal_fit;
  double t_preference = 0.0;      // >0: Student-t fits better per sample
  /// Fraction of concurrent sets with exactly 2 members (paper: 70% on
  /// Theta) and with <= 6 members (96%).
  double frac_sets_of_two = 0.0;
  double frac_sets_leq_six = 0.0;
};

/// Estimate the contention+noise floor from duplicates started within
/// `dt_window` seconds of each other, excluding rows flagged in
/// `exclude` (OoD jobs, per the litmus ordering).
NoiseBoundResult litmus_noise_bound(const data::DatasetView& ds,
                                    double dt_window = 1.0,
                                    const std::vector<bool>* exclude = nullptr);

// ------------------------------------------------ Fig. 6 helper

struct DtBin {
  double dt_lo = 0.0;
  double dt_hi = 0.0;
  std::size_t n_pairs = 0;
  double p05 = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double stddev = 0.0;
};

/// Weighted distribution of duplicate-pair Δφ per Δt bin (log-spaced
/// edges in seconds). The first bin [0, edges[0]) holds the concurrent
/// pairs.
std::vector<DtBin> dt_binned_distributions(const data::DatasetView& ds,
                                           std::span<const double> edges);

}  // namespace iotax::taxonomy
