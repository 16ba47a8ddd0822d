// Deployment-time drift monitoring — the operational counterpart of the
// paper's generalization analysis (§VIII, Fig. 1c) and its concept-drift
// reference [5]: watch a deployed model's error stream in time windows
// and raise an alarm when the error level or its distribution departs
// from the reference period, so operators retrain *before* predictions
// quietly rot.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/data/table.hpp"

namespace iotax::taxonomy {

struct DriftParams {
  double window_seconds = 86400.0 * 7.0;  // one week per window
  /// First `reference_windows` windows define the healthy baseline.
  std::size_t reference_windows = 4;
  /// Alarm when a window's median |error| exceeds this multiple of the
  /// reference median.
  double error_ratio_alarm = 1.5;
  /// Alarm when the two-sample KS statistic between a window's error
  /// distribution and the reference distribution exceeds this.
  double ks_alarm = 0.30;
  /// Windows with fewer jobs are reported but never alarmed.
  std::size_t min_jobs = 30;
};

struct DriftWindow {
  double t0 = 0.0;
  double t1 = 0.0;
  std::size_t n_jobs = 0;
  double median_abs_error = 0.0;
  double error_ratio = 0.0;  // vs reference median
  double ks = 0.0;           // vs reference distribution
  bool alarm = false;
};

struct DriftReport {
  double reference_median = 0.0;
  std::size_t n_reference_jobs = 0;
  std::vector<DriftWindow> windows;  // post-reference windows only
  std::size_t n_alarms = 0;
  /// First alarmed window index, or windows.size() if none.
  std::size_t first_alarm = 0;
};

/// Analyse a deployed model's error stream. `times` are job start times
/// (seconds), `errors` signed log10 prediction errors, both parallel and
/// time-sorted. Throws if the reference period is empty.
DriftReport monitor_drift(std::span<const double> times,
                          std::span<const double> errors,
                          const DriftParams& params = {});

/// Render as aligned text rows with alarm markers.
std::string render_drift_report(const DriftReport& report);

// ------------------------------------------------------- feature drift

struct FeatureDrift {
  std::string feature;
  double ks = 0.0;  // two-sample KS: reference window vs recent window
};

/// Data drift, as opposed to error drift: compare each feature column's
/// distribution between a reference row set and a recent row set, and
/// rank features by KS distance. Flags *why* a model drifted (e.g. new
/// applications shifting POSIX_SIZE buckets) before labels/errors are
/// even available.
std::vector<FeatureDrift> feature_drift(
    const data::Table& features, std::span<const std::size_t> reference_rows,
    std::span<const std::size_t> recent_rows, std::size_t top_k = 10);

}  // namespace iotax::taxonomy
