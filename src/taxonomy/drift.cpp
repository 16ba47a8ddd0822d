#include "src/taxonomy/drift.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/data/view.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/fitting.hpp"
#include "src/util/str.hpp"

namespace iotax::taxonomy {

DriftReport monitor_drift(std::span<const double> times,
                          std::span<const double> errors,
                          const DriftParams& params) {
  if (times.size() != errors.size() || times.empty()) {
    throw std::invalid_argument("monitor_drift: bad input sizes");
  }
  if (params.window_seconds <= 0.0 || params.reference_windows == 0) {
    throw std::invalid_argument("monitor_drift: bad params");
  }
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (times[i] < times[i - 1]) {
      throw std::invalid_argument("monitor_drift: times must be sorted");
    }
  }

  // Slice into windows.
  const double t_begin = times.front();
  std::vector<std::vector<double>> window_abs;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto w = static_cast<std::size_t>((times[i] - t_begin) /
                                            params.window_seconds);
    if (w >= window_abs.size()) window_abs.resize(w + 1);
    window_abs[w].push_back(std::fabs(errors[i]));
  }
  if (window_abs.size() <= params.reference_windows) {
    throw std::invalid_argument(
        "monitor_drift: not enough data beyond the reference period");
  }

  DriftReport report;
  std::vector<double> reference;
  for (std::size_t w = 0; w < params.reference_windows; ++w) {
    reference.insert(reference.end(), window_abs[w].begin(),
                     window_abs[w].end());
  }
  if (reference.empty()) {
    throw std::invalid_argument("monitor_drift: empty reference period");
  }
  report.reference_median = stats::median(reference);
  report.n_reference_jobs = reference.size();

  for (std::size_t w = params.reference_windows; w < window_abs.size(); ++w) {
    DriftWindow win;
    win.t0 = t_begin + static_cast<double>(w) * params.window_seconds;
    win.t1 = win.t0 + params.window_seconds;
    win.n_jobs = window_abs[w].size();
    if (!window_abs[w].empty()) {
      win.median_abs_error = stats::median(window_abs[w]);
      win.error_ratio =
          report.reference_median > 0.0
              ? win.median_abs_error / report.reference_median
              : 0.0;
      win.ks = stats::two_sample_ks(window_abs[w], reference);
      win.alarm = win.n_jobs >= params.min_jobs &&
                  (win.error_ratio > params.error_ratio_alarm ||
                   win.ks > params.ks_alarm);
    }
    report.windows.push_back(win);
  }
  report.first_alarm = report.windows.size();
  for (std::size_t i = 0; i < report.windows.size(); ++i) {
    if (report.windows[i].alarm) {
      ++report.n_alarms;
      if (report.first_alarm == report.windows.size()) report.first_alarm = i;
    }
  }
  return report;
}

std::string render_drift_report(const DriftReport& report) {
  std::ostringstream out;
  out << "drift monitor: reference median |log10 err| = "
      << util::format_double(report.reference_median, 4) << " ("
      << report.n_reference_jobs << " jobs)\n";
  out << "window(day)   jobs   median    ratio     KS   status\n";
  for (const auto& w : report.windows) {
    char line[128];
    std::snprintf(line, sizeof(line), "%6.0f-%-6.0f %5zu %8.4f %8.2f %6.2f   %s\n",
                  w.t0 / 86400.0, w.t1 / 86400.0, w.n_jobs,
                  w.median_abs_error, w.error_ratio, w.ks,
                  w.alarm ? "ALARM" : (w.n_jobs == 0 ? "empty" : "ok"));
    out << line;
  }
  out << report.n_alarms << " alarmed window(s)\n";
  return out.str();
}

std::vector<FeatureDrift> feature_drift(
    const data::Table& features, std::span<const std::size_t> reference_rows,
    std::span<const std::size_t> recent_rows, std::size_t top_k) {
  if (reference_rows.empty() || recent_rows.empty()) {
    throw std::invalid_argument("feature_drift: empty row set");
  }
  std::vector<FeatureDrift> drifts;
  drifts.reserve(features.n_cols());
  std::vector<double> ref;
  std::vector<double> rec;
  for (std::size_t c = 0; c < features.n_cols(); ++c) {
    const auto col = features.col(c);
    data::gather(col, reference_rows, &ref);
    data::gather(col, recent_rows, &rec);
    drifts.push_back({features.names()[c], stats::two_sample_ks(ref, rec)});
  }
  std::sort(drifts.begin(), drifts.end(),
            [](const FeatureDrift& a, const FeatureDrift& b) {
              return a.ks > b.ks;
            });
  if (drifts.size() > top_k) drifts.resize(top_k);
  return drifts;
}

}  // namespace iotax::taxonomy
