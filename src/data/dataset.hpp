// The joined per-job dataset the models train on: one feature Table plus
// per-job metadata. The metadata carries the simulator's ground-truth
// decomposition (log f_a/f_g/f_l/f_n) so litmus-test estimates can be
// validated against the true generating process — something the paper's
// authors could not do with production logs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/data/table.hpp"
#include "src/util/quarantine.hpp"

namespace iotax::data {

struct JobMeta {
  std::uint64_t job_id = 0;
  std::uint64_t app_id = 0;
  /// Identifies a duplicate set: jobs with equal (app_id, config_id) have
  /// identical observable application features.
  std::uint64_t config_id = 0;
  double start_time = 0.0;  // seconds since dataset epoch
  double end_time = 0.0;
  std::uint32_t nodes = 0;
  /// App first appeared after the train cutoff (ground-truth OoD marker).
  bool novel_app = false;

  // Ground-truth log10 decomposition of throughput (Eq. 3 of the paper).
  double log_fa = 0.0;  // idealized application throughput
  double log_fg = 0.0;  // global system (weather) impact
  double log_fl = 0.0;  // contention impact
  double log_fn = 0.0;  // inherent noise

  /// Measured log10 I/O throughput (MiB/s) = log_fa+log_fg+log_fl+log_fn.
  double log_throughput() const {
    return log_fa + log_fg + log_fl + log_fn;
  }
};

struct Dataset {
  Table features;                // one row per job (superset of feature sets)
  std::vector<JobMeta> meta;     // parallel to feature rows
  std::vector<double> target;    // log10 throughput, parallel to rows
  std::string system_name;       // e.g. "theta-like"

  std::size_t size() const { return meta.size(); }

  /// Subset by row indices (features, meta and target together).
  Dataset take(std::span<const std::size_t> rows) const;

  /// Row indices whose start_time is in [t0, t1).
  std::vector<std::size_t> rows_in_window(double t0, double t1) const;

  /// Internal consistency checks: throws std::logic_error carrying the
  /// first violation validate_all() reports.
  void validate() const;

  /// Collect EVERY internal-consistency violation into a structured
  /// report instead of failing at the first, using the same reason
  /// codes the ingest quarantine speaks: size-mismatch, time-inverted,
  /// non-finite-value (features, target, or timestamps), truth-mismatch.
  /// An empty report means validate() passes.
  util::QuarantineReport validate_all() const;
};

/// Three-way split indices. Time-ordered splits model deployment: the
/// validation and test sets come after the training period.
struct Split {
  std::vector<std::size_t> train;
  std::vector<std::size_t> val;
  std::vector<std::size_t> test;
};

}  // namespace iotax::data
