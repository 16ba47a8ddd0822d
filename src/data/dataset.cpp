#include "src/data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace iotax::data {

Dataset Dataset::take(std::span<const std::size_t> rows) const {
  Dataset out;
  out.system_name = system_name;
  out.features = features.take(rows);
  out.meta.reserve(rows.size());
  out.target.reserve(rows.size());
  for (std::size_t r : rows) {
    out.meta.push_back(meta.at(r));
    out.target.push_back(target.at(r));
  }
  return out;
}

std::vector<std::size_t> Dataset::rows_in_window(double t0, double t1) const {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < meta.size(); ++i) {
    if (meta[i].start_time >= t0 && meta[i].start_time < t1) {
      rows.push_back(i);
    }
  }
  return rows;
}

util::QuarantineReport Dataset::validate_all() const {
  util::QuarantineReport report;
  constexpr auto npos = static_cast<std::size_t>(-1);
  if (features.n_rows() != meta.size() || meta.size() != target.size()) {
    report.add({util::Reason::kSizeMismatch, 0, npos, 0,
                "features/meta/target size mismatch"});
  }
  const std::size_t n =
      std::min({features.n_rows(), meta.size(), target.size()});
  for (std::size_t c = 0; c < features.n_cols(); ++c) {
    const auto col = features.col(c);
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(col[i])) {
        report.add({util::Reason::kNonFiniteValue, meta[i].job_id, i, c,
                    "non-finite value in feature '" + features.names()[c] +
                        "'"});
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& m = meta[i];
    if (!std::isfinite(m.start_time) || !std::isfinite(m.end_time)) {
      report.add({util::Reason::kNonFiniteValue, m.job_id, i, 0,
                  "non-finite job timestamps"});
    } else if (m.end_time < m.start_time) {
      report.add({util::Reason::kTimeInverted, m.job_id, i, 0,
                  "job ends before it starts"});
    }
    if (!std::isfinite(target[i])) {
      report.add({util::Reason::kNonFiniteValue, m.job_id, i, 0,
                  "non-finite target"});
    } else if (!(std::fabs(m.log_throughput() - target[i]) <= 1e-9)) {
      // The negated form catches a NaN decomposition too.
      report.add({util::Reason::kTruthMismatch, m.job_id, i, 0,
                  "target does not match ground-truth decomposition"});
    }
  }
  return report;
}

void Dataset::validate() const {
  const auto report = validate_all();
  if (!report.entries().empty()) {
    throw std::logic_error("Dataset: " + report.entries().front().detail);
  }
}

}  // namespace iotax::data
