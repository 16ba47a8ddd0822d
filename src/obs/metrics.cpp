#include "src/obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "src/util/json.hpp"

namespace iotax::obs {

namespace {

/// Atomic add for doubles via CAS; relaxed is enough — readers only see
/// the sum through snapshot(), never for synchronization.
void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_edges)
    : edges_(std::move(upper_edges)), buckets_(edges_.size() + 1) {
  if (edges_.empty()) {
    throw std::invalid_argument("Histogram: need at least one bucket edge");
  }
  if (!std::is_sorted(edges_.begin(), edges_.end()) ||
      std::adjacent_find(edges_.begin(), edges_.end()) != edges_.end()) {
    throw std::invalid_argument(
        "Histogram: bucket edges must be strictly increasing");
  }
}

void Histogram::observe(double v) {
  // First bucket whose (inclusive) upper edge admits v; everything above
  // the last edge lands in the overflow bucket.
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - edges_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) out.push_back(b.load(std::memory_order_relaxed));
  return out;
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::bucket_quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const auto counts = bucket_counts();
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  // Rank of the target observation (1-based), then walk buckets until
  // the cumulative count reaches it.
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cum + static_cast<double>(counts[i]);
    if (next >= rank && counts[i] > 0) {
      if (i + 1 == counts.size()) return edges_.back();  // overflow bucket
      const double lo = i == 0 ? 0.0 : edges_[i - 1];
      const double hi = edges_[i];
      const double frac = (rank - cum) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return edges_.back();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& latency_ms_edges() {
  static const std::vector<double> edges = {
      0.005,  0.01,   0.025,  0.05,   0.1,    0.25,    0.5,     1.0,
      2.5,    5.0,    10.0,   25.0,   50.0,   100.0,   250.0,   500.0,
      1000.0, 2500.0, 5000.0, 10000.0, 25000.0, 60000.0};
  return edges;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> edges) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(name, std::move(edges)).first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  // std::map iteration is already name-sorted.
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c.value()});
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g.value()});
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(
        {name, h.edges(), h.bucket_counts(), h.count(), h.sum()});
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

void MetricsRegistry::write_json(std::ostream& out) const {
  const MetricsSnapshot snap = snapshot();
  util::Json counters = util::Json::object();
  for (const auto& row : snap.counters) {
    counters.set(row.name, static_cast<std::size_t>(row.value));
  }
  util::Json gauges = util::Json::object();
  for (const auto& row : snap.gauges) gauges.set(row.name, row.value);
  util::Json histograms = util::Json::object();
  for (const auto& row : snap.histograms) {
    util::Json h = util::Json::object();
    util::Json edges = util::Json::array();
    for (const double e : row.edges) edges.push_back(e);
    util::Json buckets = util::Json::array();
    for (const std::uint64_t b : row.buckets) {
      buckets.push_back(static_cast<std::size_t>(b));
    }
    h.set("edges", std::move(edges));
    h.set("buckets", std::move(buckets));
    h.set("count", static_cast<std::size_t>(row.count));
    h.set("sum", row.sum);
    histograms.set(row.name, std::move(h));
  }
  util::Json doc = util::Json::object();
  doc.set("counters", std::move(counters));
  doc.set("gauges", std::move(gauges));
  doc.set("histograms", std::move(histograms));
  out << doc.dump(1) << '\n';
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  const MetricsSnapshot snap = snapshot();
  out << "type,name,field,value\n";
  for (const auto& row : snap.counters) {
    out << "counter," << row.name << ",value," << row.value << '\n';
  }
  for (const auto& row : snap.gauges) {
    out << "gauge," << row.name << ",value,"
        << util::Json(row.value).dump() << '\n';
  }
  for (const auto& row : snap.histograms) {
    for (std::size_t i = 0; i < row.edges.size(); ++i) {
      out << "histogram," << row.name << ",le_"
          << util::Json(row.edges[i]).dump() << ',' << row.buckets[i] << '\n';
    }
    out << "histogram," << row.name << ",le_inf," << row.buckets.back() << '\n';
    out << "histogram," << row.name << ",count," << row.count << '\n';
    out << "histogram," << row.name << ",sum," << util::Json(row.sum).dump()
        << '\n';
  }
}

}  // namespace iotax::obs
