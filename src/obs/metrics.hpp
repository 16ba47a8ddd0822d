// MetricsRegistry: named counters, gauges, and fixed-bucket latency
// histograms for the training/simulation/taxonomy pipeline.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime, so hot call sites cache them in function-local
// statics (see the IOTAX_OBS_* macros). Updates are atomic and safe from
// thread-pool workers; integer sums are order-independent, so metrics
// never perturb the library's bit-determinism guarantees. snapshot()
// rows are sorted by name and exports (JSON, CSV) are byte-stable for a
// given set of observations.
//
// Like tracing, every macro is gated on obs::enabled(): with IOTAX_OBS
// unset the instrumented paths pay one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/trace.hpp"  // obs::enabled()

namespace iotax::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written value ("current jobs/sec", "last epoch loss").
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with inclusive upper edges (Prometheus "le"
/// semantics): bucket i counts observations in (edge[i-1], edge[i]], and
/// a final overflow bucket catches everything above the last edge.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_edges);

  void observe(double v);

  const std::vector<double>& edges() const { return edges_; }
  /// Per-bucket counts; size edges().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  /// Bucket estimate of the q-quantile (q in [0,1]): a linear
  /// interpolation within the bucket holding the q-th observation
  /// (Prometheus histogram_quantile semantics), not a sample's value —
  /// where exact samples exist, take their nearest rank instead. Returns
  /// NaN with no observations; an estimate landing in the overflow
  /// bucket clamps to the last edge.
  double bucket_quantile(double q) const;
  void reset();

 private:
  std::vector<double> edges_;
  std::deque<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency bucket edges in milliseconds: 5 µs .. 60 s in a
/// 1-2.5-5 progression.
const std::vector<double>& latency_ms_edges();

struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    double value = 0.0;
  };
  struct HistogramRow {
    std::string name;
    std::vector<double> edges;
    std::vector<std::uint64_t> buckets;  // edges.size() + 1, last = overflow
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<CounterRow> counters;      // sorted by name
  std::vector<GaugeRow> gauges;          // sorted by name
  std::vector<HistogramRow> histograms;  // sorted by name
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry used by the IOTAX_OBS_* macros.
  static MetricsRegistry& global();

  /// Create-or-get. References stay valid for the registry's lifetime;
  /// reset() zeroes values but never invalidates handles.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `edges` applies on first creation; later calls return the existing
  /// histogram regardless of the edges passed.
  Histogram& histogram(const std::string& name, std::vector<double> edges);

  MetricsSnapshot snapshot() const;

  /// Zero every metric, keeping registrations (and handles) intact.
  void reset();

  void write_json(std::ostream& out) const;
  void write_csv(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Increment a named counter when observability is on. The handle lookup
/// happens once per call site.
#define IOTAX_OBS_COUNT(name, n)                                     \
  do {                                                               \
    if (::iotax::obs::enabled()) {                                   \
      static ::iotax::obs::Counter& iotax_obs_counter =              \
          ::iotax::obs::MetricsRegistry::global().counter(name);     \
      iotax_obs_counter.add(n);                                      \
    }                                                                \
  } while (0)

/// Set a named gauge when observability is on.
#define IOTAX_OBS_GAUGE(name, v)                                     \
  do {                                                               \
    if (::iotax::obs::enabled()) {                                   \
      static ::iotax::obs::Gauge& iotax_obs_gauge =                  \
          ::iotax::obs::MetricsRegistry::global().gauge(name);       \
      iotax_obs_gauge.set(v);                                        \
    }                                                                \
  } while (0)

/// Observe a latency (milliseconds) in a named histogram with the
/// default latency buckets.
#define IOTAX_OBS_HIST_MS(name, ms)                                  \
  do {                                                               \
    if (::iotax::obs::enabled()) {                                   \
      static ::iotax::obs::Histogram& iotax_obs_hist =               \
          ::iotax::obs::MetricsRegistry::global().histogram(         \
              name, ::iotax::obs::latency_ms_edges());               \
      iotax_obs_hist.observe(ms);                                    \
    }                                                                \
  } while (0)

}  // namespace iotax::obs
