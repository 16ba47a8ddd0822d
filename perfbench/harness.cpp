#include "perfbench/harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <stdlib.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <stdexcept>
#include <system_error>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  /// The end-to-end metric and workload a change to this layer should
  /// move (per-layer metrics only).
  const char* moves;
};

// Metrics every run prints. BENCHMARK.json lists the same names and
// units (run.py refuses to run when they differ, see
// metric_tables_json); README.md defines each per workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"wall_s", "s", ""},
    {"cpu_s", "s", ""},
    {"peak_rss_mb", "MiB", ""},
    {"p50_ms", "ms", ""},
    {"saturated_rps", "req/s", ""},
    {"ok_frac", "ratio", ""},
};

// Per-layer metrics of the traced run, grouped by layer. A layer a
// workload never calls reports 0.
constexpr MetricDef kPerLayer[] = {
    {"data.read_csv_s", "s", "setup_s on taxonomy"},
    {"data.store_write_s", "s", "setup_s on pack_train"},
    {"data.store_mb", "MiB", "setup_s on pack_train"},
    {"data.store_open_s", "s", "setup_s on pack_train"},
    {"data.peak_materialized_mb", "MiB", "peak_rss_mb on pack_train, taxonomy"},
    {"data.peak_mapped_mb", "MiB", "peak_rss_mb on pack_train, taxonomy"},
    {"ingest.parse_build_s", "s", "setup_s on pack_train"},
    {"ingest.records", "count", "ok_frac on pack_train"},
    {"ingest.kept_frac", "ratio", "ok_frac on pack_train"},
    {"ml.gbt_fit_s", "s", "wall_s, cpu_s on taxonomy, pack_train"},
    {"ml.gbt_trees", "count", "wall_s, cpu_s on taxonomy, pack_train"},
    {"ml.hist_scans", "count", "wall_s, cpu_s on taxonomy, pack_train"},
    {"ml.search_s", "s", "wall_s, cpu_s on taxonomy"},
    {"ml.search_trials", "count", "wall_s, cpu_s on taxonomy"},
    {"ml.ensemble_fit_s", "s", "wall_s, cpu_s on taxonomy"},
    {"ml.mlp_epochs", "count", "wall_s, cpu_s on taxonomy"},
    {"ml.predict_s", "s", "wall_s on pack_train"},
    {"ml.checkpoint_save_s", "s", "wall_s on pack_train"},
    {"ml.checkpoint_load_s", "s", "setup_s on serve_direct, serve_routed"},
    {"ml.batch_predict_us", "us", "saturated_rps on serve_direct"},
    {"taxonomy.baseline_s", "s", "wall_s on taxonomy"},
    {"taxonomy.app_bound_s", "s", "wall_s on taxonomy"},
    {"taxonomy.search_s", "s", "wall_s on taxonomy"},
    {"taxonomy.system_bound_s", "s", "wall_s on taxonomy"},
    {"taxonomy.lmt_enrich_s", "s", "wall_s on taxonomy"},
    {"taxonomy.ood_s", "s", "wall_s on taxonomy"},
    {"taxonomy.noise_bound_s", "s", "wall_s on taxonomy"},
    {"taxonomy.unexplained_s", "s", "wall_s on taxonomy"},
    {"serve.start_s", "s", "setup_s on serve_direct, serve_routed"},
    {"serve.batches", "count", "p50_ms, saturated_rps on serve_direct, serve_routed"},
    {"serve.rows_per_batch", "rows", "saturated_rps on serve_direct, serve_routed"},
    {"serve.fixed_rate_rows_per_batch", "rows", "p50_ms on serve_direct, serve_routed"},
    {"serve.shed", "count", "ok_frac on serve_direct, serve_routed"},
    {"serve.errors", "count", "ok_frac on serve_direct, serve_routed"},
    {"serve.server_mean_ms", "ms", "p50_ms on serve_direct, serve_routed"},
    {"serve.transport_mean_ms", "ms", "p50_ms on serve_direct; p50_ms, saturated_rps on serve_routed"},
    {"fleet.start_s", "s", "setup_s on serve_routed"},
    {"fleet.attempts_per_req", "ratio", "ok_frac, p50_ms on serve_routed"},
    {"fleet.failovers", "count", "ok_frac on serve_routed"},
    {"fleet.degraded", "count", "ok_frac on serve_routed"},
    {"client.samples", "count", "sample count behind the client percentiles"},
    {"client.p90_ms", "ms", "p50_ms on serve_direct, serve_routed (tail)"},
    {"client.p99_ms", "ms", "p50_ms on serve_direct, serve_routed (tail)"},
    {"client.p999_ms", "ms", "p50_ms on serve_direct, serve_routed (tail)"},
    {"client.late_p99_ms", "ms", "generator health: a late sender hides backlog"},
    {"client.offered_rps", "req/s", "generator health: the fixed rate"},
    {"client.achieved_rps", "req/s", "below offered_rps means a growing backlog"},
    {"util.pool_parallelism", "ratio", "wall_s on taxonomy, pack_train"},
    {"obs.overhead_frac", "ratio", "tracing cost (traced vs untraced work)"},
    {"bench.unexplained_frac", "ratio", "share of setup_s + wall_s no layer span covers"},
};

template <std::size_t N>
const MetricDef* find_def(const MetricDef (&table)[N], const std::string& name) {
  for (const auto& def : table) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

const auto kProcessStart = std::chrono::steady_clock::now();

double clock_s(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::vector<iotax::obs::SpanEvent> obs_spans_named(std::string_view name) {
  std::vector<iotax::obs::SpanEvent> out;
  for (auto& ev : iotax::obs::TraceLog::global().snapshot()) {
    if (ev.name == name) out.push_back(std::move(ev));
  }
  return out;
}

}  // namespace

// ---- clocks and memory ------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("perfbench: VmHWM missing from /proc/self/status");
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return iotax::util::Rng(seed).fork(k).next();
}

// ---- idle CPUs --------------------------------------------------------

namespace {

/// The serve workloads run on at most this many CPUs, so on a large
/// machine the spinners occupy no more than a small VM's worth.
constexpr std::size_t kMaxCpus = 4;

/// The first kMaxCpus CPUs the process may use; the calling thread, and
/// every thread it starts from then on, is restricted to them.
std::vector<int> restrict_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error(std::string("perfbench: sched_getaffinity: ") +
                             std::strerror(errno));
  }
  std::vector<int> out;
  cpu_set_t used;
  CPU_ZERO(&used);
  for (int cpu = 0; cpu < CPU_SETSIZE && out.size() < kMaxCpus; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    out.push_back(cpu);
    CPU_SET(cpu, &used);
  }
  if (::sched_setaffinity(0, sizeof used, &used) != 0) {
    throw std::runtime_error(std::string("perfbench: sched_setaffinity: ") +
                             std::strerror(errno));
  }
  return out;
}

}  // namespace

AwakeCpus::AwakeCpus() {
  for (const int cpu : restrict_cpus()) {
    // A spinner at normal priority would take CPU time from the threads
    // under test, so it spins only once it is pinned and SCHED_IDLE.
    std::promise<int> ready;
    auto ready_err = ready.get_future();
    spinners_.emplace_back([&ready, cpu](const std::stop_token& stop) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_param none{};
      int err = ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
      if (err == 0) err = ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &none);
      ready.set_value(err);
      if (err != 0) return;
      while (!stop.stop_requested()) {
      }
    });
    if (const int err = ready_err.get(); err != 0) {
      throw std::runtime_error("perfbench: idle spinner on CPU " + std::to_string(cpu) +
                               ": " + std::strerror(err));
    }
  }
}

AwakeCpus::~AwakeCpus() {
  for (auto& t : spinners_) t.request_stop();
  spinners_.clear();  // joins
}

double AwakeCpus::spinner_cpu_s() {
  double sum = 0.0;
  for (auto& t : spinners_) {
    clockid_t id{};
    if (::pthread_getcpuclockid(t.native_handle(), &id) != 0) {
      throw std::runtime_error("perfbench: no CPU clock for an idle spinner");
    }
    sum += clock_s(id);
  }
  return sum;
}

// ---- scratch directory ------------------------------------------------

RunDir::RunDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string templ = parent + "/run-XXXXXX";
  if (::mkdtemp(templ.data()) == nullptr) {
    throw std::runtime_error("perfbench: mkdtemp under " + parent + ": " +
                             std::strerror(errno));
  }
  path_ = std::filesystem::absolute(templ).string();
  previous_cwd_ = std::filesystem::current_path().string();
  std::filesystem::current_path(path_);
}

RunDir::~RunDir() {
  std::error_code ec;
  std::filesystem::current_path(previous_cwd_, ec);
  std::filesystem::remove_all(path_, ec);
}

// ---- benchmark spans --------------------------------------------------

double SpanLog::Scope::end() {
  if (!open_) return log_.spans()[static_cast<std::size_t>(index_)].seconds();
  open_ = false;
  return log_.close(index_);
}

int SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = now_s();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

double SpanLog::close(int index) {
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("perfbench: spans must close innermost first");
  }
  stack_.pop_back();
  auto& s = spans_[static_cast<std::size_t>(index)];
  s.end_s = now_s();
  return s.seconds();
}

double SpanLog::uncovered(int index) const {
  // Children of one span on one thread never overlap, so their union is
  // their sum.
  double covered = 0.0;
  for (const auto& s : spans_) {
    if (s.parent == index && s.end_s >= s.start_s) covered += s.seconds();
  }
  return spans_[static_cast<std::size_t>(index)].seconds() - covered;
}

int SpanLog::last(std::string_view name) const {
  for (int i = static_cast<int>(spans_.size()) - 1; i >= 0; --i) {
    if (spans_[static_cast<std::size_t>(i)].name == name) return i;
  }
  return -1;
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

// ---- program observability --------------------------------------------

double obs_span_s(std::string_view name) {
  double sum = 0.0;
  for (const auto& ev : obs_spans_named(name)) sum += 1e-9 * static_cast<double>(ev.dur_ns);
  return sum;
}

std::size_t obs_span_count(std::string_view name) {
  return obs_spans_named(name).size();
}

std::uint64_t obs_counter(std::string_view name) {
  for (const auto& row : iotax::obs::MetricsRegistry::global().snapshot().counters) {
    if (row.name == name) return row.value;
  }
  return 0;
}

double obs_histogram_mean(std::string_view name) {
  for (const auto& row : iotax::obs::MetricsRegistry::global().snapshot().histograms) {
    if (row.name == name) {
      return row.count == 0 ? 0.0 : row.sum / static_cast<double>(row.count);
    }
  }
  return 0.0;
}

std::string write_trace(const Options& opts) {
  namespace obs = iotax::obs;
  // Benchmark spans join the program's as a thread of their own, shifted
  // onto the obs trace clock.
  const bool was_on = obs::enabled();
  obs::set_enabled(true);
  const double offset_ns =
      static_cast<double>(obs::now_ns_if_enabled()) - now_s() * 1e9;
  obs::set_enabled(was_on);
  constexpr std::uint64_t kIdBase = 1ULL << 40;
  const auto& all = spans().spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    if (s.end_s < s.start_s) continue;
    obs::SpanEvent ev;
    ev.name = "bench:" + s.name;
    ev.id = kIdBase + i;
    ev.parent = s.parent < 0 ? 0 : kIdBase + static_cast<std::uint64_t>(s.parent);
    ev.tid = 9999;
    ev.start_ns = static_cast<std::int64_t>(s.start_s * 1e9 + offset_ns);
    ev.dur_ns = static_cast<std::int64_t>(s.seconds() * 1e9);
    obs::TraceLog::global().record(std::move(ev));
  }
  const auto dir = std::filesystem::path(opts.work_dir) / "traces";
  std::filesystem::create_directories(dir);
  const auto path =
      dir / (opts.workload + "-seed" + std::to_string(opts.seed) + ".json");
  std::ofstream out(path);
  obs::TraceLog::global().write_chrome_json(out);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path.string());
  return path.string();
}

// ---- result line -----------------------------------------------------

Result::Result() {
  for (const auto& def : kPerLayer) layer_[def.name] = 0.0;
}

void Result::attempts(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
    std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
  }
  return ok;
}

void Result::end_to_end(const std::string& name, double value) {
  if (find_def(kEndToEnd, name) == nullptr) {
    throw std::logic_error("perfbench: unknown end-to-end metric " + name);
  }
  end_to_end_[name] = value;
}

void Result::layer(const std::string& name, double value) {
  if (find_def(kPerLayer, name) == nullptr) {
    throw std::logic_error("perfbench: unknown per-layer metric " + name);
  }
  layer_[name] = value;
}

double Result::ok_frac() const {
  return attempted_ == 0 ? 0.0
                         : 1.0 - static_cast<double>(failed_) /
                                     static_cast<double>(attempted_);
}

void print_shares(const std::string& title, double total_s,
                  const std::vector<LayerShare>& shares, double unexplained_s) {
  const auto pct = [&](double v) { return total_s > 0.0 ? 100.0 * v / total_s : 0.0; };
  std::printf("== %s ==\n", title.c_str());
  std::printf("  %-46s %12.6f s\n", "end-to-end total", total_s);
  for (const auto& row : shares) {
    std::printf("  %-46s %12.6f s %7.2f%%\n", row.layer.c_str(), row.seconds,
                pct(row.seconds));
  }
  std::printf("  %-46s %12.6f s %7.2f%%\n", "unexplained (no layer span)",
              unexplained_s, pct(unexplained_s));
}

void Result::print_layer_metrics() const {
  std::printf("== per-layer metrics (traced run) ==\n");
  for (const auto& def : kPerLayer) {
    std::printf("  %-34s %14.6g %-6s -> %s\n", def.name, layer_.at(def.name),
                def.unit, def.moves);
  }
  std::printf("tracing overhead against the untraced work of this run: %+.2f%%\n",
              100.0 * layer_.at("obs.overhead_frac"));
}

std::string metric_tables_json() {
  std::string out = "{";
  const auto table = [&](const char* key, const auto& defs) {
    out += std::string("\"") + key + "\": {";
    bool first = true;
    for (const auto& def : defs) {
      out += std::string(first ? "" : ", ") + "\"" + def.name + "\": \"" + def.unit + "\"";
      first = false;
    }
    out += "}";
  };
  table("end_to_end", kEndToEnd);
  out += ", ";
  table("per_layer", kPerLayer);
  return out + "}";
}

int Result::finish(bool trace) const {
  std::string metrics;
  const auto emit = [&](const MetricDef& def, double value) {
    if (!std::isfinite(value)) {
      throw std::runtime_error(std::string("perfbench: metric ") + def.name +
                               " is not finite");
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, value, def.unit);
    metrics += buf;
  };
  if (trace) {
    for (const auto& def : kPerLayer) emit(def, layer_.at(def.name));
  } else {
    for (const auto& def : kEndToEnd) {
      const auto it = end_to_end_.find(def.name);
      if (it == end_to_end_.end()) {
        throw std::logic_error(std::string("perfbench: end-to-end metric ") +
                               def.name + " was never set");
      }
      emit(def, it->second);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

}  // namespace perfbench
