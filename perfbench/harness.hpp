// Shared pieces of the repo benchmark: options, process clocks and
// memory, the per-run scratch directory, the benchmark's own span log,
// readers for the program's obs spans and counters, and the result
// line the benchmark prints last.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/taxonomy/feature_sets.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// Directory under which the per-run scratch directory and the trace
  /// files are created (the benchmark's build directory).
  std::string work_dir;
};

// ---- clocks and memory ------------------------------------------------

/// Steady-clock seconds since the process started.
double now_s();
/// CPU seconds used by the whole process / by the calling thread.
double process_cpu_s();
double thread_cpu_s();

/// Reset the kernel's peak-RSS mark to the current RSS, so the peak the
/// workload reports excludes input generation. Best effort: kernels
/// without /proc/self/clear_refs keep the process-lifetime peak.
void reset_peak_rss();
/// Peak resident set (VmHWM) in MiB.
double peak_rss_mb();

std::uint64_t fnv1a(std::string_view bytes);

/// Seed for the k-th independent input stream of a run.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k);

// ---- inputs and answers shared by the workloads --------------------------

/// Share of a dataset's rows, the last ones in time order, held out of
/// training: pack_train predicts them, the serve workloads send them.
constexpr double kHoldoutFrac = 0.2;

/// The application feature sets every model of the benchmark trains on.
inline const std::vector<iotax::taxonomy::FeatureSet>& app_features() {
  static const std::vector<iotax::taxonomy::FeatureSet> sets = {
      iotax::taxonomy::FeatureSet::kPosix, iotax::taxonomy::FeatureSet::kMpiio};
  return sets;
}

inline std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

inline bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits(a[i]) != bits(b[i])) return false;
  }
  return true;
}

// ---- idle CPUs --------------------------------------------------------

/// Restricts the calling thread, and the threads it starts from then
/// on, to at most four of the CPUs the process may use, and keeps those
/// from halting: one spinning thread of the lowest priority (SCHED_IDLE,
/// which every other thread preempts on wake-up) pinned to each, the
/// in-process counterpart of booting with idle=poll. On a VM a halted vCPU wakes only when the host
/// schedules it again, so without this a timer or socket wake-up costs
/// whatever the host's load makes it, and the routed serving figures
/// followed the neighbours' load from run to run. The spinners stop and
/// are joined on destruction.
class AwakeCpus {
 public:
  AwakeCpus();
  ~AwakeCpus();
  AwakeCpus(const AwakeCpus&) = delete;
  AwakeCpus& operator=(const AwakeCpus&) = delete;

  /// CPU seconds the spinners have used; CPU figures leave them out.
  double spinner_cpu_s();

 private:
  std::vector<std::jthread> spinners_;
};

// ---- scratch directory ------------------------------------------------

/// A private directory under Options::work_dir, made current for the
/// run so sockets, stores, spill files and checkpoints use short
/// relative paths. Removed, with everything in it, on destruction.
class RunDir {
 public:
  explicit RunDir(const std::string& parent);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string previous_cwd_;
};

// ---- benchmark spans --------------------------------------------------

/// One call into a layer, timed by the benchmark around a public API
/// call. `parent` indexes the enclosing span (-1 at the root).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = -1.0;  // < start while open
  int parent = -1;

  double seconds() const { return end_s - start_s; }
};

/// The benchmark's span log. Main thread only; always on (a few hundred
/// spans per run), so the untraced runs time their phases with the same
/// spans the traced run reports. Kept in memory and written out at exit.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log), index_(log.open(std::move(name))) {}
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Close now; returns the span's duration. Idempotent.
    double end();

   private:
    SpanLog& log_;
    int index_;
    bool open_ = true;
  };

  int open(std::string name);
  double close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Time inside span `index` that none of its direct children covers.
  double uncovered(int index) const;
  /// Index of the last span called `name` (-1 when absent).
  int last(std::string_view name) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog& spans();

// ---- program observability (the traced run) ---------------------------

/// Summed duration / count of the program's obs spans called `name`.
double obs_span_s(std::string_view name);
std::size_t obs_span_count(std::string_view name);
std::uint64_t obs_counter(std::string_view name);
/// Mean of an obs histogram (sum / count; 0 when empty).
double obs_histogram_mean(std::string_view name);

/// Write the program's obs spans and the benchmark's spans as one
/// Chrome trace under <work_dir>/traces/. Returns the path written.
std::string write_trace(const Options& opts);

// ---- result line -----------------------------------------------------

struct LayerShare {
  std::string layer;
  double seconds = 0.0;
};

/// Print a traced run's breakdown of `total_s`: each layer's seconds
/// and share, then the remainder no layer span covers.
void print_shares(const std::string& title, double total_s,
                  const std::vector<LayerShare>& shares, double unexplained_s);

/// Collects metrics, attempt counts and output checks, and prints the
/// JSON result line. The metric names and units are fixed tables
/// (harness.cpp) that BENCHMARK.json mirrors.
class Result {
 public:
  Result();

  void attempts(std::uint64_t attempted, std::uint64_t failed);
  /// An output check: a failure is reported on stderr, counted as a
  /// failed operation and makes the run exit non-zero.
  bool check(bool ok, const std::string& what);

  void end_to_end(const std::string& name, double value);
  void layer(const std::string& name, double value);

  /// Share of attempted operations that did not fail.
  double ok_frac() const;

  /// Every per-layer metric with its unit and the end-to-end metric
  /// and workload it should move, then the tracing overhead.
  void print_layer_metrics() const;

  /// Print the result line (end-to-end metrics, or per-layer metrics
  /// when traced) last on stdout. Returns the process exit code.
  int finish(bool trace) const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> end_to_end_;
  std::map<std::string, double> layer_;
};

/// The metric tables as JSON ({"end_to_end": {name: unit}, "per_layer":
/// {...}}), which run.py compares with BENCHMARK.json.
std::string metric_tables_json();

// ---- workloads --------------------------------------------------------

Result run_taxonomy(const Options& opts);
Result run_pack_train(const Options& opts);
Result run_serve(const Options& opts, bool routed);

}  // namespace perfbench
