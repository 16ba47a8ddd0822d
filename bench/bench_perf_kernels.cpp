// Performance microbenchmarks (google-benchmark) for the library's hot
// kernels: simulation, log writing/parsing, feature binning, GBT, MLP
// and ensemble training, hyperparameter search, and prediction. The
// thread-parameterized benches (Arg = IOTAX_THREADS) track the
// wall-clock speedup of the deterministic thread-pool paths; the rest
// guard single-core throughput.
// Invoked with --kernels_ab, the binary skips google-benchmark and runs
// the scalar-vs-AVX2 A/B harness for the SIMD kernels (histogram split
// scan on a wide-bin level and on tree-shaped traffic, packed forest
// traversal, dense GEMM, and MLP training's weight gradient, input
// gradient and Adam step) at IOTAX_THREADS 1 and 4, verifies the tiers
// agree bit for bit, and writes BENCH_kernels.json
// (bench/bench_report.hpp) with single-thread speedup floors for hist,
// traversal and gemm, skipped when the AVX2 tier did not run.
#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_report.hpp"
#include "src/ml/binning.hpp"
#include "src/ml/kernels/dispatch.hpp"
#include "src/ml/kernels/forest.hpp"
#include "src/ml/kernels/gemm.hpp"
#include "src/ml/kernels/hist.hpp"
#include "src/util/parallel.hpp"
#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/nn.hpp"
#include "src/ml/search.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/taxonomy/duplicates.hpp"
#include "src/taxonomy/feature_sets.hpp"
#include "src/telemetry/darshan_log.hpp"

namespace {

using namespace iotax;

// Pin the pool width for one thread-parameterized benchmark run.
class ScopedThreads {
 public:
  explicit ScopedThreads(long n) {
    ::setenv("IOTAX_THREADS", std::to_string(n).c_str(), 1);
  }
  ~ScopedThreads() { ::unsetenv("IOTAX_THREADS"); }
};

const sim::SimulationResult& shared_result() {
  static const sim::SimulationResult res = [] {
    auto cfg = sim::tiny_system(71);
    cfg.workload.n_jobs = 2000;
    return sim::simulate(cfg);
  }();
  return res;
}

void BM_Simulate(benchmark::State& state) {
  auto cfg = sim::tiny_system(72);
  cfg.workload.n_jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto res = sim::simulate(cfg);
    benchmark::DoNotOptimize(res.dataset.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Simulate)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_WriteArchive(benchmark::State& state) {
  const auto& res = shared_result();
  for (auto _ : state) {
    std::ostringstream out;
    for (const auto& rec : res.records) telemetry::write_record(out, rec);
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(res.records.size()));
}
BENCHMARK(BM_WriteArchive)->Unit(benchmark::kMillisecond);

void BM_ParseArchive(benchmark::State& state) {
  const auto& res = shared_result();
  std::ostringstream out;
  for (const auto& rec : res.records) telemetry::write_record(out, rec);
  const std::string text = out.str();
  for (auto _ : state) {
    std::istringstream in(text);
    const auto parsed =
        telemetry::parse_archive_outcome(in, telemetry::ParseMode::kStrict);
    benchmark::DoNotOptimize(parsed.records.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(res.records.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long>(text.size()));
}
BENCHMARK(BM_ParseArchive)->Unit(benchmark::kMillisecond);

void BM_FeatureBinning(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  for (auto _ : state) {
    ml::BinnedMatrix binned(x, 64);
    benchmark::DoNotOptimize(binned.max_bins_used());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(x.rows() * x.cols()));
}
BENCHMARK(BM_FeatureBinning)->Unit(benchmark::kMillisecond);

void BM_GbtFit(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  ml::GbtParams params;
  params.n_estimators = static_cast<std::size_t>(state.range(0));
  params.max_depth = 6;
  for (auto _ : state) {
    ml::GradientBoostedTrees model(params);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.n_trees());
  }
}
BENCHMARK(BM_GbtFit)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_GbtPredict(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  ml::GbtParams params;
  params.n_estimators = 64;
  ml::GradientBoostedTrees model(params);
  model.fit(x, y);
  for (auto _ : state) {
    const auto pred = model.predict(x);
    benchmark::DoNotOptimize(pred.back());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(x.rows()));
}
BENCHMARK(BM_GbtPredict)->Unit(benchmark::kMillisecond);

void BM_MlpFitEpoch(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  ml::MlpParams params;
  params.hidden = {64, 64};
  params.epochs = 1;
  for (auto _ : state) {
    ml::Mlp model(params);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.name().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(x.rows()));
}
BENCHMARK(BM_MlpFitEpoch)->Unit(benchmark::kMillisecond);

void BM_GbtFitThreaded(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  ScopedThreads threads(state.range(0));
  ml::GbtParams params;
  params.n_estimators = 32;
  params.max_depth = 6;
  for (auto _ : state) {
    ml::GradientBoostedTrees model(params);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.n_trees());
  }
}
BENCHMARK(BM_GbtFitThreaded)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_EnsembleFit(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  ScopedThreads threads(state.range(0));
  ml::EnsembleParams params;
  params.size = 4;
  params.epochs = 2;
  for (auto _ : state) {
    ml::DeepEnsemble ens(params);
    ens.fit(x, y);
    benchmark::DoNotOptimize(ens.size());
  }
}
BENCHMARK(BM_EnsembleFit)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_GridSearch(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  // Front 3/4 train, back 1/4 validation — enough rows for a stable fit.
  const std::size_t split = x.rows() * 3 / 4;
  std::vector<std::size_t> train_rows(split);
  std::vector<std::size_t> val_rows(x.rows() - split);
  for (std::size_t i = 0; i < split; ++i) train_rows[i] = i;
  for (std::size_t i = split; i < x.rows(); ++i) val_rows[i - split] = i;
  const auto x_train = x.take_rows(train_rows);
  const auto x_val = x.take_rows(val_rows);
  const std::vector<double> y_train(y.begin(), y.begin() + split);
  const std::vector<double> y_val(y.begin() + split, y.end());
  ScopedThreads threads(state.range(0));
  ml::GbtGrid grid;
  grid.n_estimators = {8, 16};
  grid.max_depth = {3, 6};
  grid.subsample = {1.0};
  grid.colsample = {1.0};
  for (auto _ : state) {
    const auto res = ml::grid_search(grid, x_train, y_train, x_val, y_val);
    benchmark::DoNotOptimize(res.best.val_error);
  }
  state.SetItemsProcessed(state.iterations() * 4);  // grid points
}
BENCHMARK(BM_GridSearch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Observability overhead on the hottest instrumented path. Arg 0 runs
// with observability off (the shipping default: every IOTAX_TRACE_SPAN /
// IOTAX_OBS_* site collapses to a relaxed atomic load and branch); Arg 1
// runs with spans, counters and histograms live. Compare against
// BM_GbtFitThreaded/1: the disabled path must stay within 2%.
void BM_GbtFitObsOverhead(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  ScopedThreads threads(1);
  const bool obs_on = state.range(0) != 0;
  obs::set_enabled(obs_on);
  ml::GbtParams params;
  params.n_estimators = 32;
  params.max_depth = 6;
  for (auto _ : state) {
    ml::GradientBoostedTrees model(params);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.n_trees());
    if (obs_on) {
      // Keep the span log from growing without bound across iterations;
      // excluded from timing.
      state.PauseTiming();
      obs::TraceLog::global().reset();
      obs::MetricsRegistry::global().reset();
      state.ResumeTiming();
    }
  }
  obs::set_enabled(false);
  obs::TraceLog::global().reset();
  obs::MetricsRegistry::global().reset();
  state.SetLabel(obs_on ? "obs=on" : "obs=off");
}
BENCHMARK(BM_GbtFitObsOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FindDuplicates(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  for (auto _ : state) {
    const auto sets = taxonomy::find_duplicate_sets(ds);
    benchmark::DoNotOptimize(sets.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(ds.size()));
}
BENCHMARK(BM_FindDuplicates)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Scalar-vs-AVX2 A/B harness (--kernels_ab).

namespace kernels_ab {

namespace kn = ml::kernels;

// Pin the kernel tier for one scope; restores "auto" on exit.
class ScopedKernels {
 public:
  explicit ScopedKernels(const char* policy) {
    ::setenv("IOTAX_KERNELS", policy, 1);
    kn::refresh();
  }
  ~ScopedKernels() {
    ::unsetenv("IOTAX_KERNELS");
    kn::refresh();
  }
};

constexpr std::size_t kRows = 50000;
constexpr std::size_t kBins = 64;
constexpr std::size_t kHistFeatures = 32;
// The wide-bin hist entry: the sweep-heavy shape split finding hits on
// high-resolution features (per_feature_bins day-level start-time
// budgets run to kMaxBins), a deep tree level — many small nodes —
// scanning 1024-bin features, which take the kernel's one-feature wide
// pass. 64 nodes x 780 rows under 1024 bins puts roughly 6x more work
// in the sweep than in the build.
constexpr std::size_t kHistBins = 1024;
constexpr std::size_t kHistNodes = 64;
constexpr std::size_t kHistNodeRows = 780;
// The tree-shaped hist entry: what build_tree actually scans on
// default-budget counters. 64 bins; node sizes 2-256 with most scans at
// n <= 16 (deep levels of small nodes); per feature one code holding
// about 60% of rows; and some (feature, node) pairs whose rows all
// share one code.
constexpr std::size_t kTreeBins = 64;
constexpr std::size_t kTreeFeatures = 32;
constexpr std::size_t kTreeNodes = 4096;
constexpr std::size_t kTrees = 64;
constexpr int kTreeDepth = 6;
constexpr std::size_t kTravFeatures = 16;
constexpr std::size_t kGemmRows = 4096;
constexpr std::size_t kGemmDim = 64;
constexpr int kReps = 9;

// CPU time of the whole process, in seconds: a rep is charged for the
// work its threads did, not for whatever else the host ran meanwhile.
double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// --- histogram split scan, mirroring build_tree's node scans ----------

struct HistWorkload {
  std::vector<std::uint16_t> cols;  // feature-major, features x total rows
  std::vector<std::size_t> bins;    // per feature
  std::vector<std::size_t> features;  // every feature, in id order
  std::vector<std::size_t> order;
  std::vector<double> grad;
  std::vector<std::size_t> node_lo;  // nodes + 1 row offsets
  std::vector<kn::NodeScanParams> node_params;  // one per node

  std::size_t nodes() const { return node_params.size(); }
};

// Gradients, per-feature bins and per-node totals for a workload whose
// columns and node offsets are filled in.
void finish_hist_workload(HistWorkload& w, std::mt19937& rng,
                          std::size_t n_features, std::size_t bins) {
  const std::size_t total = w.node_lo.back();
  std::normal_distribution<double> g(0.0, 2.0);
  w.bins.assign(n_features, bins);
  w.features.resize(n_features);
  for (std::size_t f = 0; f < n_features; ++f) w.features[f] = f;
  w.order.resize(total);
  for (std::size_t i = 0; i < total; ++i) w.order[i] = i;
  w.grad.resize(total);
  for (auto& v : w.grad) v = g(rng);
  for (std::size_t node = 0; node + 1 < w.node_lo.size(); ++node) {
    double g_total = 0.0;
    for (std::size_t r = w.node_lo[node]; r < w.node_lo[node + 1]; ++r) {
      g_total += w.grad[r];
    }
    const auto h_total =
        static_cast<double>(w.node_lo[node + 1] - w.node_lo[node]);
    w.node_params.push_back(
        {g_total, h_total, 1.0, 1.0, 0.0,
         g_total * g_total / (h_total + 1.0)});
  }
}

HistWorkload make_hist_workload() {
  HistWorkload w;
  std::mt19937 rng(101);
  const std::size_t total = kHistNodes * kHistNodeRows;
  std::uniform_int_distribution<int> bin(0, kHistBins - 1);
  w.cols.resize(kHistFeatures * total);
  for (auto& c : w.cols) c = static_cast<std::uint16_t>(bin(rng));
  for (std::size_t node = 0; node <= kHistNodes; ++node) {
    w.node_lo.push_back(node * kHistNodeRows);
  }
  finish_hist_workload(w, rng, kHistFeatures, kHistBins);
  return w;
}

// The tree-shaped hist entry (see kTreeBins).
HistWorkload make_tree_hist_workload() {
  HistWorkload w;
  std::mt19937 rng(505);
  std::uniform_int_distribution<int> small(2, 16);
  std::uniform_int_distribution<int> large(17, 256);
  std::uniform_int_distribution<int> bin(0, kTreeBins - 1);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  w.node_lo.push_back(0);
  for (std::size_t node = 0; node < kTreeNodes; ++node) {
    const int n = u(rng) < 0.8 ? small(rng) : large(rng);
    w.node_lo.push_back(w.node_lo.back() + static_cast<std::size_t>(n));
  }
  const std::size_t total = w.node_lo.back();
  w.cols.resize(kTreeFeatures * total);
  for (std::size_t f = 0; f < kTreeFeatures; ++f) {
    const auto dominant = static_cast<std::uint16_t>(bin(rng));
    std::uint16_t* col = w.cols.data() + f * total;
    for (std::size_t node = 0; node < kTreeNodes; ++node) {
      const bool constant = u(rng) < 0.25;
      for (std::size_t r = w.node_lo[node]; r < w.node_lo[node + 1]; ++r) {
        col[r] = constant || u(rng) < 0.6
                     ? dominant
                     : static_cast<std::uint16_t>(bin(rng));
      }
    }
  }
  finish_hist_workload(w, rng, kTreeFeatures, kTreeBins);
  return w;
}

// One pass: every node scanned once over every feature, as build_tree
// scans a node, results into per-(node, feature) slots; nodes spread
// across the pool, scratch kernel-owned per thread.
void run_hist(const HistWorkload& w, std::vector<kn::SplitScan>* out) {
  const std::size_t n_features = w.features.size();
  out->assign(n_features * w.nodes(), {});
  const kn::ScanColumns columns{w.cols.data(), w.node_lo.back(),
                                w.bins.data()};
  util::parallel_for_chunks(w.nodes(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t node = lo; node < hi; ++node) {
      const std::size_t row_lo = w.node_lo[node];
      kn::node_scan(columns, w.features.data(), n_features,
                    w.order.data() + row_lo, w.node_lo[node + 1] - row_lo,
                    w.grad.data() + row_lo, w.node_params[node],
                    out->data() + node * n_features);
    }
  });
}

bool scans_identical(const std::vector<kn::SplitScan>& a,
                     const std::vector<kn::SplitScan>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].valid != b[i].valid || a[i].bin != b[i].bin ||
        a[i].constant != b[i].constant ||
        std::memcmp(&a[i].gain, &b[i].gain, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// --- packed forest code traversal, mirroring predict_codes ------------

struct TravWorkload {
  kn::PackedForest forest;
  std::vector<std::uint16_t> codes;  // row-major, kRows x kTravFeatures
};

TravWorkload make_trav_workload() {
  TravWorkload w;
  std::mt19937 rng(202);
  using NodeDesc = kn::PackedForest::NodeDesc;
  std::normal_distribution<double> leaf(0.0, 1.0);
  for (std::size_t t = 0; t < kTrees; ++t) {
    std::vector<NodeDesc> nodes;
    nodes.push_back({});
    std::vector<std::pair<int, int>> stack = {{0, kTreeDepth}};
    while (!stack.empty()) {
      const auto [idx, d] = stack.back();
      stack.pop_back();
      auto& n = nodes[static_cast<std::size_t>(idx)];
      if (d == 0 || rng() % 5 == 0) {
        n.feature = -1;
        n.split_bin = -1;
        n.left = n.right = -1;
        n.value = leaf(rng);
        continue;
      }
      n.feature = static_cast<int>(rng() % kTravFeatures);
      n.split_bin = static_cast<int>(rng() % (kBins - 1));
      n.threshold = static_cast<double>(n.split_bin);
      const int left = static_cast<int>(nodes.size());
      n.left = left;
      n.right = left + 1;
      nodes.push_back({});  // invalidates n
      nodes.push_back({});
      stack.push_back({left, d - 1});
      stack.push_back({left + 1, d - 1});
    }
    w.forest.add_tree(nodes, /*with_codes=*/true);
  }
  w.codes.resize(kRows * kTravFeatures);
  for (auto& c : w.codes) c = static_cast<std::uint16_t>(rng() % kBins);
  return w;
}

void run_trav(const TravWorkload& w, std::vector<double>* out) {
  out->assign(kRows, 0.0);
  util::parallel_for_chunks(
      kRows,
      [&](std::size_t lo, std::size_t hi) {
        w.forest.predict_codes(w.codes.data() + lo * kTravFeatures,
                               kTravFeatures, hi - lo, out->data() + lo);
      },
      /*grain=*/256);
}

// --- dense GEMM, mirroring Mlp::forward_batch --------------------------

struct GemmWorkload {
  std::vector<double> in;    // kGemmRows x kGemmDim
  std::vector<double> w;     // kGemmDim x kGemmDim
  std::vector<double> bias;  // kGemmDim
};

GemmWorkload make_gemm_workload() {
  GemmWorkload w;
  std::mt19937 rng(303);
  std::normal_distribution<double> d(0.0, 1.0);
  w.in.resize(kGemmRows * kGemmDim);
  w.w.resize(kGemmDim * kGemmDim);
  w.bias.resize(kGemmDim);
  for (auto& v : w.in) v = d(rng);
  for (auto& v : w.w) v = d(rng);
  for (auto& v : w.bias) v = d(rng);
  return w;
}

void run_gemm(const GemmWorkload& w, std::vector<double>* out) {
  out->assign(kGemmRows * kGemmDim, 0.0);
  util::parallel_for_chunks(
      kGemmRows,
      [&](std::size_t lo, std::size_t hi) {
        kn::dense_forward(w.in.data() + lo * kGemmDim, hi - lo, kGemmDim,
                          w.w.data(), w.bias.data(), kGemmDim,
                          out->data() + lo * kGemmDim);
      },
      /*grain=*/64);
}

// --- MLP training kernels, mirroring Mlp::run_epochs --------------------
//
// kGemmRows rows in minibatches of kTrainBatch through a kGemmDim-wide
// hidden layer; about half the output deltas are zero, as ReLU leaves
// them.

constexpr std::size_t kTrainBatch = 64;
constexpr std::size_t kTrainBatches = kGemmRows / kTrainBatch;
constexpr std::size_t kLayerParams = kGemmDim * kGemmDim + kGemmDim;

struct TrainWorkload {
  std::vector<double> a;      // kGemmRows x kGemmDim layer inputs
  std::vector<double> delta;  // kGemmRows x kGemmDim output deltas
  std::vector<double> w;      // kGemmDim x kGemmDim
  std::vector<double> state;  // per batch: params | m | v | grad
};

TrainWorkload make_train_workload() {
  TrainWorkload t;
  std::mt19937 rng(404);
  std::normal_distribution<double> d(0.0, 1.0);
  t.a.resize(kGemmRows * kGemmDim);
  t.delta.resize(kGemmRows * kGemmDim);
  t.w.resize(kGemmDim * kGemmDim);
  for (auto& v : t.a) v = std::max(0.0, d(rng));
  for (auto& v : t.delta) v = rng() % 2 == 0 ? 0.0 : d(rng);
  for (auto& v : t.w) v = d(rng);
  t.state.resize(kTrainBatches * 4 * kLayerParams);
  for (std::size_t k = 0; k < t.state.size(); ++k) {
    const double x = d(rng);
    // v (the third quarter of each batch's block) must be non-negative.
    t.state[k] = (k / kLayerParams) % 4 == 2 ? std::abs(0.01 * x) : x;
  }
  return t;
}

// Weight and bias gradients of every minibatch, from zero.
void run_grad_weights(const TrainWorkload& t, std::vector<double>* out) {
  out->assign(kTrainBatches * kLayerParams, 0.0);
  util::parallel_for(kTrainBatches, [&](std::size_t b) {
    double* gw = out->data() + b * kLayerParams;
    kn::dense_grad_weights(t.a.data() + b * kTrainBatch * kGemmDim,
                           t.delta.data() + b * kTrainBatch * kGemmDim,
                           kTrainBatch, kGemmDim, kGemmDim, gw,
                           gw + kGemmDim * kGemmDim);
  });
}

void run_grad_input(const TrainWorkload& t, std::vector<double>* out) {
  out->assign(kGemmRows * kGemmDim, 0.0);
  util::parallel_for(kTrainBatches, [&](std::size_t b) {
    kn::dense_grad_input(t.delta.data() + b * kTrainBatch * kGemmDim,
                         kTrainBatch, kGemmDim, t.w.data(), kGemmDim,
                         out->data() + b * kTrainBatch * kGemmDim);
  });
}

// One Adam step of a layer's weights and biases per minibatch.
void run_adam(const TrainWorkload& t, std::vector<double>* out) {
  *out = t.state;
  kn::AdamStep step;
  step.bc1 = 1.0 - std::pow(step.beta1, 3.0);
  step.bc2 = 1.0 - std::pow(step.beta2, 3.0);
  step.weight_decay = 1e-5;
  step.batch_n = static_cast<double>(kTrainBatch);
  util::parallel_for(kTrainBatches, [&](std::size_t b) {
    double* p = out->data() + b * 4 * kLayerParams;
    double* m = p + kLayerParams;
    double* v = m + kLayerParams;
    const double* g = v + kLayerParams;
    const std::size_t nw = kGemmDim * kGemmDim;
    kn::adam_step(p, m, v, g, nw, step, /*decay=*/true);
    kn::adam_step(p + nw, m + nw, v + nw, g + nw, kGemmDim, step,
                  /*decay=*/false);
  });
}

struct AbResult {
  double scalar_ms[2];  // [0] = 1 thread, [1] = 4 threads
  double avx2_ms[2];
  bool identical = true;
};

struct KernelAb {
  const char* name;
  AbResult result;
  // Single-thread AVX2 speedup floor; 0: none. Far below the measured
  // speedups: it catches the vector path rotting back to scalar, not a
  // noisy runner.
  double floor = 0.0;
};

// Time one kernel under both tiers and both thread counts; identity is
// every output against the scalar single-thread reference. The tiers
// alternate rep by rep (and which goes first alternates too), so drift
// in the host's load lands on both; each rep is charged its process CPU
// time and the median rep is kept.
template <typename OutT, typename RunFn, typename EqFn>
AbResult ab_kernel(const RunFn& run, const EqFn& eq) {
  AbResult r;
  OutT reference;
  {
    ScopedKernels tier("scalar");
    ScopedThreads threads(1);
    run(&reference);
  }
  const char* const tiers[2] = {"scalar", "avx2"};
  const long thread_counts[2] = {1, 4};
  for (int ti = 0; ti < 2; ++ti) {
    ScopedThreads threads(thread_counts[ti]);
    OutT out[2];
    std::vector<double> ms[2];
    for (int k = 0; k < 2; ++k) {  // warm-up: page in, spin up the pool
      ScopedKernels tier(tiers[k]);
      run(&out[k]);
    }
    for (int rep = 0; rep < kReps; ++rep) {
      for (int j = 0; j < 2; ++j) {
        const int k = rep % 2 == 0 ? j : 1 - j;
        ScopedKernels tier(tiers[k]);
        const double t0 = process_cpu_s();
        run(&out[k]);
        ms[k].push_back((process_cpu_s() - t0) * 1e3);
        r.identical = r.identical && eq(reference, out[k]);
      }
    }
    r.scalar_ms[ti] = median(ms[0]);
    r.avx2_ms[ti] = median(ms[1]);
  }
  return r;
}

bool doubles_identical(const std::vector<double>& a,
                       const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

int run_kernels_ab() {
  bench::banner("SIMD kernel A/B (scalar vs AVX2, median process CPU ms)",
                "histogram scan / packed traversal / dense GEMM / MLP "
                "training");
  const bool avx2_active = kn::avx2_compiled() && kn::avx2_supported();
  std::printf("dispatch: %s\n", kn::describe().c_str());
  if (!avx2_active) {
    std::printf("AVX2 tier unavailable; A/B degenerates to scalar/scalar\n");
  }

  const auto hist_w = make_hist_workload();
  const auto hist = ab_kernel<std::vector<kn::SplitScan>>(
      [&](std::vector<kn::SplitScan>* out) { run_hist(hist_w, out); },
      scans_identical);

  const auto tree_hist_w = make_tree_hist_workload();
  const auto tree_hist = ab_kernel<std::vector<kn::SplitScan>>(
      [&](std::vector<kn::SplitScan>* out) { run_hist(tree_hist_w, out); },
      scans_identical);

  const auto trav_w = make_trav_workload();
  const auto trav = ab_kernel<std::vector<double>>(
      [&](std::vector<double>* out) { run_trav(trav_w, out); },
      doubles_identical);

  const auto gemm_w = make_gemm_workload();
  const auto gemm = ab_kernel<std::vector<double>>(
      [&](std::vector<double>* out) { run_gemm(gemm_w, out); },
      doubles_identical);

  const auto train_w = make_train_workload();
  const auto grad_weights = ab_kernel<std::vector<double>>(
      [&](std::vector<double>* out) { run_grad_weights(train_w, out); },
      doubles_identical);
  const auto grad_input = ab_kernel<std::vector<double>>(
      [&](std::vector<double>* out) { run_grad_input(train_w, out); },
      doubles_identical);
  const auto adam = ab_kernel<std::vector<double>>(
      [&](std::vector<double>* out) { run_adam(train_w, out); },
      doubles_identical);

  const KernelAb kernels[] = {{"hist", hist, 1.05},
                              {"hist_tree", tree_hist},
                              {"traversal", trav, 1.2},
                              {"gemm", gemm, 1.2},
                              {"grad_weights", grad_weights},
                              {"grad_input", grad_input},
                              {"adam", adam}};
  bool identical = true;
  std::printf("%-12s %4s %12s %12s %9s %6s\n", "kernel", "thr", "scalar_ms",
              "avx2_ms", "speedup", "ident");
  for (const auto& k : kernels) {
    identical = identical && k.result.identical;
    for (int ti = 0; ti < 2; ++ti) {
      std::printf("%-12s %4d %12.2f %12.2f %8.2fx %6s\n", k.name,
                  ti == 0 ? 1 : 4, k.result.scalar_ms[ti],
                  k.result.avx2_ms[ti],
                  k.result.scalar_ms[ti] / k.result.avx2_ms[ti],
                  k.result.identical ? "yes" : "NO");
    }
  }

  bench::Report out{"kernels", {}};
  out.add({.name = "rows", .value = kRows, .unit = "rows", .gate = "hard"});
  out.add({.name = "dispatch", .value = kn::describe(), .unit = "text"});
  out.add({.name = "avx2_active", .value = avx2_active, .unit = "bool"});
  out.add({.name = "identical", .value = identical, .unit = "bool",
           .gate = "hard", .limit = true});
  for (const auto& k : kernels) {
    for (int ti = 0; ti < 2; ++ti) {
      const std::string at = std::string(k.name) + (ti == 0 ? ".t1." : ".t4.");
      const AbResult& r = k.result;
      out.add({.name = at + "scalar_ms", .value = r.scalar_ms[ti],
               .unit = "ms"});
      out.add({.name = at + "avx2_ms", .value = r.avx2_ms[ti], .unit = "ms"});
      bench::Record speedup{.name = at + "speedup",
                            .value = r.scalar_ms[ti] / r.avx2_ms[ti],
                            .unit = "x"};
      if (ti == 0 && k.floor > 0.0) {
        speedup.gate = "floor";
        speedup.limit = k.floor;
        if (!avx2_active) {
          speedup.skipped = "AVX2 tier inactive: a scalar/scalar A/B";
        }
      }
      out.add(std::move(speedup));
    }
  }
  out.write();
  std::printf("tiers bit-identical   %s\n", identical ? "PASS" : "FAIL");
  return identical ? 0 : 1;
}

}  // namespace kernels_ab

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--kernels_ab") {
      return kernels_ab::run_kernels_ab();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
