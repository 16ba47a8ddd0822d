// The two batch workloads: a taxonomy run over cori-like dataset CSVs,
// and pack -> out-of-core train over cori-like job-log shards.
//
// Each pass is one closed-loop request with one outstanding. The batch
// end-to-end metrics are medians over passes, which the few sites whose
// search picks deep trees do not drag (README.md defines each metric
// per workload).
#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "perfbench/harness.hpp"
#include "perfbench/stats.hpp"
#include "src/data/footprint.hpp"
#include "src/data/store.hpp"
#include "src/data/table_io.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/registry.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/dataset_builder.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/taxonomy/feature_sets.hpp"
#include "src/taxonomy/pipeline.hpp"
#include "src/telemetry/darshan_log.hpp"

namespace perfbench {

namespace {

using namespace iotax;

constexpr int kSetupRepeats = 8;
constexpr double kMiB = 1024.0 * 1024.0;

constexpr const char* kSteps[] = {"baseline",     "app_bound",  "search",
                                  "system_bound", "lmt_enrich", "ood",
                                  "noise_bound"};

/// Wall and CPU time of one pass, timed by its "bench.pass" span.
struct PassTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

template <typename F>
PassTime timed_pass(F&& body) {
  const double cpu0 = process_cpu_s();
  SpanLog::Scope pass(spans(), "bench.pass");
  body();
  PassTime t;
  t.wall_s = pass.end();
  t.cpu_s = process_cpu_s() - cpu0;
  return t;
}

double sum_wall(const std::vector<PassTime>& v) {
  double s = 0.0;
  for (const auto& t : v) s += t.wall_s;
  return s;
}

double sum_cpu(const std::vector<PassTime>& v) {
  double s = 0.0;
  for (const auto& t : v) s += t.cpu_s;
  return s;
}

std::vector<double> walls(const std::vector<PassTime>& v) {
  std::vector<double> out;
  for (const auto& t : v) out.push_back(t.wall_s);
  return out;
}

std::vector<double> cpus(const std::vector<PassTime>& v) {
  std::vector<double> out;
  for (const auto& t : v) out.push_back(t.cpu_s);
  return out;
}

/// Share of the last setup plus every traced pass that no layer span
/// covers, as seconds; `total_s` receives the denominator.
double bench_uncovered(double* total_s) {
  const auto& all = spans().spans();
  const int setup = spans().last("bench.setup");
  double total = all[static_cast<std::size_t>(setup)].seconds();
  double uncovered = spans().uncovered(setup);
  for (int i = 0; i < static_cast<int>(all.size()); ++i) {
    const auto& s = all[static_cast<std::size_t>(i)];
    const bool traced_pass =
        s.name == "bench.pass" && s.parent >= 0 &&
        all[static_cast<std::size_t>(s.parent)].name == "bench.work";
    if (traced_pass) {
      total += s.seconds();
      uncovered += spans().uncovered(i);
    }
  }
  *total_s = total;
  return uncovered;
}

/// Summed duration of the spans called `name` inside the traced passes
/// (children of a "bench.pass" under the last "bench.work" root).
double under_traced_work(std::string_view name) {
  const auto& all = spans().spans();
  const int root = spans().last("bench.work");
  double sum = 0.0;
  for (const auto& s : all) {
    if (s.name != name || s.parent < 0) continue;
    if (all[static_cast<std::size_t>(s.parent)].parent == root) sum += s.seconds();
  }
  return sum;
}

// ---- taxonomy ---------------------------------------------------------

// A site is a small cori-like deployment: 350 jobs over 30 days keeps
// every one of the seven steps at full confidence (enough duplicate and
// concurrent sets; 75 of 75 sites checked) at ~1.4 s a pass.
constexpr std::size_t kSiteJobs = 350;
constexpr double kSiteHorizonS = 86400.0 * 30.0;

/// Sites per run, one pass each. Pass cost depends on what the step-2.2
/// search picks (a 128-tree depth-16 winner costs ~2x a 64x4 one), so
/// per-site cost varies by ~1/3; a run averages over many sites.
int site_count(int seconds) { return std::max(3, seconds); }

sim::SimConfig site_config(std::uint64_t seed, int k) {
  auto cfg = sim::cori_like(sub_seed(seed, static_cast<std::uint64_t>(k)));
  cfg.workload.n_jobs = kSiteJobs;
  cfg.workload.horizon = kSiteHorizonS;
  cfg.weather.horizon = kSiteHorizonS;
  cfg.catalog.horizon = kSiteHorizonS;
  return cfg;
}

struct TaxonomyPass {
  PassTime time;
  std::uint64_t digest = 0;
  std::size_t degraded_steps = 0;
  std::size_t steps = 0;
};

TaxonomyPass taxonomy_pass(const data::Dataset& site) {
  TaxonomyPass out;
  taxonomy::TaxonomyReport report;
  out.time = timed_pass([&] {
    SpanLog::Scope call(spans(), "taxonomy.run_taxonomy");
    report = taxonomy::run_taxonomy(site);
  });
  out.digest = fnv1a(taxonomy::render_report(report));
  out.steps = report.health.size();
  for (const auto& h : report.health) {
    if (h.degraded || h.confidence != "full") ++out.degraded_steps;
  }
  return out;
}

}  // namespace

Result run_taxonomy(const Options& opts) {
  Result result;
  RunDir dir(opts.work_dir);
  const int n_sites = site_count(opts.seconds);

  // Inputs: one CSV per site, generated before anything is timed.
  std::vector<std::string> paths, systems;
  for (int k = 0; k < n_sites; ++k) {
    const auto cfg = site_config(opts.seed, k);
    const auto sim_result = sim::simulate(cfg);
    paths.push_back("site" + std::to_string(k) + ".csv");
    systems.push_back(cfg.name);
    data::write_dataset_csv(paths.back(), sim_result.dataset);
  }
  reset_peak_rss();
  data::footprint::reset_peak();

  // Setup: read every site's CSV. Repeated, half before the work (the
  // last of those is used) and half after it, so the median samples the
  // shared machine over the whole run.
  std::vector<double> setup_s, read_s;
  const auto read_sites = [&] {
    std::vector<data::Dataset> out;
    read_s.clear();
    SpanLog::Scope setup(spans(), "bench.setup");
    for (int k = 0; k < n_sites; ++k) {
      SpanLog::Scope read(spans(), "data.read_csv");
      out.push_back(data::read_dataset_csv(paths[static_cast<std::size_t>(k)],
                                           systems[static_cast<std::size_t>(k)]));
      read_s.push_back(read.end());
    }
    setup_s.push_back(setup.end());
    return out;
  };
  std::vector<data::Dataset> sites;
  for (int r = 0; r < kSetupRepeats / 2; ++r) {
    sites.clear();  // one copy of the inputs at a time
    sites = read_sites();
  }

  // Measured work: one taxonomy pass per site. The traced run repeats
  // the sweep with the program's obs on, for the per-layer numbers and
  // the tracing overhead.
  std::vector<TaxonomyPass> passes;
  {
    SpanLog::Scope work(spans(), opts.trace ? "bench.untraced_work" : "bench.work");
    for (const auto& site : sites) passes.push_back(taxonomy_pass(site));
  }
  std::vector<TaxonomyPass> traced;
  if (opts.trace) {
    obs::set_enabled(true);
    SpanLog::Scope work(spans(), "bench.work");
    for (const auto& site : sites) traced.push_back(taxonomy_pass(site));
    obs::set_enabled(false);
  }
  // Peaks of the measured run, read before the repeated set-ups below
  // hold a second copy of the inputs.
  const double peak_mb = peak_rss_mb();
  const auto peak_materialized = data::footprint::peak_bytes();
  for (int r = kSetupRepeats / 2; r < kSetupRepeats; ++r) read_sites();

  // Output checks: every step at full confidence; tracing never changes
  // a report byte.
  std::vector<PassTime> times;
  std::vector<double> latency_s, rows_per_s;
  std::size_t degraded = 0;
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const auto& p = passes[k];
    result.attempts(p.steps, p.degraded_steps);
    degraded += p.degraded_steps;
    result.check(p.steps == std::size(kSteps),
                 "site " + std::to_string(k) + " reported " +
                     std::to_string(p.steps) + " steps, expected 7");
    if (opts.trace) {
      result.check(traced[k].digest == p.digest,
                   "site " + std::to_string(k) +
                       " report digest differs between untraced and traced runs");
    }
    times.push_back(p.time);
    // A user's taxonomy request starts from the CSV on disk.
    latency_s.push_back(read_s[k] + p.time.wall_s);
    rows_per_s.push_back(static_cast<double>(sites[k].size()) / p.time.wall_s);
  }
  result.check(degraded == 0, std::to_string(degraded) +
                                  " taxonomy step(s) ran below full confidence");

  std::printf("taxonomy passes over %zu sites, wall s:", times.size());
  for (const auto& t : times) std::printf(" %.3f", t.wall_s);
  std::printf("\n  pass p50 %.4f s, request (read + pass) p50 %.4f s (nearest rank, "
              "n=%zu); setup p50 %.4f s (n=%zu)\n",
              median(walls(times)), median(latency_s), latency_s.size(),
              median(setup_s), setup_s.size());
  result.end_to_end("setup_s", median(setup_s));
  result.end_to_end("wall_s", median(walls(times)));
  result.end_to_end("cpu_s", median(cpus(times)));
  result.end_to_end("peak_rss_mb", peak_mb);
  result.end_to_end("p50_ms", 1e3 * median(latency_s));
  result.end_to_end("saturated_rps", median(rows_per_s));
  result.end_to_end("ok_frac", result.ok_frac());

  if (opts.trace) {
    const double n = static_cast<double>(traced.size());
    std::vector<PassTime> traced_times;
    for (const auto& p : traced) traced_times.push_back(p.time);
    const double read_total = std::accumulate(read_s.begin(), read_s.end(), 0.0);
    result.layer("data.read_csv_s", read_total);
    result.layer("data.peak_materialized_mb", static_cast<double>(peak_materialized) / kMiB);
    result.layer("ml.gbt_fit_s", obs_span_s("gbt.fit") / n);
    result.layer("ml.gbt_trees", static_cast<double>(obs_counter("gbt.trees")) / n);
    result.layer("ml.hist_scans", static_cast<double>(obs_counter("gbt.hist_scans")) / n);
    result.layer("ml.search_s", obs_span_s("search.grid") / n);
    result.layer("ml.search_trials",
                 static_cast<double>(obs_counter("search.trials")) / n);
    result.layer("ml.ensemble_fit_s", obs_span_s("ensemble.fit") / n);
    result.layer("ml.mlp_epochs", static_cast<double>(obs_span_count("mlp.epoch")) / n);
    double steps_s = 0.0;
    std::vector<LayerShare> shares;
    shares.push_back({"data.read_csv", read_total});
    for (const char* step : kSteps) {
      const double s = obs_span_s(std::string("taxonomy.") + step);
      steps_s += s;
      result.layer(std::string("taxonomy.") + step + "_s", s / n);
      shares.push_back({std::string("taxonomy.") + step, s});
    }
    result.layer("taxonomy.unexplained_s", (obs_span_s("taxonomy.run") - steps_s) / n);
    shares.push_back({"taxonomy.run_taxonomy outside its steps",
                      under_traced_work("taxonomy.run_taxonomy") - steps_s});
    result.layer("util.pool_parallelism", sum_cpu(times) / sum_wall(times));
    result.layer("obs.overhead_frac", sum_wall(traced_times) / sum_wall(times) - 1.0);
    double total_s = 0.0;
    const double unexplained_s = bench_uncovered(&total_s);
    result.layer("bench.unexplained_frac", unexplained_s / total_s);
    print_shares(opts.workload + ": setup + measured work", total_s, shares,
                 unexplained_s);
    result.print_layer_metrics();
  }
  return result;
}

// ---- pack_train -------------------------------------------------------

namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kPackJobs = 4000;

}  // namespace

Result run_pack_train(const Options& opts) {
  Result result;
  RunDir dir(opts.work_dir);
  // Out-of-core settings below the working set (3.2K train rows x 96
  // features, 600 KiB of bin codes): binning takes the external-sort path
  // in 1024-row runs and the code planes spill to mmap files in the run
  // directory.
  ::setenv("IOTAX_OOC", "1", 1);
  ::setenv("IOTAX_OOC_CHUNK_ROWS", "1024", 1);
  ::setenv("IOTAX_OOC_SPILL_BYTES", "262144", 1);
  ::setenv("IOTAX_OOC_DIR", dir.path().c_str(), 1);

  // Inputs: the job-log archive in four text shards plus the site's LMT
  // timeline, generated before anything is timed.
  std::vector<sim::IngestShard> shards;
  telemetry::LmtTimeline lmt;
  std::string system;
  {
    auto cfg = sim::cori_like(opts.seed);
    cfg.workload.n_jobs = kPackJobs;
    auto sim_result = sim::simulate(cfg);
    system = cfg.name;
    lmt = std::move(sim_result.lmt);
    const auto& records = sim_result.records;
    for (std::size_t s = 0; s < kShards; ++s) {
      const auto lo = static_cast<long>(s * records.size() / kShards);
      const auto hi = static_cast<long>((s + 1) * records.size() / kShards);
      sim::IngestShard shard;
      shard.path = "shard" + std::to_string(s) + ".darshan";
      telemetry::write_archive(
          shard.path, std::vector<telemetry::JobLogRecord>(records.begin() + lo,
                                                           records.begin() + hi));
      shards.push_back(shard);
    }
  }
  reset_peak_rss();
  data::footprint::reset_peak();

  // Setup: stream the shards into a store and open it with checksum
  // verification, each time into a fresh directory. Repeated, half
  // before the work (the last of those is used) and half after it, so
  // the median samples the shared machine over the whole run.
  std::vector<double> setup_s;
  sim::ShardedIngestSummary summary;
  double append_s = 0.0, finish_s = 0.0, open_s = 0.0, ingest_s = 0.0;
  const auto pack = [&](int r) -> std::unique_ptr<data::ColumnStore> {
    const std::string store_dir = "store" + std::to_string(r);
    SpanLog::Scope setup(spans(), "bench.setup");
    std::unique_ptr<data::StoreWriter> writer;
    append_s = 0.0;
    {
      SpanLog::Scope ingest(spans(), "ingest.ingest_shards");
      summary = sim::ingest_shards(
          shards, &lmt, system, nullptr, sim::IngestMode::kLenient,
          [&](data::Dataset&& chunk) {
            SpanLog::Scope append(spans(), "data.store_append");
            if (!writer) {
              writer = std::make_unique<data::StoreWriter>(
                  store_dir, chunk.features.names(), chunk.system_name);
            }
            writer->append(chunk);
            append_s += append.end();
          });
      ingest_s = ingest.end();
    }
    {
      SpanLog::Scope finish(spans(), "data.store_finish");
      writer->finish();
      finish_s = finish.end();
    }
    data::ColumnStore::OpenOutcome opened;
    {
      SpanLog::Scope open(spans(), "data.store_open");
      opened = data::ColumnStore::open(store_dir, /*verify_checksums=*/true);
      open_s = open.end();
    }
    setup_s.push_back(setup.end());
    result.check(opened.ok(), "store checksums verify on open: " + opened.first_error());
    return std::move(opened.store);
  };
  std::unique_ptr<data::ColumnStore> store;
  for (int r = 0; r < kSetupRepeats / 2; ++r) {
    if (store) {
      const std::string previous = store->dir();
      store.reset();  // one store mapped at a time
      std::filesystem::remove_all(previous);
    }
    store = pack(r);
    if (!store) return result;
  }
  result.attempts(summary.total_records, summary.quarantine.total());
  double store_bytes = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(store->dir())) {
    store_bytes += static_cast<double>(entry.file_size());
  }

  // Measured work: default GBT fit over the mapped store, held-out
  // predict, checkpoint save. Rows are time-ordered; the last
  // kHoldoutFrac of them are held out.
  const auto& ds = store->dataset();
  const std::size_t n_rows = ds.size();
  const auto n_train = static_cast<std::size_t>(
      static_cast<double>(n_rows) * (1.0 - kHoldoutFrac));
  std::vector<std::size_t> train_idx(n_train), hold_idx(n_rows - n_train);
  std::iota(train_idx.begin(), train_idx.end(), std::size_t{0});
  std::iota(hold_idx.begin(), hold_idx.end(), n_train);
  std::vector<std::size_t> cols_a, rows_a, cols_b, rows_b;
  const auto x_train = taxonomy::feature_view(ds, app_features(), &cols_a, &rows_a, train_idx);
  const auto x_hold = taxonomy::feature_view(ds, app_features(), &cols_b, &rows_b, hold_idx);
  const auto y_train = taxonomy::targets(ds, train_idx);

  std::vector<double> reference;
  const auto run_passes = [&](const char* root, double seconds) {
    std::vector<PassTime> times;
    SpanLog::Scope work(spans(), root);
    const double t0 = now_s();
    while (times.size() < 3 || now_s() - t0 < seconds) {
      std::vector<double> pred;
      times.push_back(timed_pass([&] {
        ml::GradientBoostedTrees model;
        {
          SpanLog::Scope fit(spans(), "ml.gbt_fit");
          model.fit(x_train, y_train);
        }
        {
          SpanLog::Scope predict(spans(), "ml.predict");
          pred = model.predict(x_hold);
        }
        SpanLog::Scope save(spans(), "ml.checkpoint_save");
        std::ofstream out("model.gbt");
        model.save(out);
      }));
      // Checked outside the timed pass: the checkpoint reloads to the
      // same bits, and every pass predicts what the first one did.
      SpanLog::Scope check(spans(), "bench.check");
      const auto reloaded = ml::load_regressor_file("model.gbt")->predict(x_hold);
      if (reference.empty()) reference = pred;
      result.check(bit_identical(reloaded, pred),
                   "saved checkpoint reloads to bit-identical predictions");
      result.check(bit_identical(pred, reference),
                   "repeated fits predict bit-identically");
    }
    return times;
  };
  const auto times = run_passes(opts.trace ? "bench.untraced_work" : "bench.work",
                                opts.seconds);
  std::vector<PassTime> traced;
  if (opts.trace) {
    obs::set_enabled(true);
    traced = run_passes("bench.work", opts.seconds);
    obs::set_enabled(false);
  }
  // Peaks of the measured run, read before the repeated set-ups below
  // map a second store.
  const double peak_mb = peak_rss_mb();
  const auto peak_materialized = data::footprint::peak_bytes();
  const auto peak_mapped = data::footprint::peak_mapped_bytes();
  for (int r = kSetupRepeats / 2; r < kSetupRepeats; ++r) {
    const auto extra = pack(r);
    if (!extra) return result;
    std::filesystem::remove_all(extra->dir());
  }

  const double pass_wall = median(walls(times));
  std::printf("pack_train: %zu records ingested, %zu passes over %zu rows\n"
              "  pass p50 %.4f s (nearest rank, n=%zu); setup p50 %.4f s (n=%zu)\n",
              summary.total_records, times.size(), n_rows, pass_wall, times.size(),
              median(setup_s), setup_s.size());
  result.end_to_end("setup_s", median(setup_s));
  result.end_to_end("wall_s", pass_wall);
  result.end_to_end("cpu_s", median(cpus(times)));
  result.end_to_end("peak_rss_mb", peak_mb);
  result.end_to_end("p50_ms", 1e3 * pass_wall);
  result.end_to_end("saturated_rps", static_cast<double>(n_rows) / pass_wall);
  result.end_to_end("ok_frac", result.ok_frac());

  if (opts.trace) {
    const double n = static_cast<double>(traced.size());
    const double kept = static_cast<double>(summary.kept_records.size());
    result.layer("data.store_write_s", append_s + finish_s);
    result.layer("data.store_mb", store_bytes / kMiB);
    result.layer("data.store_open_s", open_s);
    result.layer("data.peak_materialized_mb", static_cast<double>(peak_materialized) / kMiB);
    result.layer("data.peak_mapped_mb", static_cast<double>(peak_mapped) / kMiB);
    result.layer("ingest.parse_build_s", ingest_s - append_s);
    result.layer("ingest.records", static_cast<double>(summary.total_records));
    result.layer("ingest.kept_frac", kept / static_cast<double>(summary.total_records));
    result.layer("ml.gbt_fit_s", obs_span_s("gbt.fit") / n);
    result.layer("ml.gbt_trees", static_cast<double>(obs_counter("gbt.trees")) / n);
    result.layer("ml.hist_scans", static_cast<double>(obs_counter("gbt.hist_scans")) / n);
    result.layer("ml.predict_s", under_traced_work("ml.predict") / n);
    result.layer("ml.checkpoint_save_s", under_traced_work("ml.checkpoint_save") / n);
    result.layer("util.pool_parallelism", sum_cpu(times) / sum_wall(times));
    result.layer("obs.overhead_frac", median(walls(traced)) / pass_wall - 1.0);
    double total_s = 0.0;
    const double unexplained_s = bench_uncovered(&total_s);
    result.layer("bench.unexplained_frac", unexplained_s / total_s);
    const std::vector<LayerShare> shares = {
        {"ingest.parse_build", ingest_s - append_s},
        {"data.store_write", append_s + finish_s},
        {"data.store_open", open_s},
        {"ml.gbt_fit", under_traced_work("ml.gbt_fit")},
        {"ml.predict", under_traced_work("ml.predict")},
        {"ml.checkpoint_save", under_traced_work("ml.checkpoint_save")},
    };
    print_shares(opts.workload + ": setup + measured work", total_s, shares,
                 unexplained_s);
    result.print_layer_metrics();
  }
  return result;
}

}  // namespace perfbench
