// A/B harness for the zero-copy data path: runs the five-step taxonomy
// framework twice on the same simulated Theta-like dataset — once
// through a replica of the materializing copy path (one feature matrix
// per split side and per litmus step, as the pipeline worked before
// MatrixView/DatasetView) and once through the view path — then checks
// the two reports are bit-identical and writes BENCH_pipeline.json
// (bench/bench_report.hpp) with wall time, hyperparameter-search time,
// and peak materialized bytes for each path. Dataset size honours
// IOTAX_SCALE; thread count honours IOTAX_THREADS.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_report.hpp"
#include "src/data/footprint.hpp"
#include "src/data/split.hpp"
#include "src/ml/metrics.hpp"
#include "src/ml/search.hpp"
#include "src/taxonomy/litmus.hpp"
#include "src/taxonomy/pipeline.hpp"

namespace iotax {
namespace {

// The seed pipeline, pre-views: every model input is a feature_matrix
// copy, and the litmus steps re-materialize their own. Kept as the
// measured memory/runtime baseline for the view path.
taxonomy::TaxonomyReport run_copy_path(const data::Dataset& ds,
                                       const taxonomy::PipelineConfig& config,
                                       double* search_seconds) {
  taxonomy::TaxonomyReport report;
  report.system = ds.system_name;
  report.n_jobs = ds.size();
  util::Rng split_rng(config.split_seed);
  report.split = data::random_split(ds.size(), config.train_frac,
                                    config.val_frac, split_rng);
  const auto& split = report.split;

  const auto x_train =
      taxonomy::feature_matrix(ds, config.app_features, split.train);
  const auto y_train = taxonomy::targets(ds, split.train);
  const auto x_val =
      taxonomy::feature_matrix(ds, config.app_features, split.val);
  const auto y_val = taxonomy::targets(ds, split.val);
  const auto x_test =
      taxonomy::feature_matrix(ds, config.app_features, split.test);
  const auto y_test = taxonomy::targets(ds, split.test);

  {
    ml::GradientBoostedTrees baseline;
    baseline.fit(x_train, y_train);
    report.baseline_error =
        ml::median_abs_log_error(y_test, baseline.predict(x_test));
  }
  report.app_bound = taxonomy::litmus_application_bound(ds);
  {
    bench::Timer timer;
    const auto search =
        ml::grid_search(config.grid, x_train, y_train, x_val, y_val);
    *search_seconds = timer.seconds();
    report.tuned_params = search.best.params;
    ml::GradientBoostedTrees tuned(report.tuned_params);
    tuned.fit(x_train, y_train);
    report.tuned_error =
        ml::median_abs_log_error(y_test, tuned.predict(x_test));
  }
  {
    // Step 3.1's app-only side is the tuned model scored above.
    auto timed_sets = config.app_features;
    timed_sets.push_back(taxonomy::FeatureSet::kStartTimeOnly);
    report.system_bound = taxonomy::litmus_system_bound(
        report.tuned_error,
        taxonomy::feature_matrix(ds, timed_sets, split.train),
        taxonomy::feature_matrix(ds, timed_sets, split.test), y_train, y_test,
        report.tuned_params);
  }
  if (ds.features.has_column("LMT_OSS_CPU_MEAN")) {
    auto enriched_sets = config.app_features;
    enriched_sets.push_back(taxonomy::FeatureSet::kLmt);
    ml::GbtParams params = report.tuned_params;
    params.n_estimators = std::max<std::size_t>(params.n_estimators * 2, 128);
    ml::GradientBoostedTrees model(params);
    model.fit(taxonomy::feature_matrix(ds, enriched_sets, split.train),
              y_train);
    report.lmt_enriched_error = ml::median_abs_log_error(
        y_test, model.predict(
                    taxonomy::feature_matrix(ds, enriched_sets, split.test)));
  }
  std::vector<bool> exclude(ds.size(), false);
  if (config.run_uq) {
    std::vector<std::size_t> uq_rows = split.train;
    if (uq_rows.size() > config.uq_train_cap) {
      uq_rows.erase(uq_rows.begin(),
                    uq_rows.end() - static_cast<long>(config.uq_train_cap));
    }
    ml::DeepEnsemble ensemble(config.ensemble);
    ensemble.fit(taxonomy::feature_matrix(ds, config.app_features, uq_rows),
                 taxonomy::targets(ds, uq_rows));
    const auto uq = ensemble.predict_uncertainty(x_test);
    std::vector<double> abs_err(y_test.size());
    for (std::size_t i = 0; i < y_test.size(); ++i) {
      abs_err[i] = std::fabs(uq.mean[i] - y_test[i]);
    }
    report.ood = taxonomy::litmus_ood(uq.epistemic, abs_err);
    for (std::size_t i = 0; i < split.test.size(); ++i) {
      if (report.ood->is_ood[i]) exclude[split.test[i]] = true;
    }
  }
  report.noise = taxonomy::litmus_noise_bound(ds, config.dt_window, &exclude);

  const double base = std::max(report.baseline_error, 1e-12);
  const auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };
  report.share_app =
      clamp01((report.baseline_error - report.app_bound.median_abs_error) /
              base);
  report.share_app_realized =
      clamp01((report.baseline_error - report.tuned_error) / base);
  report.share_system =
      clamp01((report.app_bound.median_abs_error -
               report.system_bound.err_with_time) /
              base);
  if (report.lmt_enriched_error.has_value()) {
    report.share_system_realized =
        clamp01((report.tuned_error - *report.lmt_enriched_error) / base);
  }
  if (report.ood.has_value()) {
    report.share_ood = clamp01(report.ood->error_share_ood *
                               report.system_bound.err_with_time / base);
  }
  report.share_aleatory = clamp01(report.noise.median_abs_error / base);
  report.share_unexplained =
      clamp01(1.0 - report.share_app - report.share_system -
              report.share_ood - report.share_aleatory);
  return report;
}

bool reports_identical(const taxonomy::TaxonomyReport& a,
                       const taxonomy::TaxonomyReport& b) {
  return a.baseline_error == b.baseline_error &&
         a.tuned_error == b.tuned_error &&
         a.app_bound.median_abs_error == b.app_bound.median_abs_error &&
         a.system_bound.err_with_time == b.system_bound.err_with_time &&
         a.noise.median_abs_error == b.noise.median_abs_error &&
         a.share_unexplained == b.share_unexplained;
}

}  // namespace
}  // namespace iotax

int main() {
  using namespace iotax;
  bench::banner("Zero-copy data path A/B (taxonomy pipeline)",
                "memory/runtime harness for the MatrixView refactor");

  const auto res = sim::simulate(sim::theta_like());
  const auto& ds = res.dataset;
  taxonomy::PipelineConfig pc;
  pc.uq_train_cap = util::scaled_count(3000, 1200);

  const char* threads_env = std::getenv("IOTAX_THREADS");
  const int threads = threads_env != nullptr ? std::atoi(threads_env) : 0;

  data::footprint::reset_peak();
  double copy_search_s = 0.0;
  bench::Timer copy_timer;
  const auto copy_report = run_copy_path(ds, pc, &copy_search_s);
  const double copy_wall_s = copy_timer.seconds();
  const auto copy_peak = data::footprint::peak_bytes();

  data::footprint::reset_peak();
  bench::Timer view_timer;
  const auto view_report = taxonomy::run_taxonomy(ds, pc);
  const double view_wall_s = view_timer.seconds();
  const auto view_peak = data::footprint::peak_bytes();

  // Search-only A/B on identical candidates: table-backed views vs
  // materialized matrices as the training/validation input.
  double view_search_s = 0.0;
  {
    util::Rng rng(pc.split_seed);
    const auto split =
        data::random_split(ds.size(), pc.train_frac, pc.val_frac, rng);
    std::vector<std::size_t> ct, rt, cv, rv;
    const auto xt =
        taxonomy::feature_view(ds, pc.app_features, &ct, &rt, split.train);
    const auto xv =
        taxonomy::feature_view(ds, pc.app_features, &cv, &rv, split.val);
    const auto y_train = taxonomy::targets(ds, split.train);
    const auto y_val = taxonomy::targets(ds, split.val);
    bench::Timer timer;
    ml::grid_search(pc.grid, xt, y_train, xv, y_val);
    view_search_s = timer.seconds();
  }

  const bool identical = reports_identical(copy_report, view_report);
  const double reduction =
      view_peak > 0 ? static_cast<double>(copy_peak) /
                          static_cast<double>(view_peak)
                    : 0.0;

  std::printf("jobs                  %zu\n", ds.size());
  std::printf("copy path    wall %.2fs  search %.2fs  peak %zu bytes\n",
              copy_wall_s, copy_search_s, copy_peak);
  std::printf("view path    wall %.2fs  search %.2fs  peak %zu bytes\n",
              view_wall_s, view_search_s, view_peak);
  std::printf("peak reduction        %.2fx\n", reduction);
  std::printf("reports bit-identical %s\n", identical ? "PASS" : "FAIL");

  bench::Report out{"pipeline", {}};
  out.add({.name = "jobs", .value = ds.size(), .unit = "jobs",
           .gate = "hard"});
  out.add({.name = "threads", .value = threads, .unit = "threads"});
  out.add({.name = "baseline_error", .value = view_report.baseline_error,
           .unit = "log10"});
  out.add({.name = "copy.wall_ms", .value = copy_wall_s * 1e3, .unit = "ms"});
  out.add({.name = "copy.search_ms", .value = copy_search_s * 1e3,
           .unit = "ms"});
  out.add({.name = "copy.peak_materialized_bytes", .value = copy_peak,
           .unit = "bytes"});
  // Wall time on shared CI runners is noisy, so its envelope is
  // generous: it catches the pipeline going quadratic, not a wobble.
  out.add({.name = "view.wall_ms", .value = view_wall_s * 1e3, .unit = "ms",
           .gate = "envelope", .limit = 1.5});
  out.add({.name = "view.search_ms", .value = view_search_s * 1e3,
           .unit = "ms"});
  // Peak footprint is deterministic at a fixed IOTAX_SCALE; the 10% only
  // absorbs allocator rounding, a new materializing copy jumps past it.
  out.add({.name = "view.peak_materialized_bytes", .value = view_peak,
           .unit = "bytes", .gate = "envelope", .limit = 1.1});
  out.add({.name = "peak_reduction_factor", .value = reduction, .unit = "x"});
  out.add({.name = "reports_bit_identical", .value = identical,
           .unit = "bool", .gate = "hard", .limit = true});
  out.write();
  return identical ? 0 : 1;
}
