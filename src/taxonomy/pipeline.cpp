#include "src/taxonomy/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "src/data/footprint.hpp"
#include "src/ml/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/str.hpp"

namespace iotax::taxonomy {

const StepHealth* TaxonomyReport::step_health(const std::string& step) const {
  for (const auto& h : health) {
    if (h.step == step) return &h;
  }
  return nullptr;
}

bool TaxonomyReport::degraded() const {
  for (const auto& h : health) {
    if (h.degraded) return true;
  }
  return false;
}

namespace {

StepHealth healthy(std::string step, std::size_t n, std::size_t minimum,
                   std::string below_reason) {
  StepHealth h;
  h.step = std::move(step);
  h.ran = true;
  h.n_samples = n;
  if (n < minimum) {
    h.degraded = true;
    h.confidence = "reduced";
    h.reason = std::move(below_reason);
  }
  return h;
}

StepHealth skipped(std::string step, std::string reason) {
  StepHealth h;
  h.step = std::move(step);
  h.ran = false;
  h.degraded = true;
  h.confidence = "none";
  h.reason = std::move(reason);
  return h;
}

}  // namespace

TaxonomyReport run_taxonomy(const data::DatasetView& ds,
                            const PipelineConfig& config) {
  IOTAX_TRACE_SPAN("taxonomy.run");
  obs::span_arg("jobs", static_cast<double>(ds.size()));
  TaxonomyReport report;
  report.system = ds.system_name();
  report.n_jobs = ds.size();
  const auto& req = config.requirements;
  util::Rng split_rng(config.split_seed);
  report.split = data::random_split(ds.size(), config.train_frac,
                                    config.val_frac, split_rng);
  const auto& split = report.split;
  // The one hard requirement: without a train and a test row there is
  // no model and no report. Everything past this degrades gracefully.
  if (split.train.empty() || split.test.empty()) {
    throw std::invalid_argument(
        "run_taxonomy: dataset too small for a train/test split (" +
        std::to_string(ds.size()) + " jobs)");
  }

  // Zero-copy model input: every step trains and predicts through
  // MatrixViews of the dataset's column-major feature table, so the
  // pipeline itself materializes no feature matrix. What remains on
  // the data.{live,peak}_materialized_bytes gauges is per-model
  // working state (binned code tables, MLP scaler outputs). Each view
  // gets its own index storage — views keep the spans by reference.
  const bool has_lmt = ds.has_feature("LMT_OSS_CPU_MEAN");
  std::vector<std::size_t> c_train, r_train, c_val, r_val, c_test, r_test;
  const auto x_train =
      feature_view(ds, config.app_features, &c_train, &r_train, split.train);
  const auto x_val =
      feature_view(ds, config.app_features, &c_val, &r_val, split.val);
  const auto x_test =
      feature_view(ds, config.app_features, &c_test, &r_test, split.test);
  const auto y_train = targets(ds, split.train);
  const auto y_val = targets(ds, split.val);
  const auto y_test = targets(ds, split.test);

  // ---- Step 1: baseline model with library-default hyperparameters.
  {
    IOTAX_TRACE_SPAN("taxonomy.baseline");
    ml::GradientBoostedTrees baseline;  // 100 trees, depth 6 — the defaults
    baseline.fit(x_train, y_train);
    report.baseline_error =
        ml::median_abs_log_error(y_test, baseline.predict(x_test));
    auto h = healthy("baseline", split.train.size(), req.min_train,
                     "train split below minimum");
    if (!h.degraded && split.test.size() < req.min_test) {
      h.degraded = true;
      h.confidence = "reduced";
      h.reason = "test split below minimum";
    }
    report.health.push_back(std::move(h));
  }

  // ---- Step 2.1: application-modeling bound from duplicate sets.
  bool app_bound_ok = true;
  {
    IOTAX_TRACE_SPAN("taxonomy.app_bound");
    try {
      report.app_bound = litmus_application_bound(ds);
      report.health.push_back(
          healthy("app_bound", report.app_bound.stats.n_sets,
                  req.min_dup_sets, "fewer duplicate sets than required"));
    } catch (const std::invalid_argument&) {
      app_bound_ok = false;
      report.app_bound = AppBoundResult{};
      report.health.push_back(skipped("app_bound", "no duplicate sets"));
    }
  }

  // ---- Step 2.2: hyperparameter search toward the bound.
  if (!split.val.empty()) {
    IOTAX_TRACE_SPAN("taxonomy.search");
    const auto search =
        ml::grid_search(config.grid, x_train, y_train, x_val, y_val);
    report.tuned_params = search.best.params;
    // The search already fitted the winner: the first n_estimators trees
    // of its prefix family's model are the tuned model. Refit only when
    // no candidate scored a finite validation error.
    std::vector<double> tuned_pred;
    if (search.best_model != nullptr) {
      tuned_pred = search.best_model->predict_prefix(
          x_test, report.tuned_params.n_estimators);
    } else {
      ml::GradientBoostedTrees tuned(report.tuned_params);
      tuned.fit(x_train, y_train);
      tuned_pred = tuned.predict(x_test);
    }
    report.tuned_error = ml::median_abs_log_error(y_test, tuned_pred);
    report.health.push_back(healthy("search", split.val.size(), req.min_val,
                                    "validation split below minimum"));
  } else {
    // No validation rows to search over: fall back to the baseline.
    report.tuned_params = ml::GbtParams{};
    report.tuned_error = report.baseline_error;
    report.health.push_back(skipped("search", "no validation rows"));
  }

  // ---- Step 3.1: system bound via the start-time golden model.
  {
    IOTAX_TRACE_SPAN("taxonomy.system_bound");
    // The golden model additionally sees the start time (last column).
    auto timed_sets = config.app_features;
    timed_sets.push_back(FeatureSet::kStartTimeOnly);
    std::vector<std::size_t> c_ttr, r_ttr, c_tte, r_tte;
    const auto x_train_timed =
        feature_view(ds, timed_sets, &c_ttr, &r_ttr, split.train);
    const auto x_test_timed =
        feature_view(ds, timed_sets, &c_tte, &r_tte, split.test);
    // The app-only side is the tuned model Step 2.2 already scored (in
    // its fallback branch, the default-params baseline).
    report.system_bound =
        litmus_system_bound(report.tuned_error, x_train_timed, x_test_timed,
                            y_train, y_test, report.tuned_params);
    report.health.push_back(healthy("system_bound", split.test.size(),
                                    req.min_test,
                                    "test split below minimum"));
  }

  // ---- Step 3.2: realized improvement from storage telemetry.
  if (has_lmt) {
    IOTAX_TRACE_SPAN("taxonomy.lmt_enrich");
    auto enriched_sets = config.app_features;
    enriched_sets.push_back(FeatureSet::kLmt);
    std::vector<std::size_t> c_etr, r_etr, c_ete, r_ete;
    const auto x_train_enr =
        feature_view(ds, enriched_sets, &c_etr, &r_etr, split.train);
    const auto x_test_enr =
        feature_view(ds, enriched_sets, &c_ete, &r_ete, split.test);
    ml::GbtParams params = report.tuned_params;
    params.n_estimators = std::max<std::size_t>(params.n_estimators * 2, 128);
    ml::GradientBoostedTrees model(params);
    model.fit(x_train_enr, y_train);
    report.lmt_enriched_error =
        ml::median_abs_log_error(y_test, model.predict(x_test_enr));
    report.health.push_back(healthy("lmt_enrich", split.train.size(),
                                    req.min_train,
                                    "train split below minimum"));
  } else {
    report.health.push_back(
        skipped("lmt_enrich", "no LMT telemetry on this system"));
  }

  // ---- Step 4: OoD attribution via deep-ensemble epistemic uncertainty.
  std::vector<bool> exclude(ds.size(), false);
  if (config.run_uq) {
    IOTAX_TRACE_SPAN("taxonomy.ood");
    // Cap UQ training cost: take the most recent rows of the train period.
    std::vector<std::size_t> uq_rows = split.train;
    if (uq_rows.size() > config.uq_train_cap) {
      uq_rows.erase(uq_rows.begin(),
                    uq_rows.end() - static_cast<long>(config.uq_train_cap));
    }
    ml::DeepEnsemble ensemble(config.ensemble);
    std::vector<std::size_t> c_uq, r_uq;
    const auto x_uq =
        feature_view(ds, config.app_features, &c_uq, &r_uq, uq_rows);
    ensemble.fit(x_uq, targets(ds, uq_rows));
    const auto uq = ensemble.predict_uncertainty(x_test);
    std::vector<double> abs_err(y_test.size());
    for (std::size_t i = 0; i < y_test.size(); ++i) {
      abs_err[i] = std::fabs(uq.mean[i] - y_test[i]);
    }
    report.ood = litmus_ood(uq.epistemic, abs_err);
    for (std::size_t i = 0; i < split.test.size(); ++i) {
      if (report.ood->is_ood[i]) exclude[split.test[i]] = true;
    }
    report.health.push_back(healthy("ood", uq_rows.size(), req.min_uq_rows,
                                    "too few rows to train the ensemble"));
  } else {
    report.health.push_back(skipped("ood", "disabled (run_uq = false)"));
  }

  // ---- Step 5: contention+noise floor from concurrent duplicates.
  bool noise_ok = true;
  {
    IOTAX_TRACE_SPAN("taxonomy.noise_bound");
    try {
      report.noise = litmus_noise_bound(ds, config.dt_window, &exclude);
      report.health.push_back(
          healthy("noise_bound", report.noise.n_sets,
                  req.min_concurrent_sets,
                  "fewer concurrent duplicate sets than required"));
    } catch (const std::invalid_argument&) {
      noise_ok = false;
      report.noise = NoiseBoundResult{};
      report.health.push_back(
          skipped("noise_bound", "too few concurrent duplicate sets"));
    }
  }

  // ---- Fig. 7 segment arithmetic (fractions of the baseline error).
  // A step that could not run contributes zero to the attribution; its
  // health entry (confidence "none") marks the segment as unknown
  // rather than measured-zero.
  const double base = std::max(report.baseline_error, 1e-12);
  const auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };
  if (app_bound_ok) {
    report.share_app =
        clamp01((report.baseline_error - report.app_bound.median_abs_error) /
                base);
  }
  report.share_app_realized =
      clamp01((report.baseline_error - report.tuned_error) / base);
  // Without the duplicate-set bound, the tuned error is the best
  // available reference for what system information could still remove.
  const double system_ref = app_bound_ok
                                ? report.app_bound.median_abs_error
                                : report.tuned_error;
  report.share_system =
      clamp01((system_ref - report.system_bound.err_with_time) / base);
  if (report.lmt_enriched_error.has_value()) {
    report.share_system_realized = clamp01(
        (report.tuned_error - *report.lmt_enriched_error) / base);
  }
  if (report.ood.has_value()) {
    report.share_ood = clamp01(report.ood->error_share_ood *
                               report.system_bound.err_with_time / base);
  }
  if (noise_ok) {
    report.share_aleatory = clamp01(report.noise.median_abs_error / base);
  }
  report.share_unexplained =
      clamp01(1.0 - report.share_app - report.share_system -
              report.share_ood - report.share_aleatory);
  data::footprint::publish();
  return report;
}

namespace {

std::string pct(double frac_or_logerr, bool is_share) {
  return util::format_double(
             is_share ? frac_or_logerr * 100.0
                      : ml::log_error_to_percent(frac_or_logerr),
             2) +
         "%";
}

void bar_line(std::ostream& out, const std::string& label, double share,
              const std::string& note = "") {
  const auto width = static_cast<std::size_t>(std::clamp(share, 0.0, 1.0) *
                                              50.0);
  out << "  " << label;
  for (std::size_t i = label.size(); i < 26; ++i) out << ' ';
  out << std::string(width, '#') << std::string(50 - width, '.') << "  "
      << pct(share, true);
  if (!note.empty()) out << "  (" << note << ")";
  out << '\n';
}

}  // namespace

std::string render_report(const TaxonomyReport& report) {
  std::ostringstream out;
  const auto ran = [&report](const char* step) {
    const auto* h = report.step_health(step);
    return h == nullptr || h->ran;  // absent health (old reports): assume ran
  };
  out << "=== I/O error taxonomy report: " << report.system << " ("
      << report.n_jobs << " jobs) ===\n";
  out << "Step 1   baseline model test error (median |log10|): "
      << pct(report.baseline_error, false) << "\n";
  if (ran("app_bound")) {
    out << "Step 2.1 application-modeling bound: "
        << pct(report.app_bound.median_abs_error, false) << "  ["
        << report.app_bound.stats.n_duplicate_jobs << " duplicates, "
        << report.app_bound.stats.n_sets << " sets, "
        << util::format_double(
               report.app_bound.stats.duplicate_fraction * 100, 1)
        << "% of jobs]\n";
  } else {
    out << "Step 2.1 application-modeling bound: unavailable "
        << "(no duplicate sets)\n";
  }
  out << "Step 2.2 tuned model error: " << pct(report.tuned_error, false)
      << "  [" << report.tuned_params.n_estimators << " trees, depth "
      << report.tuned_params.max_depth << "]\n";
  out << "Step 3.1 app+system bound (start-time golden model): "
      << pct(report.system_bound.err_with_time, false) << "  [error drop "
      << util::format_double(report.system_bound.reduction_frac * 100, 1)
      << "%]\n";
  if (report.lmt_enriched_error.has_value()) {
    out << "Step 3.2 LMT-enriched model error: "
        << pct(*report.lmt_enriched_error, false) << "\n";
  } else {
    out << "Step 3.2 skipped: this system does not collect LMT logs\n";
  }
  if (report.ood.has_value()) {
    out << "Step 4   OoD jobs: "
        << util::format_double(report.ood->frac_ood * 100, 2)
        << "% of test jobs carrying "
        << util::format_double(report.ood->error_share_ood * 100, 2)
        << "% of error (" << util::format_double(report.ood->error_ratio, 1)
        << "x average), EU threshold "
        << util::format_double(report.ood->eu_threshold, 4) << "\n";
  } else {
    out << "Step 4   skipped (run_uq = false)\n";
  }
  if (ran("noise_bound")) {
    out << "Step 5   contention+noise floor: "
        << pct(report.noise.median_abs_error, false)
        << " median; jobs expect "
        << "+-" << util::format_double(report.noise.band68_pct, 2)
        << "% (68%) / +-" << util::format_double(report.noise.band95_pct, 2)
        << "% (95%); Student-t df="
        << util::format_double(report.noise.t_fit.df, 1) << "\n";
  } else {
    out << "Step 5   contention+noise floor: unavailable "
        << "(too few concurrent duplicate sets)\n";
  }
  if (!report.health.empty()) {
    out << "--- step health ---\n";
    for (const auto& h : report.health) {
      out << "  " << (h.degraded ? '!' : ' ') << ' ' << h.step;
      for (std::size_t i = h.step.size(); i < 14; ++i) out << ' ';
      out << h.confidence;
      for (std::size_t i = h.confidence.size(); i < 9; ++i) out << ' ';
      out << h.n_samples << " samples";
      if (!h.reason.empty()) out << "  (" << h.reason << ")";
      out << '\n';
    }
  }
  out << "--- error attribution (fractions of baseline error) ---\n";
  bar_line(out, "application modeling", report.share_app,
           "realized by tuning: " + pct(report.share_app_realized, true));
  bar_line(out, "system modeling", report.share_system,
           report.lmt_enriched_error.has_value()
               ? "realized by LMT: " + pct(report.share_system_realized, true)
               : "no LMT on this system");
  bar_line(out, "out-of-distribution", report.share_ood);
  bar_line(out, "contention+noise", report.share_aleatory);
  bar_line(out, "unexplained", report.share_unexplained);
  return out.str();
}

}  // namespace iotax::taxonomy
