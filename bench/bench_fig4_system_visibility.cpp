// Fig. 4 + §VII ("T3"): system-visibility ladder. For each system, a
// tuned application-feature model is compared against (1) the start-time
// golden model — the litmus-2 estimate of the app+system bound — and,
// where the site collects it, (2) a model enriched with real LMT
// telemetry. Paper: on Cori 16.49% -> 10.02% (time, -40%) and -> 9.96%
// (LMT); on Theta the time feature removes 30.8% of error.
#include <cmath>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/data/split.hpp"
#include "src/ml/gbt.hpp"
#include "src/stats/descriptive.hpp"
#include "src/taxonomy/litmus.hpp"

int main() {
  using namespace iotax;
  bench::banner("System visibility: +start-time and +LMT (both systems)",
                "Fig. 4; text §VII: Cori -40% with time, LMT reaches the "
                "litmus-2 bound; Theta -30.8%");
  bench::Timer timer;

  for (const auto& cfg : {sim::theta_like(), sim::cori_like()}) {
    const auto res = sim::simulate(cfg);
    const auto& ds = res.dataset;
    util::Rng rng(41);
    const auto split = data::random_split(ds.size(), 0.6, 0.15, rng);
    const std::vector<taxonomy::FeatureSet> app_feats = {
        taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio};
    ml::GbtParams params;
    params.n_estimators = 64;
    params.max_depth = 10;

    const auto y_train = taxonomy::targets(ds, split.train);
    const auto y_test = taxonomy::targets(ds, split.test);
    ml::GradientBoostedTrees app_model(params);
    app_model.fit(taxonomy::feature_matrix(ds, app_feats, split.train),
                  y_train);
    const double err_app_only = ml::median_abs_log_error(
        y_test,
        app_model.predict(taxonomy::feature_matrix(ds, app_feats, split.test)));
    auto timed_feats = app_feats;
    timed_feats.push_back(taxonomy::FeatureSet::kStartTimeOnly);
    const auto sys = taxonomy::litmus_system_bound(
        err_app_only, taxonomy::feature_matrix(ds, timed_feats, split.train),
        taxonomy::feature_matrix(ds, timed_feats, split.test), y_train,
        y_test, params);
    std::printf("--- %s ---\n", cfg.name.c_str());
    std::printf("%-24s %10s %12s\n", "model", "err(%)", "vs app-only");
    std::printf("%-24s %10.2f %12s\n", "app features (Darshan)",
                bench::pct(sys.err_app_only), "");
    std::printf("%-24s %10.2f %+11.1f%%\n", "+ start time (golden)",
                bench::pct(sys.err_with_time),
                -sys.reduction_frac * 100.0);

    if (cfg.platform.lmt_enabled) {
      auto lmt_feats = app_feats;
      lmt_feats.push_back(taxonomy::FeatureSet::kLmt);
      ml::GbtParams pl = params;
      pl.n_estimators = 128;
      ml::GradientBoostedTrees model(pl);
      model.fit(taxonomy::feature_matrix(ds, lmt_feats, split.train),
                y_train);
      const double err = ml::median_abs_log_error(
          y_test, model.predict(taxonomy::feature_matrix(ds, lmt_feats,
                                                         split.test)));
      std::printf("%-24s %10.2f %+11.1f%%\n", "+ LMT telemetry",
                  bench::pct(err),
                  (err - sys.err_app_only) / sys.err_app_only * 100.0);
      const double gap =
          std::fabs(err - sys.err_with_time) / sys.err_with_time;
      std::printf("shape check: LMT lands within 25%% of the litmus-2 "
                  "bound (paper: 9.96%% vs 10.02%%): %s (gap %.0f%%)\n",
                  gap < 0.25 ? "PASS" : "MISS", gap * 100.0);
    } else {
      std::printf("%-24s %10s\n", "+ LMT telemetry",
                  "n/a (site does not collect LMT)");
    }
    std::printf("shape check: start time removes 15-60%% of error "
                "(paper: 30.8-40%%): %s\n\n",
                sys.reduction_frac > 0.15 && sys.reduction_frac < 0.60
                    ? "PASS"
                    : "MISS");
  }
  std::printf("[%.1fs]\n", timer.seconds());
  return 0;
}
