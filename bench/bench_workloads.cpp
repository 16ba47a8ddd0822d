// Workload harness: the burst-prediction classifier and the
// cross-cluster transfer litmus at bench scale, with the correctness
// bits its bench report gates on. Burst: train on the front of the
// tiny preset's telemetry timeline, score the tail, and require the
// checkpoint to round-trip bit-exactly (save -> load -> predict) and
// the threshold adapter to reproduce the logistic labels through the
// monotone score-space identity. Transfer: theta -> cori over a shared
// catalog; the litmus must attribute the gap to the application class
// and the OoD estimate must agree with the sim oracle. Writes
// BENCH_workloads.json (bench/bench_report.hpp).
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_report.hpp"
#include "src/ml/classifier.hpp"
#include "src/sim/burst.hpp"
#include "src/stats/classification.hpp"
#include "src/taxonomy/transfer.hpp"

namespace iotax {
namespace {

struct BurstResult {
  std::size_t windows = 0;
  std::size_t bursts = 0;
  double sim_ms = 0.0;
  double train_ms = 0.0;
  double predict_ms = 0.0;
  double accuracy = 0.0;
  double f1 = 0.0;
  double auc = 0.0;
  bool roundtrip_identical = false;
  bool adapter_equivalent = false;
};

BurstResult run_burst() {
  BurstResult r;
  bench::Timer sim_timer;
  auto cfg = sim::tiny_system(7);
  cfg.platform.lmt_enabled = true;
  const auto res = sim::simulate(cfg);
  const auto burst = sim::build_burst_dataset(res);
  r.sim_ms = sim_timer.seconds() * 1000.0;
  r.windows = burst.n_windows;
  r.bursts = burst.n_bursts;

  const auto& ds = burst.dataset;
  const std::vector<taxonomy::FeatureSet> feats = {
      taxonomy::FeatureSet::kBurst};
  const auto n_train = ds.size() * 3 / 4;
  std::vector<std::size_t> train_rows(n_train), test_rows(ds.size() - n_train);
  for (std::size_t i = 0; i < n_train; ++i) train_rows[i] = i;
  for (std::size_t i = n_train; i < ds.size(); ++i) {
    test_rows[i - n_train] = i;
  }

  ml::ClassifierParams params;
  ml::BurstClassifier clf(params);
  std::vector<std::size_t> fc, fr, ec, er;
  const auto x_train = taxonomy::feature_view(ds, feats, &fc, &fr, train_rows);
  bench::Timer fit_timer;
  clf.fit(x_train, taxonomy::targets(ds, train_rows));
  r.train_ms = fit_timer.seconds() * 1000.0;

  const auto x_test = taxonomy::feature_view(ds, feats, &ec, &er, test_rows);
  const auto y_test = taxonomy::targets(ds, test_rows);
  bench::Timer pred_timer;
  const auto prob = clf.predict(x_test);
  r.predict_ms = pred_timer.seconds() * 1000.0;
  const auto labels = clf.predict_labels(x_test);
  const auto counts = stats::confusion_counts(y_test, labels);
  r.accuracy = stats::accuracy(counts);
  r.f1 = stats::f1_score(counts);
  r.auc = stats::roc_auc(y_test, prob);

  // Correctness bit 1: the checkpoint round-trips bit-exactly.
  std::ostringstream ckpt;
  clf.save(ckpt);
  std::istringstream in(ckpt.str());
  const auto loaded = ml::Regressor::load(in);
  const auto prob2 = loaded->predict(x_test);
  std::ostringstream ckpt2;
  loaded->save(ckpt2);
  r.roundtrip_identical = prob == prob2 && ckpt.str() == ckpt2.str();

  // Correctness bit 2: a threshold-kind classifier over the same
  // booster, cut at t = (logit(p) - b) / a, labels every row the same.
  ml::ClassifierParams tparams;
  tparams.kind = ml::ClassifierKind::kThreshold;
  tparams.threshold = (std::log(params.threshold / (1.0 - params.threshold)) -
                       clf.platt_b()) /
                      clf.platt_a();
  ml::BurstClassifier adapter(tparams);
  adapter.fit(x_train, taxonomy::targets(ds, train_rows));
  r.adapter_equivalent =
      clf.platt_a() > 0.0 && labels == adapter.predict_labels(x_test);
  return r;
}

struct TransferResult {
  std::size_t rows = 0;
  double sim_ms = 0.0;
  double litmus_ms = 0.0;
  taxonomy::TransferReport report;
  bool attribution_ok = false;
};

TransferResult run_transfer() {
  TransferResult r;
  bench::Timer sim_timer;
  const auto [a_cfg, b_cfg] =
      sim::make_transfer_pair(sim::theta_like(7), sim::cori_like(7), 7);
  const auto a = sim::simulate(a_cfg);
  const auto b = sim::simulate(b_cfg);
  r.sim_ms = sim_timer.seconds() * 1000.0;
  r.rows = a.dataset.size() + b.dataset.size();

  bench::Timer litmus_timer;
  r.report = taxonomy::run_transfer_litmus(a.dataset, b.dataset);
  r.litmus_ms = litmus_timer.seconds() * 1000.0;

  // The litmus's own acceptance bits: positive gap, application-
  // dominated attribution, OoD estimate in agreement with the oracle.
  const auto& rep = r.report;
  r.attribution_ok =
      rep.gap > 0.0 && rep.oracle.application > 0.5 && rep.ood_auc > 0.75 &&
      std::abs(rep.ood_fraction_est - rep.ood_fraction_truth) <=
          0.03 + 0.5 * rep.ood_fraction_truth;
  return r;
}

}  // namespace
}  // namespace iotax

int main() {
  using namespace iotax;
  bench::banner("bench_workloads: burst classifier + transfer litmus",
                "the taxonomy applied to a classification workload and "
                "cross-cluster deployment");

  const auto burst = run_burst();
  std::printf("burst: %zu windows (%zu bursts), sim %.1f ms, train %.1f ms, "
              "predict %.1f ms\n",
              burst.windows, burst.bursts, burst.sim_ms, burst.train_ms,
              burst.predict_ms);
  std::printf("burst: held-out accuracy %.3f f1 %.3f auc %.3f\n",
              burst.accuracy, burst.f1, burst.auc);
  std::printf("burst: checkpoint round-trip %s, threshold adapter %s\n",
              burst.roundtrip_identical ? "bit-identical" : "DIVERGED",
              burst.adapter_equivalent ? "equivalent" : "DIVERGED");

  const auto transfer = run_transfer();
  const auto& rep = transfer.report;
  std::printf("transfer: %zu rows, sim %.1f ms, litmus %.1f ms\n",
              transfer.rows, transfer.sim_ms, transfer.litmus_ms);
  std::fputs(taxonomy::render_transfer_report(rep).c_str(), stdout);
  std::printf("transfer: attribution %s\n",
              transfer.attribution_ok ? "ok" : "FAILED");

  const bool bit_identical =
      burst.roundtrip_identical && burst.adapter_equivalent;
  const double wall_ms = burst.sim_ms + burst.train_ms + burst.predict_ms +
                         transfer.sim_ms + transfer.litmus_ms;

  bench::Report out{"workloads", {}};
  out.add({.name = "rows", .value = burst.windows + transfer.rows,
           .unit = "rows", .gate = "hard"});
  // The classifier checkpoint round-trips bit-exactly and the threshold
  // adapter reproduces the logistic labels.
  out.add({.name = "bit_identical", .value = bit_identical, .unit = "bool",
           .gate = "hard", .limit = true});
  out.add({.name = "wall_ms", .value = wall_ms, .unit = "ms",
           .gate = "envelope", .limit = 1.5});
  out.add({.name = "burst.windows", .value = burst.windows,
           .unit = "windows"});
  out.add({.name = "burst.bursts", .value = burst.bursts, .unit = "bursts"});
  out.add({.name = "burst.train_ms", .value = burst.train_ms, .unit = "ms"});
  out.add({.name = "burst.predict_ms", .value = burst.predict_ms,
           .unit = "ms"});
  out.add({.name = "burst.accuracy", .value = burst.accuracy,
           .unit = "ratio"});
  out.add({.name = "burst.f1", .value = burst.f1, .unit = "ratio"});
  // The measured AUC sits near 0.99: the floor catches the classifier
  // going blind, not noise.
  out.add({.name = "burst.auc", .value = burst.auc, .unit = "ratio",
           .gate = "floor", .limit = 0.9});
  out.add({.name = "transfer.rows", .value = transfer.rows, .unit = "rows"});
  out.add({.name = "transfer.litmus_ms", .value = transfer.litmus_ms,
           .unit = "ms"});
  out.add({.name = "transfer.gap", .value = rep.gap, .unit = "log10"});
  out.add({.name = "transfer.application_share",
           .value = rep.oracle.application, .unit = "ratio"});
  out.add({.name = "transfer.ood_auc", .value = rep.ood_auc,
           .unit = "ratio"});
  out.add({.name = "transfer.attribution_ok",
           .value = transfer.attribution_ok, .unit = "bool", .gate = "hard",
           .limit = true});
  out.write();
  std::printf("wall %.1f ms\n", wall_ms);
  return bit_identical && transfer.attribution_ok ? 0 : 1;
}
