// The iotax command-line tool: the paper's workflow as shell commands.
//
//   iotax simulate --preset theta --out DIR        generate logs + dataset
//   iotax parse    --archive FILE [--binary] [--lenient]
//   iotax bound    --dataset FILE                  litmus 1 (app bound)
//   iotax noise    --dataset FILE [--window SECS]  litmus 4/5 (I/O bands)
//   iotax taxonomy --dataset FILE [--no-uq] [--report OUT.csv]
//   iotax importance --dataset FILE                what the model relies on
//
// Datasets are the CSV files written by `simulate` (or by
// data::write_dataset_csv); archives are the text/binary job-log formats.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include <atomic>
#include <chrono>
#include <csignal>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include <unistd.h>

#include "src/cli/args.hpp"
#include "src/data/ooc.hpp"
#include "src/data/split.hpp"
#include "src/data/store.hpp"
#include "src/serve/client.hpp"
#include "src/serve/fleet.hpp"
#include "src/serve/server.hpp"
#include "src/util/str.hpp"
#include "src/faults/chaos.hpp"
#include "src/faults/injector.hpp"
#include "src/faults/plan.hpp"
#include "src/data/table_io.hpp"
#include "src/ml/kernels/dispatch.hpp"
#include "src/ml/metrics.hpp"
#include "src/ml/registry.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/ml/classifier.hpp"
#include "src/sim/burst.hpp"
#include "src/sim/dataset_builder.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/stream_ingest.hpp"
#include "src/stats/classification.hpp"
#include "src/taxonomy/transfer.hpp"
#include "src/taxonomy/drift.hpp"
#include "src/taxonomy/online.hpp"
#include "src/taxonomy/interpret.hpp"
#include "src/taxonomy/litmus.hpp"
#include "src/taxonomy/pipeline.hpp"
#include "src/taxonomy/report_io.hpp"
#include "src/telemetry/binary_log.hpp"
#include "src/telemetry/darshan_log.hpp"
#include "src/util/json.hpp"

namespace {

using namespace iotax;

int usage() {
  std::fprintf(stderr, R"(usage: iotax <command> [options]

commands:
  simulate   --preset theta|cori|tiny|bb|flash [--seed N] --out DIR
             [--shards N]
             [--no-dataset]
             run the system simulator; writes jobs.darshan.txt,
             jobs.darshan.bin and dataset.csv into DIR; --shards N
             splits the records over jobs.darshan.<i>.bin archives
             (contiguous slices, for sharded ingest); --no-dataset
             skips the CSV (pack the logs instead)
  parse      --archive FILE [--binary] [--lenient]
             parse a job-log archive and report record/corruption counts
  pack       (--dataset CSV | --logs A[,B,...] [--binary]
             [--mode strict|lenient|repair] [--system NAME]) --out DIR
             write an mmap-backed column store: one f64 file per column
             plus a checksummed manifest; --logs streams the archives
             through the sharded quarantine/repair ingest, so N
             archives pack with per-wave memory;
             pack --check --store DIR verifies manifest + column
             checksums (exit 0 intact, 1 any defect)
  bound      (--dataset FILE | --store DIR)
             litmus 1: the application-modeling error lower bound
  noise      (--dataset FILE | --store DIR) [--window SECS]
             litmus 4/5: concurrent duplicates, Student-t fit, I/O bands
  taxonomy   (--dataset FILE | --store DIR) [--no-uq] [--report OUT.csv]
             the full five-step framework (Fig. 7 of the paper);
             --store runs it out-of-core over the mapped columns with
             bit-identical reports
             --transfer A:B [--seed N] [--check] [--report OUT.json]
             cross-cluster transfer litmus instead: simulate presets A
             and B over a shared application catalog, train on A, score
             B, and attribute the transfer gap to taxonomy classes
             against sim ground truth; --check exits nonzero unless the
             OoD estimate agrees with the oracle
  burst      --preset NAME [--seed N] [--window-hours H]
             [--threshold-frac F] [--train-frac F] [--params JSON]
             [--out MODEL] [--out-data CSV] [--pred-out CSV]
             burst-prediction workload: window the simulated cluster's
             LMT telemetry, label windows whose successor runs over F of
             peak bandwidth (sim ground truth), train a classifier and
             report held-out accuracy/F1/AUC; --out-data saves the
             windowed dataset for serve/query replay
  burst      --predict --model-file MODEL --dataset CSV [--out CSV]
             load a saved classifier and score a burst dataset offline;
             --out writes probabilities byte-identical to a served
             `query --features burst --out` run over the same files
  importance (--dataset FILE | --store DIR)
             train a GBT and report which counters it relies on
  drift      (--dataset FILE | --store DIR) [--train-frac F]
             [--window DAYS]
             train on the first F of the timeline, monitor the rest
  train      (--dataset FILE | --store DIR) --model NAME [--params JSON]
             --out MODEL [--time-split]
             fit any model family (mean|linear|gbt|mlp|ensemble) and
             save it; params is a JSON object of hyperparameters;
             --time-split trains on the earliest --train-frac of the
             timeline instead of a random split (deployment-style)
  predict    (--dataset FILE | --store DIR) --model-file MODEL
             [--out CSV]
             load a saved model and predict the dataset
  inject     --in FILE [--binary] [--plan FILE | --plan-json STR]
             [--seed N] --out FILE [--report FILE]
             deterministically corrupt a clean archive per a fault plan;
             --report saves the injection ground truth as JSON
  audit      (--archive FILE [--binary] | --store DIR)
             [--mode strict|lenient|repair] [--expect REPORT.json]
             [--quarantine-out FILE]
             parse + ingest an (possibly corrupted) archive; strict mode
             exits nonzero on any corruption; --expect checks quarantine
             counts against an inject ground-truth report; --store
             verifies a column store's manifest and checksums instead
  serve      --models A[,B,...] (--socket PATH | --port N)
             [--batch-size N] [--batch-wait-us N] [--max-inflight N]
             [--ready-file FILE] [--shadow FILE] [--shadow-slot N]
             long-lived inference daemon: loads the checkpoints into a
             generation-counted model registry and answers framed
             predict requests with micro-batching; --shadow serves a
             candidate checkpoint beside production with bit-exact
             divergence accounting; drains gracefully on SIGTERM/SIGINT
  fleet      --models A[,B,...] (--socket PATH | --port N)
             --shard-dir DIR [--groups N] [--replicas N]
             [--shard-ports P0,P1,...] [--batch-size N]
             [--batch-wait-us N] [--max-inflight N] [--restart-budget N]
             [--health-interval-ms N] [--health-timeout-ms N]
             [--deadline-ms N] [--try-timeout-ms N]
             [--chaos-plan FILE | --chaos-json STR] [--ready-file FILE]
             [--iotax-bin PATH] [--spawn-timeout-ms N] [--seed N]
             fault-tolerant serving fleet: supervises groups x replicas
             shard daemons (each an `iotax serve` child), consistent-
             hashes requests across groups, retries/fails over inside a
             group, and restarts crashed or hung shards with exponential
             backoff; a mid-load kill -9 of any shard is invisible to
             clients and answers stay bit-identical to offline predict
  query      (--socket PATH | --host H --port N)
             [--ping | --dataset FILE | --store DIR]
             [--model IDX] [--dist] [--shadow] [--pipeline N] [--repeat N]
             [--wait-secs S] [--deadline-ms N] [--fleet]
             [--features darshan|burst] [--out CSV] [--shadow-out CSV]
             client driver: sends every dataset row to a serve daemon
             (responses are bit-identical to offline `predict`) or
             health-checks it with --ping; --shadow also collects the
             daemon's shadow-candidate predictions; --deadline-ms bounds
             how long a silent daemon can stall the client (default
             30000, 0 waits forever); --fleet reconnects and resends
             outstanding requests when the connection drops
  monitor    (--archive FILE | --store DIR) --model-file MODEL
             [--follow] [--poll-ms N]
             [--idle-secs S] [--window-jobs N] [--reference-windows N]
             [--trigger RATIO] [--min-jobs N] [--extra-rounds N]
             [--candidate-out FILE] [--seed N]
             online litmus monitor: tail a growing job-log archive,
             attribute windowed serving error to taxonomy classes
             (ood / noise / drift), and on a drift trigger warm-start
             the model (fit_continue) into a candidate checkpoint;
             exits 3 when a trigger fired
  promote    (--socket PATH | --host H --port N) [--model IDX]
             [--min-shadow N] [--rollback | --status] [--wait-secs S]
             control verbs against a serve daemon: promote the shadow
             candidate into the registry (refused until it has scored
             --min-shadow requests), roll a slot back, or report status
  checkjson  FILE...
             validate that each file parses as JSON (exit 1 otherwise)
  --version  print the build version, the selected kernel tier
             (IOTAX_KERNELS=scalar|avx2|auto picks; auto is the default),
             the column-store format version (store=v1) and the
             checkpoint magics this build can load

out-of-core (any --store command; also honoured with --dataset):
  IOTAX_OOC=0|1            force the in-RAM / out-of-core data path
                           (--store turns it on unless IOTAX_OOC=0)
  IOTAX_OOC_CHUNK_ROWS=N   rows per streaming chunk (default 65536)
  IOTAX_OOC_SPILL_BYTES=N  spill bin-code planes to an unlinked mmap
                           scratch file above this size (default 32MiB;
                           0 spills always)
  IOTAX_OOC_DIR=DIR        where spill files live (default TMPDIR)

observability (any command):
  --metrics-out FILE   write counters/gauges/histograms as JSON
  --trace-out FILE     write spans as Chrome trace JSON (chrome://tracing)
  both force IOTAX_OBS-style instrumentation on for the run
)");
  return 2;
}

sim::SimConfig preset_by_name(const std::string& name, std::uint64_t seed) {
  if (name == "theta") return sim::theta_like(seed);
  if (name == "cori") return sim::cori_like(seed);
  if (name == "tiny") return sim::tiny_system(seed);
  if (name == "bb") return sim::bb_like(seed);
  if (name == "flash") return sim::flash_like(seed);
  throw std::invalid_argument("unknown preset '" + name +
                              "' (theta|cori|tiny|bb|flash)");
}

/// Where a command's dataset comes from: an in-RAM CSV (`--dataset`) or
/// an mmap-backed column store (`--store`). The source must stay alive
/// for as long as the dataset is used — a store-backed Dataset's feature
/// table references the store's mappings (see src/data/store.hpp).
struct DatasetSource {
  data::Dataset owned;                       // CSV path: rows on the heap
  std::unique_ptr<data::ColumnStore> store;  // store path: holds the maps
  const data::Dataset& ds() const {
    return store ? store->dataset() : owned;
  }
};

DatasetSource load_dataset(const cli::Args& args) {
  DatasetSource src;
  if (args.has("store")) {
    if (args.has("dataset")) {
      throw std::invalid_argument(
          "--dataset and --store are mutually exclusive");
    }
    // Out-of-core mode follows the data: a store-backed run streams the
    // binning sweep and spills code planes unless IOTAX_OOC=0 forces the
    // in-RAM path (results are bit-identical either way).
    data::ooc::enable_for_store();
    auto outcome = data::ColumnStore::open(args.get("store"));
    if (!outcome.ok()) {
      throw std::runtime_error("cannot open store " + args.get("store") +
                               ": " + outcome.first_error());
    }
    src.store = std::move(outcome.store);
  } else {
    src.owned = data::read_dataset_csv(args.get("dataset"), "dataset");
  }
  return src;
}

/// Every command also accepts the observability output options.
std::set<std::string> with_obs(std::set<std::string> allowed) {
  allowed.insert("metrics-out");
  allowed.insert("trace-out");
  return allowed;
}

int cmd_simulate(const cli::Args& args) {
  args.check_allowed(with_obs({"preset", "seed", "out", "shards",
                               "no-dataset"}));
  const auto cfg = preset_by_name(
      args.get_or("preset", "tiny"),
      static_cast<std::uint64_t>(args.get_int_or("seed", 7)));
  const std::filesystem::path dir = args.get("out");
  std::filesystem::create_directories(dir);
  std::printf("simulating %s (seed %llu)...\n", cfg.name.c_str(),
              static_cast<unsigned long long>(cfg.seed));
  const auto res = sim::simulate(cfg);
  const auto n_shards =
      static_cast<std::size_t>(std::max<long long>(0,
                                                   args.get_int_or("shards",
                                                                   0)));
  if (n_shards > 1) {
    // Contiguous record slices: shard 0 + shard 1 + ... replayed in
    // order is exactly the single-archive record stream, so a sharded
    // ingest of these files is bit-identical to the sequential one.
    const std::size_t n = res.records.size();
    for (std::size_t s = 0; s < n_shards; ++s) {
      const std::size_t lo = s * n / n_shards;
      const std::size_t hi = (s + 1) * n / n_shards;
      const std::vector<telemetry::JobLogRecord> slice(
          res.records.begin() + static_cast<long>(lo),
          res.records.begin() + static_cast<long>(hi));
      const auto path =
          dir / ("jobs.darshan." + std::to_string(s) + ".bin");
      telemetry::write_binary_archive_file(path.string(), slice);
    }
    std::printf("%zu jobs -> %s/jobs.darshan.{0..%zu}.bin\n",
                res.records.size(), dir.string().c_str(), n_shards - 1);
  } else {
    telemetry::write_archive((dir / "jobs.darshan.txt").string(),
                             res.records);
    telemetry::write_binary_archive_file((dir / "jobs.darshan.bin").string(),
                                         res.records);
    std::printf("%zu jobs -> %s/{jobs.darshan.txt,jobs.darshan.bin}\n",
                res.records.size(), dir.string().c_str());
  }
  if (!args.has("no-dataset")) {
    data::write_dataset_csv((dir / "dataset.csv").string(), res.dataset);
    std::printf("%zu dataset row(s) -> %s/dataset.csv\n",
                res.dataset.size(), dir.string().c_str());
  }
  return 0;
}

int cmd_parse(const cli::Args& args) {
  args.check_allowed(with_obs({"archive", "binary", "lenient"}));
  const auto mode = args.has("lenient") ? telemetry::ParseMode::kLenient
                                        : telemetry::ParseMode::kStrict;
  const auto outcome =
      args.has("binary")
          ? telemetry::read_binary_archive_file_outcome(args.get("archive"),
                                                        mode)
          : telemetry::parse_archive_file_outcome(args.get("archive"), mode);
  if (!outcome.ok) {
    std::fprintf(stderr, "iotax parse: %s\n", outcome.error.c_str());
    return 1;
  }
  // Counted as audit counts: every record the archive lost is skipped.
  const auto stats = outcome.stats();
  std::printf("parsed %zu records, skipped %zu corrupt\n", stats.parsed,
              stats.skipped);
  if (!outcome.records.empty()) {
    const auto& first = outcome.records.front();
    std::printf("first job: id=%llu nprocs=%u perf=%.1f MiB/s\n",
                static_cast<unsigned long long>(first.job_id), first.n_procs,
                first.agg_perf_mib);
  }
  return stats.skipped == 0 ? 0 : 1;
}

int cmd_bound(const cli::Args& args) {
  args.check_allowed(with_obs({"dataset", "store"}));
  const auto src = load_dataset(args);
  const auto& ds = src.ds();
  const auto bound = taxonomy::litmus_application_bound(ds);
  std::printf("jobs: %zu, duplicates: %zu (%.1f%%) in %zu sets "
              "(largest %zu)\n",
              ds.size(), bound.stats.n_duplicate_jobs,
              bound.stats.duplicate_fraction * 100.0, bound.stats.n_sets,
              bound.stats.largest_set);
  std::printf("application-modeling bound: %.2f%% median |log10| error "
              "(mean %.2f%%)\n",
              ml::log_error_to_percent(bound.median_abs_error),
              ml::log_error_to_percent(bound.mean_abs_error));
  return 0;
}

int cmd_noise(const cli::Args& args) {
  args.check_allowed(with_obs({"dataset", "store", "window"}));
  const auto src = load_dataset(args);
  const auto& ds = src.ds();
  const auto noise = taxonomy::litmus_noise_bound(
      ds, args.get_double_or("window", 1.0));
  std::printf("concurrent duplicate sets: %zu (%zu jobs); pairs %.0f%%, "
              "<=6 members %.0f%%\n",
              noise.n_sets, noise.n_jobs, noise.frac_sets_of_two * 100.0,
              noise.frac_sets_leq_six * 100.0);
  std::printf("Student-t df=%.1f (t preferred over Normal by %.4f "
              "nats/sample)\n",
              noise.t_fit.df, noise.t_preference);
  std::printf("irreducible error floor: %.2f%% median\n",
              ml::log_error_to_percent(noise.median_abs_error));
  std::printf("expect throughput within +-%.2f%% (68%%) / +-%.2f%% (95%%) "
              "of prediction\n",
              noise.band68_pct, noise.band95_pct);
  return 0;
}

/// `taxonomy --transfer A:B`: the cross-cluster litmus. Simulates both
/// presets over a shared application catalog (so app ids are
/// comparable), trains on A, scores B, and prints the ground-truth
/// attribution of the transfer gap. --check turns the smoke-test
/// assertions into exit codes so CI never parses the report text.
int cmd_transfer(const cli::Args& args) {
  const auto spec = args.get("transfer");
  const auto colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    throw std::invalid_argument(
        "--transfer wants TRAIN:TEST presets, e.g. theta:cori");
  }
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_or("seed", 7));
  const auto [a_cfg, b_cfg] = sim::make_transfer_pair(
      preset_by_name(spec.substr(0, colon), seed),
      preset_by_name(spec.substr(colon + 1), seed), seed);
  std::printf("simulating %s and %s over a shared catalog (seed %llu)...\n",
              a_cfg.name.c_str(), b_cfg.name.c_str(),
              static_cast<unsigned long long>(seed));
  const auto a = sim::simulate(a_cfg);
  const auto b = sim::simulate(b_cfg);
  const auto report = taxonomy::run_transfer_litmus(a.dataset, b.dataset);
  std::fputs(taxonomy::render_transfer_report(report).c_str(), stdout);

  if (args.has("report")) {
    std::ofstream out(args.get("report"));
    if (!out) throw std::runtime_error("cannot open " + args.get("report"));
    out.precision(17);
    out << "{\n"
        << "  \"train_system\": \"" << report.train_system << "\",\n"
        << "  \"test_system\": \"" << report.test_system << "\",\n"
        << "  \"n_train\": " << report.n_train << ",\n"
        << "  \"n_holdout\": " << report.n_holdout << ",\n"
        << "  \"n_test\": " << report.n_test << ",\n"
        << "  \"in_cluster_error\": " << report.in_cluster_error << ",\n"
        << "  \"transfer_error\": " << report.transfer_error << ",\n"
        << "  \"gap\": " << report.gap << ",\n"
        << "  \"shares\": {\"application\": " << report.oracle.application
        << ", \"system\": " << report.oracle.system
        << ", \"contention\": " << report.oracle.contention
        << ", \"noise\": " << report.oracle.noise << "},\n"
        << "  \"ood_fraction_truth\": " << report.ood_fraction_truth << ",\n"
        << "  \"ood_fraction_est\": " << report.ood_fraction_est << ",\n"
        << "  \"ood_auc\": " << report.ood_auc << "\n"
        << "}\n";
    std::printf("report written to %s\n", args.get("report").c_str());
  }

  if (args.has("check")) {
    // Floors calibrated on the tiny-scale presets (IOTAX_SCALE=0.1):
    // every preset pair clears them with wide margin, so a miss means
    // the litmus broke, not that the simulation got unlucky.
    int rc = 0;
    const auto fail = [&rc](const char* what) {
      std::fprintf(stderr, "transfer check FAILED: %s\n", what);
      rc = 4;
    };
    if (!(report.gap > 0.0)) fail("transfer gap not positive");
    if (!(report.oracle.application > 0.5)) {
      fail("application share does not dominate the transfer error");
    }
    const double share_sum = report.oracle.application +
                             report.oracle.system +
                             report.oracle.contention + report.oracle.noise;
    if (share_sum < 0.99 || share_sum > 1.01) {
      fail("oracle shares do not sum to 1");
    }
    if (!(report.ood_auc > 0.75)) {
      fail("OoD estimator does not rank ground-truth OoD rows");
    }
    if (std::abs(report.ood_fraction_est - report.ood_fraction_truth) >
        0.03 + 0.5 * report.ood_fraction_truth) {
      fail("estimated OoD fraction disagrees with the oracle");
    }
    std::printf("transfer check: %s\n", rc == 0 ? "ok" : "FAILED");
    return rc;
  }
  return 0;
}

int cmd_taxonomy(const cli::Args& args) {
  args.check_allowed(with_obs(
      {"dataset", "store", "no-uq", "report", "transfer", "seed", "check"}));
  if (args.has("transfer")) return cmd_transfer(args);
  const auto src = load_dataset(args);
  const auto& ds = src.ds();
  taxonomy::PipelineConfig pc;
  pc.run_uq = !args.has("no-uq");
  const auto report = taxonomy::run_taxonomy(ds, pc);
  std::cout << taxonomy::render_report(report);
  if (args.has("report")) {
    taxonomy::write_report_csv(args.get("report"), report);
    std::printf("report written to %s\n", args.get("report").c_str());
  }
  return 0;
}

int cmd_importance(const cli::Args& args) {
  args.check_allowed(with_obs({"dataset", "store"}));
  const auto src = load_dataset(args);
  const auto& ds = src.ds();
  util::Rng rng(3);
  const auto split = data::random_split(ds.size(), 0.8, 0.0, rng);
  std::vector<taxonomy::FeatureSet> feats = {taxonomy::FeatureSet::kPosix,
                                             taxonomy::FeatureSet::kMpiio};
  if (ds.features.has_column("LMT_OSS_CPU_MEAN")) {
    feats.push_back(taxonomy::FeatureSet::kLmt);
  }
  ml::GbtParams params;
  params.n_estimators = 96;
  params.max_depth = 8;
  ml::GradientBoostedTrees model(params);
  std::vector<std::size_t> fit_cols, fit_rows, ev_cols, ev_rows;
  model.fit(taxonomy::feature_view(ds, feats, &fit_cols, &fit_rows,
                                   split.train),
            taxonomy::targets(ds, split.train));
  const double err = ml::median_abs_log_error(
      taxonomy::targets(ds, split.test),
      model.predict(taxonomy::feature_view(ds, feats, &ev_cols, &ev_rows,
                                           split.test)));
  std::printf("model: %s, held-out error %.2f%%\n\n", model.name().c_str(),
              ml::log_error_to_percent(err));
  const auto ranked = taxonomy::ranked_importances(
      model, taxonomy::feature_columns(ds, feats));
  std::cout << taxonomy::render_importance_report(ranked);
  return 0;
}

int cmd_drift(const cli::Args& args) {
  args.check_allowed(with_obs({"dataset", "store", "train-frac", "window"}));
  const auto src = load_dataset(args);
  const auto& ds = src.ds();
  const double train_frac = args.get_double_or("train-frac", 0.5);
  if (train_frac <= 0.0 || train_frac >= 1.0) {
    throw std::invalid_argument("--train-frac must be in (0,1)");
  }
  double t_min = 1e300;
  double t_max = -1e300;
  for (const auto& m : ds.meta) {
    t_min = std::min(t_min, m.start_time);
    t_max = std::max(t_max, m.start_time);
  }
  const double cutoff = t_min + (t_max - t_min) * train_frac;
  const auto train_rows = ds.rows_in_window(t_min, cutoff);
  const auto stream_rows = ds.rows_in_window(cutoff, 1e300);
  if (train_rows.size() < 100 || stream_rows.size() < 100) {
    throw std::invalid_argument("drift: too few jobs on one side of the cut");
  }
  // Hold out the last fifth of the training period as the reference.
  const auto n_fit = train_rows.size() * 4 / 5;
  const std::vector<std::size_t> fit_rows(train_rows.begin(),
                                          train_rows.begin() +
                                              static_cast<long>(n_fit));
  std::vector<std::size_t> watch_rows(train_rows.begin() +
                                          static_cast<long>(n_fit),
                                      train_rows.end());
  watch_rows.insert(watch_rows.end(), stream_rows.begin(),
                    stream_rows.end());

  const std::vector<taxonomy::FeatureSet> feats = {
      taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio};
  ml::GradientBoostedTrees model({.n_estimators = 96, .max_depth = 8});
  std::vector<std::size_t> fc, fr, wc, wr;
  model.fit(taxonomy::feature_view(ds, feats, &fc, &fr, fit_rows),
            taxonomy::targets(ds, fit_rows));
  const auto pred =
      model.predict(taxonomy::feature_view(ds, feats, &wc, &wr, watch_rows));
  const auto y = taxonomy::targets(ds, watch_rows);
  std::vector<double> times(watch_rows.size());
  std::vector<double> errors(watch_rows.size());
  for (std::size_t i = 0; i < watch_rows.size(); ++i) {
    times[i] = ds.meta[watch_rows[i]].start_time;
    errors[i] = pred[i] - y[i];
  }
  taxonomy::DriftParams params;
  params.window_seconds = 86400.0 * args.get_double_or("window", 7.0);
  const auto report = taxonomy::monitor_drift(times, errors, params);
  std::cout << taxonomy::render_drift_report(report);
  return report.n_alarms == 0 ? 0 : 3;  // exit code flags drift for scripts
}

int cmd_train(const cli::Args& args) {
  args.check_allowed(with_obs({"dataset", "store", "model", "params", "out",
                               "train-frac", "seed", "time-split"}));
  const auto src = load_dataset(args);
  const auto& ds = src.ds();
  auto model = ml::make_regressor(args.get("model"),
                                  args.get_or("params", "{}"));
  const double train_frac = args.get_double_or("train-frac", 0.8);
  if (train_frac <= 0.0 || train_frac > 1.0) {
    throw std::invalid_argument("--train-frac must be in (0,1]");
  }
  data::Split split;
  if (args.has("time-split")) {
    // Deployment-style split: train on the earliest fraction of the
    // timeline, hold out the rest — what a site retraining a production
    // model actually does, and what the online-loop smoke test needs so
    // the production model has never seen the post-shift regime.
    split = data::split_by_start_time(
        ds, static_cast<std::size_t>(static_cast<double>(ds.size()) *
                                     train_frac));
  } else {
    util::Rng rng(static_cast<std::uint64_t>(args.get_int_or("seed", 3)));
    split = data::random_split(ds.size(), train_frac, 0.0, rng);
  }
  const std::vector<taxonomy::FeatureSet> feats = {
      taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio};
  // Feature views instead of materialized matrices: on a store-backed
  // run the model reads straight from the mapped columns, so training a
  // million-job dataset materializes targets + binning chunks only.
  std::vector<std::size_t> fit_cols, fit_rows, ev_cols, ev_rows;
  model->fit(taxonomy::feature_view(ds, feats, &fit_cols, &fit_rows,
                                    split.train),
             taxonomy::targets(ds, split.train));
  std::printf("trained %s on %zu jobs\n", model->name().c_str(),
              split.train.size());
  if (!split.test.empty()) {
    const double err = ml::median_abs_log_error(
        taxonomy::targets(ds, split.test),
        model->predict(taxonomy::feature_view(ds, feats, &ev_cols, &ev_rows,
                                              split.test)));
    std::printf("held-out error: %.2f%% median |log10|\n",
                ml::log_error_to_percent(err));
  }
  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    if (!out) throw std::runtime_error("cannot open " + args.get("out"));
    model->save(out);
    std::printf("model saved to %s\n", args.get("out").c_str());
  }
  return 0;
}

int cmd_predict(const cli::Args& args) {
  args.check_allowed(with_obs({"dataset", "store", "model-file", "out"}));
  // Load the checkpoint first: a bad model file fails fast with the
  // path / offending-token / known-magics diagnostic before the
  // (possibly large) dataset is read.
  const auto model = ml::load_regressor_file(args.get("model-file"));
  const auto src = load_dataset(args);
  const auto& ds = src.ds();
  const std::vector<taxonomy::FeatureSet> feats = {
      taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio};
  std::vector<std::size_t> view_cols, view_rows;
  const auto pred = model->predict(
      taxonomy::feature_view(ds, feats, &view_cols, &view_rows));
  const double err =
      ml::median_abs_log_error(taxonomy::targets(ds), pred);
  std::printf("%s predicted %zu jobs, error %.2f%% median |log10|\n",
              model->name().c_str(), pred.size(),
              ml::log_error_to_percent(err));
  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    if (!out) throw std::runtime_error("cannot open " + args.get("out"));
    out << "job_id,log10_pred\n";
    out.precision(17);
    for (std::size_t i = 0; i < pred.size(); ++i) {
      out << ds.meta[i].job_id << ',' << pred[i] << '\n';
    }
    std::printf("predictions written to %s\n", args.get("out").c_str());
  }
  return 0;
}

/// Write probabilities in the exact format `predict --out` and
/// `query --out` use, so burst answers are byte-comparable across the
/// offline and served paths.
void write_prediction_csv(const std::string& path, const data::Dataset& ds,
                          std::span<const double> pred) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << "job_id,log10_pred\n";
  out.precision(17);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    out << ds.meta[i].job_id << ',' << pred[i] << '\n';
  }
}

/// Held-out classification quality; prints a dash row when the slice
/// holds a single class (AUC undefined).
void print_classification_metrics(const char* tag,
                                  std::span<const double> y,
                                  std::span<const double> labels,
                                  std::span<const double> prob) {
  const auto counts = stats::confusion_counts(y, labels);
  if (counts.tp + counts.fn == 0 || counts.fp + counts.tn == 0) {
    std::printf("%s: accuracy %.3f (single-class slice, F1/AUC undefined)\n",
                tag, stats::accuracy(counts));
    return;
  }
  std::printf("%s: accuracy %.3f precision %.3f recall %.3f f1 %.3f "
              "auc %.3f\n",
              tag, stats::accuracy(counts), stats::precision(counts),
              stats::recall(counts), stats::f1_score(counts),
              stats::roc_auc(y, prob));
}

int cmd_burst(const cli::Args& args) {
  args.check_allowed(with_obs({"preset", "seed", "window-hours",
                               "threshold-frac", "train-frac", "params",
                               "out", "out-data", "pred-out", "predict",
                               "model-file", "dataset", "store"}));
  const std::vector<taxonomy::FeatureSet> feats = {
      taxonomy::FeatureSet::kBurst};

  if (args.has("predict")) {
    // Offline scoring of a saved classifier over a burst dataset — the
    // byte-identity reference for the served path.
    const auto model = ml::load_regressor_file(args.get("model-file"));
    const auto src = load_dataset(args);
    const auto& ds = src.ds();
    std::vector<std::size_t> view_cols, view_rows;
    const auto x = taxonomy::feature_view(ds, feats, &view_cols, &view_rows);
    const auto prob = model->predict(x);
    std::printf("%s scored %zu window(s)\n", model->name().c_str(),
                prob.size());
    if (const auto* clf = dynamic_cast<const ml::BurstClassifier*>(
            model.get())) {
      print_classification_metrics("burst", taxonomy::targets(ds),
                                   clf->predict_labels(x), prob);
    }
    if (args.has("out")) {
      write_prediction_csv(args.get("out"), ds, prob);
      std::printf("probabilities written to %s\n", args.get("out").c_str());
    }
    return 0;
  }

  // Train mode: simulate, window the telemetry, fit, report held out.
  auto cfg = preset_by_name(
      args.get_or("preset", "tiny"),
      static_cast<std::uint64_t>(args.get_int_or("seed", 7)));
  // The workload is storage-side by construction; presets without LMT
  // (theta) get it switched on rather than erroring out.
  cfg.platform.lmt_enabled = true;
  sim::BurstParams bp;
  bp.window_seconds = args.get_double_or("window-hours", 6.0) * 3600.0;
  bp.threshold_frac = args.get_double_or("threshold-frac", 0.35);
  bp.validate();
  std::printf("simulating %s (seed %llu)...\n", cfg.name.c_str(),
              static_cast<unsigned long long>(cfg.seed));
  const auto res = sim::simulate(cfg);
  const auto burst = sim::build_burst_dataset(res, bp);
  const auto& ds = burst.dataset;
  std::printf("%zu window(s), %zu burst(s) (%.1f%%), threshold %.0f MiB/s\n",
              burst.n_windows, burst.n_bursts,
              100.0 * static_cast<double>(burst.n_bursts) /
                  static_cast<double>(burst.n_windows),
              burst.threshold_mib);

  const double train_frac = args.get_double_or("train-frac", 0.75);
  if (train_frac <= 0.0 || train_frac >= 1.0) {
    throw std::invalid_argument("--train-frac must be in (0,1)");
  }
  // Rows are already in window (time) order; split on the timeline.
  const auto n_train = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(ds.size()) *
                                  train_frac));
  if (n_train >= ds.size()) {
    throw std::invalid_argument("burst: no held-out windows at this "
                                "--train-frac");
  }
  std::vector<std::size_t> train_rows(n_train), test_rows(ds.size() - n_train);
  std::iota(train_rows.begin(), train_rows.end(), std::size_t{0});
  std::iota(test_rows.begin(), test_rows.end(), n_train);

  auto model = ml::make_regressor("classifier", args.get_or("params", "{}"));
  auto* clf = dynamic_cast<ml::BurstClassifier*>(model.get());
  std::vector<std::size_t> fit_cols, fit_rows, ev_cols, ev_rows;
  model->fit(taxonomy::feature_view(ds, feats, &fit_cols, &fit_rows,
                                    train_rows),
             taxonomy::targets(ds, train_rows));
  std::printf("trained %s on %zu window(s)\n", model->name().c_str(),
              train_rows.size());
  const auto x_test = taxonomy::feature_view(ds, feats, &ev_cols, &ev_rows,
                                             test_rows);
  print_classification_metrics("held-out", taxonomy::targets(ds, test_rows),
                               clf->predict_labels(x_test),
                               clf->predict(x_test));

  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    if (!out) throw std::runtime_error("cannot open " + args.get("out"));
    model->save(out);
    std::printf("model saved to %s\n", args.get("out").c_str());
  }
  if (args.has("out-data")) {
    data::write_dataset_csv(args.get("out-data"), ds);
    std::printf("%zu window row(s) -> %s\n", ds.size(),
                args.get("out-data").c_str());
  }
  if (args.has("pred-out")) {
    std::vector<std::size_t> all_cols, all_rows;
    write_prediction_csv(
        args.get("pred-out"), ds,
        model->predict(taxonomy::feature_view(ds, feats, &all_cols,
                                              &all_rows)));
    std::printf("probabilities written to %s\n", args.get("pred-out").c_str());
  }
  return 0;
}

int cmd_inject(const cli::Args& args) {
  args.check_allowed(
      with_obs({"in", "binary", "plan", "plan-json", "seed", "out",
                "report"}));
  if (args.has("plan") && args.has("plan-json")) {
    throw std::invalid_argument(
        "inject: --plan and --plan-json are mutually exclusive");
  }
  faults::FaultPlan plan;
  if (args.has("plan")) {
    plan = faults::FaultPlan::from_file(args.get("plan"));
  } else if (args.has("plan-json")) {
    plan = faults::FaultPlan::from_json(
        util::Json::parse(args.get("plan-json")));
  }
  if (args.has("seed")) {
    plan.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 0));
  }
  const auto report = faults::inject_archive(args.get("in"), args.get("out"),
                                             args.has("binary"), plan);
  std::printf("injected %zu fault(s) into %zu record(s) -> %s "
              "(%zu written, %zu tail bytes cut)\n",
              report.injected_total(), report.input_records,
              args.get("out").c_str(), report.written_records,
              report.truncated_bytes);
  std::printf("expected quarantine downstream: %zu record(s)\n",
              report.expected_total());
  if (args.has("report")) {
    std::ofstream out(args.get("report"));
    if (!out) throw std::runtime_error("cannot open " + args.get("report"));
    out << report.to_json().dump(2) << '\n';
    std::printf("ground truth written to %s\n", args.get("report").c_str());
  }
  return 0;
}

sim::IngestMode parse_ingest_mode(const std::string& command,
                                  const cli::Args& args) {
  const auto mode_name = args.get_or("mode", "lenient");
  if (mode_name == "strict") return sim::IngestMode::kStrict;
  if (mode_name == "lenient") return sim::IngestMode::kLenient;
  if (mode_name == "repair") return sim::IngestMode::kRepair;
  throw std::invalid_argument(command +
                              ": --mode must be strict, lenient or repair");
}

int cmd_pack(const cli::Args& args) {
  args.check_allowed(with_obs({"logs", "binary", "dataset", "out", "store",
                               "mode", "system", "check"}));
  if (args.has("check")) {
    // `pack --check --store DIR`: structural + checksum verification with
    // strict exit codes (0 intact, 1 any defect), mirroring
    // `audit --expect` for archives.
    const auto dir = args.has("store") ? args.get("store") : args.get("out");
    const auto outcome = data::ColumnStore::open(dir, true);
    if (!outcome.quarantine.empty()) {
      std::fputs(outcome.quarantine.render().c_str(), stdout);
    }
    if (!outcome.ok()) {
      std::fprintf(stderr, "pack: store %s FAILED verification: %s\n",
                   dir.c_str(), outcome.first_error().c_str());
      return 1;
    }
    std::printf("store %s: ok (v%d, %zu row(s), %zu column(s), "
                "%zu mapped byte(s), checksums verified)\n",
                dir.c_str(), data::kStoreFormatVersion,
                outcome.store->rows(), outcome.store->n_columns(),
                outcome.store->mapped_bytes());
    return 0;
  }

  const auto out = args.get("out");
  if (args.has("dataset") == args.has("logs")) {
    throw std::invalid_argument(
        "pack: need exactly one of --dataset or --logs");
  }
  if (args.has("dataset")) {
    // CSV -> store. The system name defaults to the one load_dataset()
    // stamps, so `taxonomy --store` over the packed copy is bit-identical
    // to `taxonomy --dataset` over the CSV.
    const auto ds = data::read_dataset_csv(args.get("dataset"),
                                           args.get_or("system", "dataset"));
    data::pack_dataset(out, ds);
    std::printf("packed %zu row(s), %zu feature column(s) -> %s\n",
                ds.size(), ds.features.n_cols(), out.c_str());
    return 0;
  }

  // Log archives -> store: sharded ingest streamed straight into the
  // store writer, one surviving chunk per shard, so peak memory is a
  // wave of shards regardless of how many jobs the archives hold.
  const auto mode = parse_ingest_mode("pack", args);
  std::vector<sim::IngestShard> shards;
  for (const auto& path : util::split(args.get("logs"), ',')) {
    const auto trimmed = util::trim(path);
    if (!trimmed.empty()) {
      sim::IngestShard shard;
      shard.path = std::string(trimmed);
      shard.binary = args.has("binary");
      shards.push_back(std::move(shard));
    }
  }
  if (shards.empty()) {
    throw std::invalid_argument("pack: --logs needs at least one archive");
  }
  const auto system = args.get_or("system", "ingest");
  std::unique_ptr<data::StoreWriter> writer;
  const auto summary = sim::ingest_shards(
      shards, nullptr, system, nullptr, mode,
      [&](data::Dataset&& chunk) {
        if (!writer) {
          writer = std::make_unique<data::StoreWriter>(
              out, chunk.features.names(), chunk.system_name);
        }
        writer->append(chunk);
      });
  if (!writer) {
    throw std::runtime_error("pack: no rows survived ingest; nothing to pack");
  }
  writer->finish();
  std::printf("packed %zu of %zu record(s) from %zu shard(s) -> %s "
              "(%zu quarantined, %zu repaired)\n",
              writer->rows_written(), summary.total_records, shards.size(),
              out.c_str(), summary.quarantine.total(), summary.repaired);
  if (!summary.quarantine.empty()) {
    std::fputs(summary.quarantine.render().c_str(), stdout);
  }
  return 0;
}

int cmd_audit(const cli::Args& args) {
  args.check_allowed(
      with_obs({"archive", "binary", "store", "mode", "expect",
                "quarantine-out"}));
  const auto mode = parse_ingest_mode("audit", args);

  if (args.has("store")) {
    // Auditing a store verifies its manifest and column checksums; the
    // defect report uses the same Reason vocabulary as archive audits.
    if (args.has("expect")) {
      throw std::invalid_argument(
          "audit: --expect applies to archives, not stores");
    }
    const auto outcome = data::ColumnStore::open(args.get("store"), true);
    if (!outcome.quarantine.empty()) {
      std::fputs(outcome.quarantine.render().c_str(), stdout);
    }
    if (args.has("quarantine-out")) {
      std::ofstream qout(args.get("quarantine-out"));
      if (!qout) {
        throw std::runtime_error("cannot open " + args.get("quarantine-out"));
      }
      qout << outcome.quarantine.to_json().dump(2) << '\n';
    }
    if (!outcome.ok()) {
      std::fprintf(stderr, "audit: store %s FAILED verification: %s\n",
                   args.get("store").c_str(), outcome.first_error().c_str());
      return 1;
    }
    std::printf("store %s: ok (%zu row(s), %zu column(s), "
                "checksums verified)\n",
                args.get("store").c_str(), outcome.store->rows(),
                outcome.store->n_columns());
    return 0;
  }

  const auto outcome =
      args.has("binary")
          ? telemetry::read_binary_archive_file_outcome(
                args.get("archive"), telemetry::ParseMode::kLenient)
          : telemetry::parse_archive_file_outcome(
                args.get("archive"), telemetry::ParseMode::kLenient);
  if (!outcome.ok) {
    std::fprintf(stderr, "audit: unreadable archive: %s\n",
                 outcome.error.c_str());
    return 1;
  }
  // Strict mode still ingests leniently so the report covers every
  // defect (not just the first); its exit code is what is strict.
  const auto ingest = sim::build_dataset_ingest(
      outcome.records, nullptr, "audit", nullptr,
      mode == sim::IngestMode::kStrict ? sim::IngestMode::kLenient : mode);
  util::QuarantineReport combined = outcome.quarantine;
  combined.merge(ingest.quarantine);
  std::printf("parsed %zu record(s), built %zu dataset row(s)\n",
              outcome.records.size(), ingest.dataset.size());
  if (!combined.empty()) std::fputs(combined.render().c_str(), stdout);

  int rc = 0;
  if (args.has("expect")) {
    std::ifstream in(args.get("expect"));
    if (!in) throw std::runtime_error("cannot open " + args.get("expect"));
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto truth =
        faults::InjectionReport::from_json(util::Json::parse(buf.str()));
    bool mismatch = false;
    for (std::size_t i = 0; i < util::kReasonCount; ++i) {
      const auto reason = static_cast<util::Reason>(i);
      if (combined.count(reason) != truth.expected(reason)) {
        std::fprintf(stderr,
                     "audit: reason %s: expected %zu quarantined, got %zu\n",
                     util::reason_name(reason), truth.expected(reason),
                     combined.count(reason));
        mismatch = true;
      }
    }
    if (mismatch) {
      rc = 1;
    } else {
      std::printf("quarantine matches injection ground truth "
                  "(%zu record(s))\n",
                  truth.expected_total());
    }
  }
  if (args.has("quarantine-out")) {
    std::ofstream out(args.get("quarantine-out"));
    if (!out) {
      throw std::runtime_error("cannot open " + args.get("quarantine-out"));
    }
    out << combined.to_json().dump(2) << '\n';
  }
  if (mode == sim::IngestMode::kStrict && combined.total() != 0) {
    std::string reasons;
    for (std::size_t i = 0; i < util::kReasonCount; ++i) {
      if (combined.count(static_cast<util::Reason>(i)) == 0) continue;
      if (!reasons.empty()) reasons += ", ";
      reasons += util::reason_name(static_cast<util::Reason>(i));
    }
    std::fprintf(stderr, "audit: strict mode: %zu corrupt record(s) [%s]\n",
                 combined.total(), reasons.c_str());
    rc = 1;
  }
  return rc;
}

/// --batch-size, --batch-wait-us and --max-inflight, each defaulting to
/// what `cfg` already holds: serve::BatchConfig's defaults.
void read_batch_flags(const cli::Args& args, serve::BatchConfig* cfg) {
  cfg->batch_size = static_cast<std::size_t>(args.get_int_or(
      "batch-size", static_cast<long long>(cfg->batch_size)));
  cfg->batch_wait_us = static_cast<std::uint64_t>(args.get_int_or(
      "batch-wait-us", static_cast<long long>(cfg->batch_wait_us)));
  cfg->max_inflight = static_cast<std::size_t>(args.get_int_or(
      "max-inflight", static_cast<long long>(cfg->max_inflight)));
}

std::atomic<int> g_serve_signal{0};

void serve_signal_handler(int sig) { g_serve_signal.store(sig); }

int cmd_serve(const cli::Args& args) {
  args.check_allowed(with_obs({"models", "socket", "port", "batch-size",
                               "batch-wait-us", "max-inflight",
                               "ready-file", "shadow", "shadow-slot"}));
  serve::ServeConfig cfg;
  for (const auto& path : util::split(args.get("models"), ',')) {
    const auto trimmed = util::trim(path);
    if (!trimmed.empty()) cfg.model_files.emplace_back(trimmed);
  }
  if (cfg.model_files.empty()) {
    throw std::invalid_argument("serve: --models needs at least one file");
  }
  cfg.unix_socket = args.get_or("socket", "");
  cfg.tcp_port = static_cast<int>(args.get_int_or("port", -1));
  read_batch_flags(args, &cfg);
  cfg.shadow_file = args.get_or("shadow", "");
  cfg.shadow_slot =
      static_cast<std::size_t>(args.get_int_or("shadow-slot", 0));

  serve::Server server(cfg);
  server.start();
  for (std::size_t i = 0; i < server.registry().size(); ++i) {
    const auto entry = server.registry().entry(i);
    std::printf("serve: model %zu: %s (%s, %zu features, generation %llu, "
                "params hash %s)\n",
                i, server.registry().path(i).c_str(),
                entry->model->name().c_str(), entry->model->n_features(),
                static_cast<unsigned long long>(entry->generation),
                ml::format_params_hash(entry->params_hash).c_str());
  }
  if (const auto shadow = server.shadow()) {
    std::printf("serve: shadow candidate for slot %zu: %s (%s, "
                "params hash %s)\n",
                cfg.shadow_slot, shadow->source.c_str(),
                shadow->model->name().c_str(),
                ml::format_params_hash(shadow->params_hash).c_str());
  }
  if (!cfg.unix_socket.empty()) {
    std::printf("serve: listening on unix socket %s\n",
                cfg.unix_socket.c_str());
  }
  if (cfg.tcp_port >= 0) {
    std::printf("serve: listening on 127.0.0.1:%d\n", server.tcp_port());
  }
  std::printf("serve: batch-size %zu, batch-wait %llu us, max-inflight %zu\n",
              cfg.batch_size,
              static_cast<unsigned long long>(cfg.batch_wait_us),
              cfg.max_inflight);
  std::fflush(stdout);
  if (args.has("ready-file")) {
    // Written only once the listeners accept: scripts poll for this
    // file instead of racing the daemon startup.
    std::ofstream ready(args.get("ready-file"));
    if (!ready) {
      throw std::runtime_error("cannot open " + args.get("ready-file"));
    }
    ready << "port " << server.tcp_port() << '\n';
  }

  struct sigaction sa{};
  sa.sa_handler = serve_signal_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  while (g_serve_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("serve: signal %d, draining...\n", g_serve_signal.load());
  std::fflush(stdout);
  server.stop();

  const auto stats = server.stats();
  std::printf("serve: drained; %llu request(s) in %llu batch(es), "
              "%llu response(s), %llu shed, %llu error(s), "
              "%llu quarantined\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.responses),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.errors),
              static_cast<unsigned long long>(stats.quarantined));
  if (stats.shadow_requests > 0 || stats.promotions > 0 ||
      stats.rollbacks > 0) {
    std::printf("serve: shadow scored %llu request(s), %llu diverged "
                "(max |delta| %.17g); %llu promotion(s), %llu rollback(s)\n",
                static_cast<unsigned long long>(stats.shadow_requests),
                static_cast<unsigned long long>(stats.shadow_diverged),
                stats.max_abs_divergence,
                static_cast<unsigned long long>(stats.promotions),
                static_cast<unsigned long long>(stats.rollbacks));
  }
  if (obs::enabled()) {
    auto& hist = obs::MetricsRegistry::global().histogram(
        "serve.request_ms", obs::latency_ms_edges());
    if (hist.count() > 0) {
      std::printf("serve: latency p50 ~%.3f ms, p99 ~%.3f ms "
                  "(bucket estimates)\n",
                  hist.bucket_quantile(0.5), hist.bucket_quantile(0.99));
    }
  }
  const auto quarantined = server.quarantine();
  if (!quarantined.empty()) std::fputs(quarantined.render().c_str(), stdout);
  return 0;
}

/// The running binary's own path: the default `iotax` the fleet
/// supervisor execs its shard daemons from.
std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "iotax";
  buf[n] = '\0';
  return std::string(buf);
}

int cmd_fleet(const cli::Args& args) {
  args.check_allowed(with_obs(
      {"models", "socket", "port", "shard-dir", "groups", "replicas",
       "shard-ports", "batch-size", "batch-wait-us", "max-inflight",
       "restart-budget", "health-interval-ms", "health-timeout-ms",
       "deadline-ms", "try-timeout-ms", "chaos-plan", "chaos-json",
       "ready-file", "iotax-bin", "spawn-timeout-ms", "seed"}));
  const long long groups = args.get_int_or("groups", 1);
  const long long replicas = args.get_int_or("replicas", 2);
  if (groups < 1) {
    throw std::invalid_argument("fleet: --groups must be >= 1");
  }
  if (replicas < 1) {
    throw std::invalid_argument("fleet: --replicas must be >= 1");
  }

  serve::SupervisorConfig sup;
  for (const auto& path : util::split(args.get("models"), ',')) {
    const auto trimmed = util::trim(path);
    if (!trimmed.empty()) sup.model_files.emplace_back(trimmed);
  }
  sup.iotax_bin = args.get_or("iotax-bin", self_exe_path());
  sup.shard_dir = args.get("shard-dir");
  sup.n_groups = static_cast<std::size_t>(groups);
  sup.n_replicas = static_cast<std::size_t>(replicas);
  for (const auto& tok : util::split(args.get_or("shard-ports", ""), ',')) {
    const auto trimmed = util::trim(tok);
    if (!trimmed.empty()) {
      sup.shard_ports.push_back(std::stoi(std::string(trimmed)));
    }
  }
  read_batch_flags(args, &sup);
  sup.health_interval_ms =
      static_cast<std::uint64_t>(args.get_int_or("health-interval-ms", 100));
  sup.health_timeout_ms =
      static_cast<std::uint64_t>(args.get_int_or("health-timeout-ms", 1000));
  sup.restart_budget =
      static_cast<std::size_t>(args.get_int_or("restart-budget", 8));
  sup.spawn_timeout_ms =
      static_cast<std::uint64_t>(args.get_int_or("spawn-timeout-ms", 30000));
  sup.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 0xf1ee7));

  serve::RouterConfig rc;
  rc.unix_socket = args.get_or("socket", "");
  rc.tcp_port = static_cast<int>(args.get_int_or("port", -1));
  rc.deadline_ms =
      static_cast<std::uint64_t>(args.get_int_or("deadline-ms", 5000));
  rc.try_timeout_ms =
      static_cast<std::uint64_t>(args.get_int_or("try-timeout-ms", 250));
  rc.seed = sup.seed;
  if (args.has("chaos-plan")) {
    rc.chaos = faults::ChaosPlan::from_file(args.get("chaos-plan"));
  } else if (args.has("chaos-json")) {
    rc.chaos = faults::ChaosPlan::from_json(
        util::Json::parse(args.get("chaos-json")));
  }

  serve::Supervisor supervisor(sup);
  supervisor.start();
  rc.supervisor = &supervisor;
  serve::Router router(rc);
  try {
    router.start();
  } catch (...) {
    supervisor.stop();
    throw;
  }

  std::printf("fleet: %zu group(s) x %zu replica(s) = %zu shard(s) of %s, "
              "restart budget %zu\n",
              sup.n_groups, sup.n_replicas, sup.n_groups * sup.n_replicas,
              sup.iotax_bin.c_str(), sup.restart_budget);
  if (!rc.unix_socket.empty()) {
    std::printf("fleet: routing on unix socket %s\n", rc.unix_socket.c_str());
  }
  if (rc.tcp_port >= 0) {
    std::printf("fleet: routing on 127.0.0.1:%d\n", router.tcp_port());
  }
  if (!rc.chaos.empty()) {
    std::printf("fleet: chaos plan armed: %zu event(s), "
                "%zu expected restart(s)\n",
                rc.chaos.events.size(), rc.chaos.expected_restarts());
  }
  std::fflush(stdout);
  if (args.has("ready-file")) {
    std::ofstream ready(args.get("ready-file"));
    if (!ready) {
      throw std::runtime_error("cannot open " + args.get("ready-file"));
    }
    ready << "port " << router.tcp_port() << '\n';
  }

  struct sigaction sa{};
  sa.sa_handler = serve_signal_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  while (g_serve_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("fleet: signal %d, draining...\n", g_serve_signal.load());
  std::fflush(stdout);
  router.stop();
  supervisor.stop();

  const auto fs = router.stats();
  const auto ss = supervisor.stats();
  std::printf("fleet: drained; %llu request(s), %llu response(s), "
              "%llu error(s), %llu degraded\n",
              static_cast<unsigned long long>(fs.requests),
              static_cast<unsigned long long>(fs.responses),
              static_cast<unsigned long long>(fs.errors),
              static_cast<unsigned long long>(fs.degraded));
  std::printf("fleet: backhaul retries %llu, failovers %llu, "
              "busy-retries %llu\n",
              static_cast<unsigned long long>(fs.retries),
              static_cast<unsigned long long>(fs.failovers),
              static_cast<unsigned long long>(fs.busy_retries));
  std::printf("fleet: supervisor spawned %llu, restarted %llu "
              "(%llu exit(s), %llu hang(s) detected, %llu gave up)\n",
              static_cast<unsigned long long>(ss.spawns),
              static_cast<unsigned long long>(ss.restarts),
              static_cast<unsigned long long>(ss.exits_detected),
              static_cast<unsigned long long>(ss.hangs_detected),
              static_cast<unsigned long long>(ss.gave_up));
  if (!rc.chaos.empty()) {
    std::printf("fleet: chaos fired %llu kill(s), %llu hang(s), "
                "%llu drop(s), %llu delay(s)\n",
                static_cast<unsigned long long>(fs.chaos_kills),
                static_cast<unsigned long long>(fs.chaos_hangs),
                static_cast<unsigned long long>(fs.chaos_drops),
                static_cast<unsigned long long>(fs.chaos_delays));
  }
  const auto quarantined = router.quarantine();
  if (!quarantined.empty()) std::fputs(quarantined.render().c_str(), stdout);
  return 0;
}

serve::Client connect_query_client(const cli::Args& args) {
  const double wait_secs = args.get_double_or("wait-secs", 0.0);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(wait_secs);
  while (true) {
    try {
      if (args.has("socket")) {
        return serve::Client::connect_unix(args.get("socket"));
      }
      if (args.has("port")) {
        return serve::Client::connect_tcp(
            args.get_or("host", "127.0.0.1"),
            static_cast<std::uint16_t>(args.get_int_or("port", 0)));
      }
      throw std::invalid_argument("query: need --socket or --port");
    } catch (const std::runtime_error&) {
      if (std::chrono::steady_clock::now() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

int cmd_query(const cli::Args& args) {
  args.check_allowed(with_obs({"socket", "host", "port", "dataset", "store",
                               "model", "dist", "out", "pipeline", "repeat",
                               "ping", "wait-secs", "shadow", "shadow-out",
                               "deadline-ms", "fleet", "features"}));
  // A daemon that hangs (rather than dies) must not stall the client
  // forever: recv goes silent past this and raises a typed timeout.
  const auto deadline_ms = static_cast<std::uint64_t>(
      std::max<long long>(0, args.get_int_or("deadline-ms", 30000)));
  const bool fleet_mode = args.has("fleet");
  auto client = connect_query_client(args);
  client.set_recv_timeout_ms(deadline_ms);
  if (args.has("ping")) {
    client.send_ping(1);
    serve::Client::Reply reply;
    if (!client.read_reply(&reply) ||
        reply.type != util::FrameType::kPong) {
      throw std::runtime_error("query: no pong from daemon");
    }
    std::printf("pong\n");
    return 0;
  }

  const auto src = load_dataset(args);
  const auto& ds = src.ds();
  // The served model decides what it eats; the client only needs to
  // assemble the matching columns (darshan counters by default, the
  // windowed telemetry for burst classifiers).
  const auto feat_name = args.get_or("features", "darshan");
  std::vector<taxonomy::FeatureSet> feats;
  if (feat_name == "darshan") {
    feats = {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio};
  } else if (feat_name == "burst") {
    feats = {taxonomy::FeatureSet::kBurst};
  } else {
    throw std::invalid_argument("--features must be darshan or burst, got '" +
                                feat_name + "'");
  }
  std::vector<std::size_t> view_cols, view_rows;
  const auto x =
      taxonomy::feature_view(ds, feats, &view_cols, &view_rows);
  const auto model_index =
      static_cast<std::uint16_t>(args.get_int_or("model", 0));
  const bool want_dist = args.has("dist");
  const bool want_shadow = args.has("shadow") || args.has("shadow-out");
  const auto window = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int_or("pipeline", 32)));
  const auto repeats = std::max<long long>(1, args.get_int_or("repeat", 1));

  const std::size_t n = x.rows();
  std::vector<double> pred(n, 0.0);
  std::vector<double> shadow_pred;
  std::size_t n_shadowed = 0;
  if (want_shadow) shadow_pred.assign(n, 0.0);
  std::uint64_t busy_retries = 0;
  bool repeat_mismatch = false;
  std::vector<double> row_scratch;
  const auto send_row = [&](std::uint64_t id, std::size_t row) {
    serve::PredictRequest req;
    req.request_id = id;
    req.model_index = model_index;
    req.want_dist = want_dist;
    req.want_shadow = want_shadow;
    const auto src = x.row(row, row_scratch);
    req.features.assign(src.begin(), src.end());
    client.send_predict(req);
  };

  std::uint64_t reconnects = 0;
  for (long long rep = 0; rep < repeats; ++rep) {
    const std::uint64_t id_base =
        static_cast<std::uint64_t>(rep) * n + 1;
    std::map<std::uint64_t, std::size_t> inflight;  // id -> row
    std::size_t next = 0;
    std::size_t done = 0;
    std::size_t consecutive_failures = 0;
    // Fleet mode: the router may restart between loads; reconnect and
    // resend every outstanding request instead of giving up. Safe
    // because predictions are stateless and identified by request id.
    const auto reconnect_and_resend = [&](const std::string& why) {
      if (!fleet_mode) {
        throw std::runtime_error("query: " + why + " with " +
                                 std::to_string(n - done) +
                                 " response(s) outstanding");
      }
      if (++consecutive_failures > 8) {
        throw std::runtime_error(
            "query: giving up after 8 consecutive reconnect(s): " + why);
      }
      client.close();
      client = connect_query_client(args);
      client.set_recv_timeout_ms(deadline_ms);
      ++reconnects;
      for (const auto& [id, row] : inflight) send_row(id, row);
    };
    while (done < n) {
      while (next < n && inflight.size() < window) {
        send_row(id_base + next, next);
        inflight[id_base + next] = next;
        ++next;
      }
      serve::Client::Reply reply;
      bool have_reply = false;
      try {
        have_reply = client.read_reply(&reply);
      } catch (const serve::Client::Timeout&) {
        reconnect_and_resend("daemon silent past the deadline");
        continue;
      } catch (const std::runtime_error& e) {
        reconnect_and_resend(e.what());
        continue;
      }
      if (!have_reply) {
        reconnect_and_resend("daemon closed the connection");
        continue;
      }
      if (reply.type == util::FrameType::kPredictResponse) {
        consecutive_failures = 0;
        const auto it = inflight.find(reply.request_id);
        if (it == inflight.end()) {
          throw std::runtime_error("query: response for unknown request id " +
                                   std::to_string(reply.request_id));
        }
        if (reply.predict.values.empty()) {
          throw std::runtime_error("query: empty prediction payload");
        }
        const double value = reply.predict.values[0];
        if (want_shadow && rep == 0 && reply.predict.values.size() >= 2) {
          shadow_pred[it->second] = reply.predict.values[1];
          ++n_shadowed;
        }
        if (rep == 0) {
          pred[it->second] = value;
        } else if (pred[it->second] != value) {
          // The daemon is deterministic; any drift across repeats means
          // served state leaked between requests.
          repeat_mismatch = true;
        }
        inflight.erase(it);
        ++done;
      } else if (reply.type == util::FrameType::kErrorResponse &&
                 reply.error.status == serve::ServeStatus::kBusy) {
        const auto it = inflight.find(reply.request_id);
        if (it == inflight.end()) {
          throw std::runtime_error("query: BUSY for unknown request id");
        }
        ++busy_retries;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        send_row(it->first, it->second);
      } else if (reply.type == util::FrameType::kErrorResponse) {
        std::string what = std::string("query: daemon replied ") +
                           serve::serve_status_name(reply.error.status);
        if (reply.error.reason.has_value()) {
          what += std::string(" [") +
                  util::reason_name(*reply.error.reason) + "]";
        }
        if (!reply.error.detail.empty()) what += ": " + reply.error.detail;
        throw std::runtime_error(what);
      } else {
        throw std::runtime_error("query: unexpected reply frame");
      }
    }
  }

  const double err =
      ml::median_abs_log_error(taxonomy::targets(ds), pred);
  std::printf("served %zu prediction(s) over %lld pass(es) "
              "(%llu busy retried), error %.2f%% median |log10|\n",
              n, repeats, static_cast<unsigned long long>(busy_retries),
              ml::log_error_to_percent(err));
  if (fleet_mode) {
    std::printf("fleet client: %llu reconnect(s), 0 failed request(s)\n",
                static_cast<unsigned long long>(reconnects));
  }
  if (want_shadow) {
    std::printf("shadow answered %zu of %zu request(s)\n", n_shadowed, n);
  }
  if (repeat_mismatch) {
    std::fprintf(stderr,
                 "query: responses drifted across repeat passes "
                 "(daemon is not deterministic)\n");
    return 1;
  }
  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    if (!out) throw std::runtime_error("cannot open " + args.get("out"));
    out << "job_id,log10_pred\n";
    out.precision(17);
    for (std::size_t i = 0; i < n; ++i) {
      out << ds.meta[i].job_id << ',' << pred[i] << '\n';
    }
    std::printf("predictions written to %s\n", args.get("out").c_str());
  }
  if (args.has("shadow-out")) {
    if (n_shadowed != n) {
      throw std::runtime_error(
          "query: --shadow-out needs a shadow answer for every row, got " +
          std::to_string(n_shadowed) + " of " + std::to_string(n) +
          " (is the daemon running with --shadow?)");
    }
    // Same format as offline `predict --out`, so a bit-exact shadow is
    // verifiable with a plain byte compare against the candidate's
    // offline predictions.
    std::ofstream out(args.get("shadow-out"));
    if (!out) throw std::runtime_error("cannot open " + args.get("shadow-out"));
    out << "job_id,log10_pred\n";
    out.precision(17);
    for (std::size_t i = 0; i < n; ++i) {
      out << ds.meta[i].job_id << ',' << shadow_pred[i] << '\n';
    }
    std::printf("shadow predictions written to %s\n",
                args.get("shadow-out").c_str());
  }
  return 0;
}

int cmd_monitor(const cli::Args& args) {
  args.check_allowed(with_obs({"archive", "store", "model-file", "follow",
                               "poll-ms", "idle-secs", "window-jobs",
                               "reference-windows", "trigger", "min-jobs",
                               "extra-rounds", "candidate-out", "seed"}));
  auto model = ml::load_regressor_file(args.get("model-file"));

  taxonomy::OnlineMonitorParams mp;
  mp.window_jobs =
      static_cast<std::size_t>(args.get_int_or("window-jobs", 64));
  mp.reference_windows =
      static_cast<std::size_t>(args.get_int_or("reference-windows", 2));
  mp.error_ratio_trigger = args.get_double_or("trigger", 1.5);
  mp.min_jobs = static_cast<std::size_t>(args.get_int_or(
      "min-jobs",
      static_cast<long long>(std::min<std::size_t>(32, mp.window_jobs))));
  mp.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 41));
  taxonomy::OnlineMonitor monitor(mp);

  const bool follow = args.has("follow");
  const auto poll_ms = std::max<long long>(1, args.get_int_or("poll-ms", 100));
  const double idle_secs = args.get_double_or("idle-secs", 5.0);
  const auto extra_rounds =
      static_cast<std::size_t>(args.get_int_or("extra-rounds", 16));

  const std::vector<taxonomy::FeatureSet> feats = {
      taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio};
  const auto info = model->fit_continue_info();
  std::printf("monitor: %s from %s (%s warm-start, unit '%s'), "
              "window %zu job(s), trigger ratio %.2f\n",
              model->name().c_str(), args.get("model-file").c_str(),
              info.supported ? "supports" : "no", info.round_unit,
              mp.window_jobs, mp.error_ratio_trigger);
  std::fflush(stdout);

  // Rolling buffer of the most recent window_jobs observations: at
  // trigger time it holds exactly the triggering window's rows, which
  // is what the candidate warm-starts on (deterministic: same stream ->
  // same buffer -> same fit_continue RNG replay from the saved seed).
  std::deque<std::pair<std::vector<double>, double>> recent;
  util::QuarantineReport ingest_quarantine;
  bool retrained = false;
  std::size_t total_jobs = 0;
  auto last_data = std::chrono::steady_clock::now();

  const auto print_window = [](const taxonomy::WindowAttribution& w) {
    std::printf("monitor: window %zu [%s] n=%zu err=%.4f ratio=%.2f "
                "ood=%.2f noise=%.2f drift=%.2f\n",
                w.window_index, w.health.confidence.c_str(), w.n_jobs,
                w.median_abs_error, w.error_ratio, w.share_ood,
                w.share_noise, w.share_drift);
  };

  const auto handle_closed = [&](const taxonomy::WindowAttribution& w) {
    print_window(w);
    if (!w.triggered) return;
    std::printf("monitor: TRIGGER window %zu error ratio %.2f >= %.2f "
                "(drift share %.2f, ood share %.2f)\n",
                w.window_index, w.error_ratio, mp.error_ratio_trigger,
                w.share_drift, w.share_ood);
    std::fflush(stdout);
    if (retrained) return;  // one candidate per run
    if (!info.supported) {
      std::printf("monitor: %s does not support warm-start; no candidate\n",
                  model->name().c_str());
      return;
    }
    if (recent.size() < 2) return;
    data::Matrix rx(recent.size(), recent.front().first.size());
    std::vector<double> ry(recent.size());
    for (std::size_t r = 0; r < recent.size(); ++r) {
      auto row = rx.mutable_row(r);
      for (std::size_t c = 0; c < row.size(); ++c) {
        row[c] = recent[r].first[c];
      }
      ry[r] = recent[r].second;
    }
    model->fit_continue(rx, ry, extra_rounds);
    retrained = true;
    std::printf("monitor: warm-started %zu extra %s(s) on %zu job(s)\n",
                extra_rounds, info.round_unit, recent.size());
    if (args.has("candidate-out")) {
      std::ofstream out(args.get("candidate-out"));
      if (!out) {
        throw std::runtime_error("cannot open " + args.get("candidate-out"));
      }
      model->save(out);
      std::printf("monitor: candidate saved to %s\n",
                  args.get("candidate-out").c_str());
    }
    std::fflush(stdout);
  };

  util::QuarantineReport combined;
  if (args.has("store")) {
    // Replay the packed rows through the monitor in window-sized chunks
    // — same windows, same triggers as tailing the archive the store was
    // packed from, but reading mapped columns instead of re-parsing.
    auto outcome = data::ColumnStore::open(args.get("store"));
    if (!outcome.ok()) {
      throw std::runtime_error("cannot open store " + args.get("store") +
                               ": " + outcome.first_error());
    }
    const auto& sds = outcome.store->dataset();
    const std::size_t chunk = std::max<std::size_t>(1, mp.window_jobs);
    std::vector<double> scratch;
    for (std::size_t lo = 0; lo < sds.size(); lo += chunk) {
      const std::size_t hi = std::min(sds.size(), lo + chunk);
      std::vector<std::size_t> rows(hi - lo);
      for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = lo + i;
      std::vector<std::size_t> cs, rs;
      const auto x = taxonomy::feature_view(sds, feats, &cs, &rs, rows);
      const auto y = taxonomy::targets(sds, rows);
      const auto pred = model->predict(x);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto row = x.row(i, scratch);
        recent.emplace_back(std::vector<double>(row.begin(), row.end()),
                            y[i]);
        if (recent.size() > mp.window_jobs) recent.pop_front();
        ++total_jobs;
        const auto closed =
            monitor.observe(sds.meta[rows[i]].app_id, y[i], pred[i]);
        if (closed.has_value()) handle_closed(*closed);
      }
    }
  } else {
    sim::LogTailer tailer(args.get("archive"));
    while (true) {
      const auto records = tailer.poll();
      if (records.empty()) {
        if (!follow) break;
        const double idle = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - last_data)
                                .count();
        if (idle >= idle_secs) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
        continue;
      }
      last_data = std::chrono::steady_clock::now();
      auto step = sim::ingest_stream_records(records, nullptr, "monitor");
      ingest_quarantine.merge(step.quarantine);
      if (step.dataset.size() == 0) continue;
      const auto x = taxonomy::feature_matrix(step.dataset, feats);
      const auto y = taxonomy::targets(step.dataset);
      // Score with the *production* view of the model: after a retrain
      // the monitor keeps tracking what live serving would see until the
      // candidate is promoted, so windows stay comparable... except the
      // retrained model object IS the candidate. Score first, then
      // learn: predictions for this batch come from the pre-update
      // weights.
      const auto pred = model->predict(x);
      for (std::size_t i = 0; i < step.dataset.size(); ++i) {
        const auto row = x.row(i);
        recent.emplace_back(std::vector<double>(row.begin(), row.end()),
                            y[i]);
        if (recent.size() > mp.window_jobs) recent.pop_front();
        ++total_jobs;
        const auto closed =
            monitor.observe(step.dataset.meta[i].app_id, y[i], pred[i]);
        if (closed.has_value()) handle_closed(*closed);
      }
    }
    combined = tailer.quarantine();
  }
  if (const auto closed = monitor.flush()) handle_closed(*closed);

  combined.merge(ingest_quarantine);
  std::printf("monitor: %zu job(s) in %zu window(s), baseline %.4f, "
              "%s; %zu quarantined\n",
              total_jobs, monitor.windows().size(),
              monitor.baseline_error(),
              monitor.any_trigger() ? "TRIGGERED" : "no trigger",
              combined.total());
  if (!combined.empty()) std::fputs(combined.render().c_str(), stdout);
  return monitor.any_trigger() ? 3 : 0;
}

int cmd_promote(const cli::Args& args) {
  args.check_allowed(with_obs({"socket", "host", "port", "model",
                               "min-shadow", "rollback", "status",
                               "wait-secs"}));
  if (args.has("rollback") && args.has("status")) {
    throw std::invalid_argument(
        "promote: --rollback and --status are mutually exclusive");
  }
  auto client = connect_query_client(args);
  serve::ControlRequest req;
  req.request_id = 1;
  req.op = args.has("rollback") ? serve::ControlOp::kRollback
           : args.has("status") ? serve::ControlOp::kStatus
                                : serve::ControlOp::kPromote;
  req.model_index = static_cast<std::uint16_t>(args.get_int_or("model", 0));
  req.min_shadow_requests =
      static_cast<std::uint64_t>(args.get_int_or("min-shadow", 1));
  client.send_control(req);
  serve::Client::Reply reply;
  if (!client.read_reply(&reply) ||
      reply.type != util::FrameType::kControlResponse) {
    throw std::runtime_error("promote: no control response from daemon");
  }
  const auto& resp = reply.control;
  const char* verb = args.has("rollback") ? "rollback"
                     : args.has("status") ? "status"
                                          : "promote";
  std::printf("%s: %s; slot %u generation %llu: %s\n", verb,
              resp.ok ? "ok" : "refused", req.model_index,
              static_cast<unsigned long long>(resp.generation),
              resp.detail.c_str());
  std::printf("%s: shadow scored %llu request(s), %llu diverged "
              "(max |delta| %.17g)\n",
              verb, static_cast<unsigned long long>(resp.shadow_requests),
              static_cast<unsigned long long>(resp.shadow_diverged),
              resp.max_abs_divergence);
  return resp.ok ? 0 : 1;
}

int cmd_checkjson(const cli::Args& args) {
  args.check_allowed(with_obs({}));
  if (args.positional().empty()) {
    throw std::invalid_argument("checkjson: need at least one file");
  }
  int rc = 0;
  for (const auto& path : args.positional()) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "checkjson: cannot open %s\n", path.c_str());
      rc = 1;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      const auto doc = util::Json::parse(buf.str());
      std::string shape = "scalar";
      if (doc.is_object()) {
        shape = "object, " + std::to_string(doc.size()) + " keys";
      } else if (doc.is_array()) {
        shape = "array, " + std::to_string(doc.size()) + " items";
      }
      std::printf("%s: ok (%s)\n", path.c_str(), shape.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(), e.what());
      rc = 1;
    }
  }
  return rc;
}

/// Write the run's metrics / trace files when requested.
void write_obs_outputs(const cli::Args& args) {
  if (args.has("metrics-out")) {
    std::ofstream out(args.get("metrics-out"));
    if (!out) throw std::runtime_error("cannot open " + args.get("metrics-out"));
    obs::MetricsRegistry::global().write_json(out);
    std::fprintf(stderr, "metrics written to %s\n",
                 args.get("metrics-out").c_str());
  }
  if (args.has("trace-out")) {
    std::ofstream out(args.get("trace-out"));
    if (!out) throw std::runtime_error("cannot open " + args.get("trace-out"));
    obs::TraceLog::global().write_chrome_json(out);
    std::fprintf(stderr, "trace written to %s\n",
                 args.get("trace-out").c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    // Keep `kernels=` early in the line: the no-SIMD CI job greps it.
    std::string magics;
    for (const auto& m : ml::known_model_magics()) {
      if (!magics.empty()) magics += ',';
      magics += m;
    }
    std::printf("iotax 1 kernels=%s store=v%d models=%s\n",
                ml::kernels::describe().c_str(), data::kStoreFormatVersion,
                magics.c_str());
    return 0;
  }
  const cli::Args args(argc - 2, argv + 2);
  if (args.has("metrics-out") || args.has("trace-out")) {
    obs::set_enabled(true);
  }
  try {
    int rc = -1;
    if (command == "simulate") rc = cmd_simulate(args);
    else if (command == "parse") rc = cmd_parse(args);
    else if (command == "bound") rc = cmd_bound(args);
    else if (command == "noise") rc = cmd_noise(args);
    else if (command == "taxonomy") rc = cmd_taxonomy(args);
    else if (command == "importance") rc = cmd_importance(args);
    else if (command == "drift") rc = cmd_drift(args);
    else if (command == "train") rc = cmd_train(args);
    else if (command == "predict") rc = cmd_predict(args);
    else if (command == "burst") rc = cmd_burst(args);
    else if (command == "serve") rc = cmd_serve(args);
    else if (command == "fleet") rc = cmd_fleet(args);
    else if (command == "query") rc = cmd_query(args);
    else if (command == "monitor") rc = cmd_monitor(args);
    else if (command == "promote") rc = cmd_promote(args);
    else if (command == "pack") rc = cmd_pack(args);
    else if (command == "inject") rc = cmd_inject(args);
    else if (command == "audit") rc = cmd_audit(args);
    else if (command == "checkjson") rc = cmd_checkjson(args);
    if (rc < 0) {
      std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
      return usage();
    }
    write_obs_outputs(args);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iotax %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
