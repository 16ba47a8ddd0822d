// The online learning loop's contracts: Regressor v2 warm-start
// continuation (fit(N) + fit_continue(M) bit-identical to a cold
// fit(N+M) at any IOTAX_THREADS, for every family that supports it),
// the capability query that replaces dynamic_cast probing, registry
// generations under publish/rollback, the streaming log tailer, and the
// windowed drift monitor's taxonomy attribution.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/data/matrix.hpp"
#include "src/ml/checkpoint.hpp"
#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/linear.hpp"
#include "src/ml/model.hpp"
#include "src/ml/nn.hpp"
#include "src/ml/registry.hpp"
#include "src/sim/stream_ingest.hpp"
#include "src/taxonomy/online.hpp"
#include "src/telemetry/counters.hpp"
#include "src/telemetry/darshan_log.hpp"
#include "src/telemetry/io_signature.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

struct Xy {
  data::Matrix x{0, 0};
  std::vector<double> y;
};

Xy make_data(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Xy d;
  d.x = data::Matrix(n, 4);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 4; ++c) d.x(i, c) = rng.uniform(0.0, 4.0);
    d.y[i] = std::sin(d.x(i, 0)) + 0.25 * d.x(i, 1) * d.x(i, 2) +
             rng.normal(0.0, 0.05);
  }
  return d;
}

void expect_bit_identical(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    EXPECT_EQ(ba, bb) << "row " << i;
  }
}

/// Run `body` once with IOTAX_THREADS=1 and once =4, restoring the
/// variable afterwards — warm-start equivalence must hold at both.
template <typename Fn>
void for_each_thread_count(Fn body) {
  const char* old = std::getenv("IOTAX_THREADS");
  const std::string saved = old != nullptr ? old : "";
  for (const char* threads : {"1", "4"}) {
    ::setenv("IOTAX_THREADS", threads, 1);
    body(threads);
  }
  if (!saved.empty()) {
    ::setenv("IOTAX_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("IOTAX_THREADS");
  }
}

// -- capability queries ------------------------------------------------------

TEST(FitContinue, CapabilityQueryCoversEveryFamily) {
  ml::MeanRegressor mean;
  EXPECT_FALSE(mean.fit_continue_info().supported);
  EXPECT_STREQ(mean.fit_continue_info().round_unit, "");

  ml::LinearRegressor linear;
  EXPECT_FALSE(linear.fit_continue_info().supported);

  ml::GradientBoostedTrees gbt;
  EXPECT_TRUE(gbt.fit_continue_info().supported);
  EXPECT_STREQ(gbt.fit_continue_info().round_unit, "tree");

  ml::Mlp mlp;
  EXPECT_TRUE(mlp.fit_continue_info().supported);
  EXPECT_STREQ(mlp.fit_continue_info().round_unit, "epoch");

  ml::DeepEnsemble ensemble;
  EXPECT_TRUE(ensemble.fit_continue_info().supported);
  EXPECT_STREQ(ensemble.fit_continue_info().round_unit, "epoch");
}

TEST(FitContinue, UnsupportedFamiliesThrowNamingThemselves) {
  const auto d = make_data(32, 1);
  ml::MeanRegressor mean;
  mean.fit(d.x, d.y);
  try {
    mean.fit_continue(d.x, d.y, 1);
    FAIL() << "mean fit_continue must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("mean"), std::string::npos)
        << e.what();
  }
  ml::LinearRegressor linear;
  linear.fit(d.x, d.y);
  EXPECT_THROW(linear.fit_continue(d.x, d.y, 1), std::logic_error);
}

// -- warm == cold, bit for bit ----------------------------------------------

TEST(FitContinue, GbtWarmEqualsColdAcrossThreadCounts) {
  const auto train = make_data(300, 2);
  const auto probe = make_data(50, 3);
  ml::GbtParams base;
  base.n_estimators = 10;
  base.max_depth = 4;
  base.subsample = 0.8;  // exercises the RNG replay, the hard part
  base.colsample = 0.75;
  base.seed = 99;
  for_each_thread_count([&](const char* threads) {
    auto cold_params = base;
    cold_params.n_estimators = 16;
    ml::GradientBoostedTrees cold(cold_params);
    cold.fit(train.x, train.y);

    ml::GradientBoostedTrees warm(base);
    warm.fit(train.x, train.y);
    warm.fit_continue(train.x, train.y, 6);

    SCOPED_TRACE(std::string("IOTAX_THREADS=") + threads);
    expect_bit_identical(warm.predict(probe.x), cold.predict(probe.x));

    // The continued checkpoint is indistinguishable from the cold one.
    std::ostringstream cold_save, warm_save;
    cold.save(cold_save);
    warm.save(warm_save);
    EXPECT_EQ(warm_save.str(), cold_save.str());
  });
}

TEST(FitContinue, GbtContinuesFromLoadedCheckpoint) {
  const auto train = make_data(300, 2);
  const auto probe = make_data(50, 3);
  ml::GbtParams base;
  base.n_estimators = 10;
  base.max_depth = 4;
  base.subsample = 0.8;
  base.seed = 99;
  ml::GradientBoostedTrees first(base);
  first.fit(train.x, train.y);
  std::stringstream ckpt;
  first.save(ckpt);
  auto loaded = ml::Regressor::load(ckpt);

  auto cold_params = base;
  cold_params.n_estimators = 14;
  ml::GradientBoostedTrees cold(cold_params);
  cold.fit(train.x, train.y);

  // GBT continuation is stateless (re-bin + replay), so it works on a
  // checkpoint loaded in a fresh process just as well as in-memory.
  loaded->fit_continue(train.x, train.y, 4);
  expect_bit_identical(loaded->predict(probe.x), cold.predict(probe.x));
}

TEST(FitContinue, MlpWarmEqualsColdWithDropout) {
  const auto train = make_data(200, 4);
  const auto probe = make_data(40, 5);
  ml::MlpParams base;
  base.hidden = {16, 16};
  base.epochs = 6;
  base.dropout = 0.2;  // dropout RNG stream must resume exactly
  base.batch_size = 32;
  base.seed = 7;
  for_each_thread_count([&](const char* threads) {
    auto cold_params = base;
    cold_params.epochs = 10;
    ml::Mlp cold(cold_params);
    cold.fit(train.x, train.y);

    ml::Mlp warm(base);
    warm.fit(train.x, train.y);
    warm.fit_continue(train.x, train.y, 4);

    SCOPED_TRACE(std::string("IOTAX_THREADS=") + threads);
    expect_bit_identical(warm.predict(probe.x), cold.predict(probe.x));

    std::ostringstream cold_save, warm_save;
    cold.save(cold_save);
    warm.save(warm_save);
    EXPECT_EQ(warm_save.str(), cold_save.str());
  });
}

TEST(FitContinue, MlpLoadedCheckpointRefusesToContinue) {
  const auto train = make_data(100, 4);
  ml::MlpParams params;
  params.hidden = {8};
  params.epochs = 2;
  ml::Mlp mlp(params);
  mlp.fit(train.x, train.y);
  std::stringstream ckpt;
  mlp.save(ckpt);
  auto loaded = ml::Regressor::load(ckpt);
  // Checkpoints do not serialize Adam moments; pretending to resume
  // would silently break the bit-exactness contract, so it throws.
  EXPECT_THROW(loaded->fit_continue(train.x, train.y, 1), std::logic_error);
}

TEST(FitContinue, EnsembleWarmEqualsCold) {
  const auto train = make_data(150, 6);
  const auto probe = make_data(30, 7);
  ml::EnsembleParams base;
  base.size = 2;
  base.epochs = 4;
  base.space.widths = {8, 16};
  base.seed = 5;
  auto cold_params = base;
  cold_params.epochs = 7;
  ml::DeepEnsemble cold(cold_params);
  cold.fit(train.x, train.y);

  ml::DeepEnsemble warm(base);
  warm.fit(train.x, train.y);
  warm.fit_continue(train.x, train.y, 3);

  expect_bit_identical(warm.predict(probe.x), cold.predict(probe.x));
  const auto cold_unc = cold.predict_uncertainty(probe.x);
  const auto warm_unc = warm.predict_uncertainty(probe.x);
  expect_bit_identical(warm_unc.epistemic, cold_unc.epistemic);
}

// -- registry generations ----------------------------------------------------

std::string save_checkpoint(const Xy& d, std::size_t n_estimators,
                            const char* tag) {
  ml::GbtParams p;
  p.n_estimators = n_estimators;
  p.max_depth = 3;
  ml::GradientBoostedTrees model(p);
  model.fit(d.x, d.y);
  const auto path =
      ::testing::TempDir() + "online_loop_registry_" + tag + ".gbt";
  std::ofstream out(path);
  EXPECT_TRUE(out.is_open());
  model.save(out);
  return path;
}

TEST(ModelRegistry, GenerationsAdvanceThroughPublishAndRollback) {
  const auto d = make_data(120, 8);
  const auto path_a = save_checkpoint(d, 6, "a");
  const auto path_b = save_checkpoint(d, 9, "b");

  ml::ModelRegistry registry;
  ASSERT_EQ(registry.add(path_a), 0u);
  auto e1 = registry.entry(0);
  EXPECT_EQ(e1->generation, 1u);
  EXPECT_EQ(e1->source, path_a);
  EXPECT_EQ(e1->params_hash, ml::hash_model_file(path_a));

  // A slot that has never been re-published cannot roll back.
  EXPECT_THROW(registry.rollback(0), std::runtime_error);

  auto candidate = std::shared_ptr<const ml::Regressor>(
      ml::load_regressor_file(path_b));
  const auto gen2 =
      registry.publish(0, candidate, path_b, ml::hash_model_file(path_b));
  EXPECT_EQ(gen2, 2u);
  auto e2 = registry.entry(0);
  EXPECT_EQ(e2->generation, 2u);
  EXPECT_EQ(e2->source, path_b);
  EXPECT_EQ(e2->model, candidate);
  // The displaced entry's snapshot is unaffected by the publish.
  EXPECT_EQ(e1->generation, 1u);
  EXPECT_EQ(e1->source, path_a);

  // Rollback restores the previous publication under a FRESH generation
  // — generations never repeat, so clients can always detect the swap.
  auto e3 = registry.rollback(0);
  EXPECT_EQ(e3->generation, 3u);
  EXPECT_EQ(e3->source, path_a);
  EXPECT_EQ(e3->model, e1->model);
  // Rolling back again toggles to the candidate, one generation later.
  auto e4 = registry.rollback(0);
  EXPECT_EQ(e4->generation, 4u);
  EXPECT_EQ(e4->source, path_b);
  EXPECT_EQ(e4->model, candidate);
}

TEST(ModelRegistry, LoadFailureNamesSlotGenerationAndHash) {
  const auto path = ::testing::TempDir() + "online_loop_registry_bad.gbt";
  {
    std::ofstream out(path);
    out << "not a checkpoint\n";
  }
  ml::ModelRegistry registry;
  try {
    registry.add(path);
    FAIL() << "bad checkpoint must be rejected";
  } catch (const ml::CheckpointError& e) {
    // The slot suffix keeps the loader's error type and reason.
    EXPECT_EQ(e.reason(), util::Reason::kBadMagic);
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("registry slot 0"), std::string::npos) << what;
    EXPECT_NE(what.find("generation 1"), std::string::npos) << what;
    EXPECT_NE(what.find(ml::format_params_hash(ml::hash_model_file(path))),
              std::string::npos)
        << what;
  }
  std::remove(path.c_str());
}

TEST(ModelRegistry, ParamsHashIsContentAddressed) {
  const auto path = ::testing::TempDir() + "online_loop_registry_hash.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "iotax";
  }
  const auto h1 = ml::hash_model_file(path);
  EXPECT_EQ(ml::hash_model_file(path), h1);  // deterministic
  {
    std::ofstream out(path, std::ios::binary);
    out << "iotax!";
  }
  EXPECT_NE(ml::hash_model_file(path), h1);  // content-addressed
  const auto rendered = ml::format_params_hash(h1);
  EXPECT_EQ(rendered.size(), 18u);  // "0x" + 16 hex digits
  EXPECT_EQ(rendered.substr(0, 2), "0x");
  std::remove(path.c_str());
  EXPECT_THROW(ml::hash_model_file(path), std::runtime_error);
}

// -- streaming ingest --------------------------------------------------------

telemetry::JobLogRecord stream_record(std::uint64_t job_id,
                                      std::uint64_t app_id) {
  telemetry::IoSignature sig;
  sig.bytes_read = 2.0 * (1 << 30);
  sig.bytes_written = 1.0 * (1 << 30);
  sig.n_procs = 32;
  sig.read_size_frac[5] = 1.0;
  sig.write_size_frac[4] = 1.0;
  sig.seq_read_frac = 0.8;
  sig.seq_write_frac = 0.9;
  sig.files_total = 4.0;
  sig.files_readonly_frac = 0.5;
  sig.files_writeonly_frac = 0.5;
  sig.opens_per_file = 1.0;

  telemetry::JobLogRecord rec;
  rec.job_id = job_id;
  rec.app_id = app_id;
  rec.config_id = 1;
  rec.n_procs = 32;
  rec.nodes = 8;
  rec.start_time = 1000.0 + static_cast<double>(job_id);
  rec.end_time = rec.start_time + 120.0;
  rec.placement_spread = 0.25;
  rec.agg_perf_mib = 800.0;
  rec.posix = telemetry::compute_posix_counters(sig);
  rec.mpiio = telemetry::compute_mpiio_counters(sig);
  return rec;
}

TEST(LogTailer, BuffersPartialRecordsAcrossPolls) {
  const auto path = ::testing::TempDir() + "online_loop_tail.darshan";
  std::remove(path.c_str());

  sim::LogTailer tailer(path);
  EXPECT_TRUE(tailer.poll().empty());  // missing file: nothing appended

  std::ostringstream rec1;
  telemetry::write_record(rec1, stream_record(1, 10));
  const std::string bytes = rec1.str();

  {  // First half of a record: nothing completes, bytes stay buffered.
    std::ofstream out(path, std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_TRUE(tailer.poll().empty());
  EXPECT_EQ(tailer.pending_bytes(), bytes.size() / 2);
  EXPECT_EQ(tailer.bytes_read(), bytes.size() / 2);

  {  // The rest arrives: the record completes.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << bytes.substr(bytes.size() / 2);
  }
  auto records = tailer.poll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].job_id, 1u);
  EXPECT_EQ(records[0].app_id, 10u);
  EXPECT_EQ(tailer.pending_bytes(), 0u);
  EXPECT_EQ(tailer.bytes_read(), bytes.size());

  // Nothing new appended: an idle poll is empty, not a re-read.
  EXPECT_TRUE(tailer.poll().empty());

  {  // Two more records in one append, plus a corrupt one in between.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    telemetry::write_record(out, stream_record(2, 10));
    out << "# stray end outside any record\n# end_of_record\n";
    telemetry::write_record(out, stream_record(3, 11));
  }
  records = tailer.poll();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].job_id, 2u);
  EXPECT_EQ(records[1].job_id, 3u);
  EXPECT_GE(tailer.quarantine().total(), 1u);  // the stray terminator
  std::remove(path.c_str());
}

TEST(LogTailer, StreamRecordsBecomeDatasetRows) {
  std::vector<telemetry::JobLogRecord> records = {stream_record(1, 10),
                                                  stream_record(2, 11)};
  const auto step =
      sim::ingest_stream_records(records, nullptr, "online-test");
  EXPECT_EQ(step.dataset.size(), 2u);
  EXPECT_EQ(step.kept_records.size(), 2u);
  EXPECT_EQ(step.quarantine.total(), 0u);

  const auto empty = sim::ingest_stream_records({}, nullptr, "online-test");
  EXPECT_EQ(empty.dataset.size(), 0u);
}

// -- drift monitor -----------------------------------------------------------

TEST(OnlineMonitor, ValidatesParamsAndObservations) {
  taxonomy::OnlineMonitorParams bad;
  bad.window_jobs = 0;
  EXPECT_THROW(taxonomy::OnlineMonitor{bad}, std::invalid_argument);
  taxonomy::OnlineMonitorParams params;
  params.window_jobs = 4;
  taxonomy::OnlineMonitor monitor(params);
  EXPECT_THROW(monitor.observe(1, std::nan(""), 0.0), std::invalid_argument);
}

TEST(OnlineMonitor, AttributesWindowErrorToTaxonomyClasses) {
  taxonomy::OnlineMonitorParams params;
  params.window_jobs = 4;
  params.reference_windows = 1;
  params.min_jobs = 4;
  params.error_ratio_trigger = 1.5;
  taxonomy::OnlineMonitor monitor(params);

  // Reference window: app 1, |error| 0.25 per job -> baseline 0.25
  // (exactly representable, so the attribution arithmetic below is
  // exact). Its attribution is explicitly unusable ("none" confidence).
  for (int i = 0; i < 4; ++i) {
    auto w = monitor.observe(1, 1.0, 1.25);
    if (i < 3) {
      EXPECT_FALSE(w.has_value());
    } else {
      ASSERT_TRUE(w.has_value());
      EXPECT_TRUE(w->reference);
      EXPECT_EQ(w->health.confidence, "none");
      EXPECT_FALSE(w->triggered);
    }
  }
  ASSERT_TRUE(monitor.reference_ready());
  EXPECT_DOUBLE_EQ(monitor.baseline_error(), 0.25);

  // Live window: two OoD jobs (app 2, unseen in the reference) carrying
  // 0.75 each, one in-dist job at the floor (0.25), one in-dist job at
  // 0.75 (0.25 noise + 0.5 drift excess). Total error 2.5: shares are
  // 1.5/2.5, 0.5/2.5, 0.5/2.5 — all exact.
  monitor.observe(2, 2.0, 2.75);
  monitor.observe(2, 2.0, 1.25);
  monitor.observe(1, 1.0, 1.25);
  auto w = monitor.observe(1, 1.0, 0.25);
  ASSERT_TRUE(w.has_value());
  EXPECT_FALSE(w->reference);
  EXPECT_EQ(w->health.confidence, "full");
  EXPECT_DOUBLE_EQ(w->share_ood, 0.6);
  EXPECT_DOUBLE_EQ(w->share_noise, 0.2);
  EXPECT_DOUBLE_EQ(w->share_drift, 0.2);
  // Median |error| of {0.75, 0.75, 0.25, 0.75} is 0.75: ratio 3 >= 1.5.
  EXPECT_DOUBLE_EQ(w->median_abs_error, 0.75);
  EXPECT_DOUBLE_EQ(w->error_ratio, 3.0);
  EXPECT_TRUE(w->triggered);
  EXPECT_TRUE(monitor.any_trigger());
}

TEST(OnlineMonitor, QuietStreamNeverTriggersAndPartialWindowsDegrade) {
  taxonomy::OnlineMonitorParams params;
  params.window_jobs = 4;
  params.reference_windows = 1;
  params.min_jobs = 4;
  taxonomy::OnlineMonitor monitor(params);
  for (int i = 0; i < 4; ++i) monitor.observe(1, 1.0, 1.1);  // reference
  for (int i = 0; i < 4; ++i) monitor.observe(1, 1.0, 1.08);  // quiet
  EXPECT_FALSE(monitor.any_trigger());

  // A flushed partial window reports reduced confidence and cannot
  // trigger, no matter how bad its (under-sampled) numbers look.
  monitor.observe(1, 1.0, 9.0);
  auto w = monitor.flush();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->n_jobs, 1u);
  EXPECT_EQ(w->health.confidence, "reduced");
  EXPECT_TRUE(w->health.degraded);
  EXPECT_GT(w->error_ratio, params.error_ratio_trigger);
  EXPECT_FALSE(w->triggered);
  EXPECT_FALSE(monitor.flush().has_value());  // nothing pending
}

TEST(OnlineMonitor, IsAPureFunctionOfTheObservationStream) {
  taxonomy::OnlineMonitorParams params;
  params.window_jobs = 8;
  params.reference_windows = 2;
  params.min_jobs = 8;
  taxonomy::OnlineMonitor a(params), b(params);
  util::Rng rng(13);
  for (int i = 0; i < 64; ++i) {
    const auto app = static_cast<std::uint64_t>(rng.uniform(0.0, 5.0));
    const double y = rng.uniform(0.0, 3.0);
    const double pred = y + rng.normal(0.0, 0.2);
    a.observe(app, y, pred);
    b.observe(app, y, pred);
  }
  a.flush();
  b.flush();
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    const auto& wa = a.windows()[i];
    const auto& wb = b.windows()[i];
    EXPECT_EQ(wa.n_jobs, wb.n_jobs);
    EXPECT_EQ(wa.triggered, wb.triggered);
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &wa.median_abs_error, sizeof(ba));
    std::memcpy(&bb, &wb.median_abs_error, sizeof(bb));
    EXPECT_EQ(ba, bb) << "window " << i;
  }
}

}  // namespace
}  // namespace iotax
