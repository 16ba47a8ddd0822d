#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <unordered_map>

#include "src/sim/app_model.hpp"
#include "src/sim/contention.hpp"
#include "src/sim/lmt_gen.hpp"
#include "src/sim/platform.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/weather.hpp"
#include "src/sim/workload.hpp"
#include "src/stats/descriptive.hpp"

namespace iotax {
namespace {

TEST(Platform, PresetsValidate) {
  EXPECT_NO_THROW(sim::theta_platform().validate());
  EXPECT_NO_THROW(sim::cori_platform().validate());
  EXPECT_FALSE(sim::theta_platform().lmt_enabled);
  EXPECT_TRUE(sim::cori_platform().lmt_enabled);
}

TEST(Platform, RejectsBadConfig) {
  auto p = sim::theta_platform();
  p.peak_bandwidth_mib = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

telemetry::IoSignature basic_signature() {
  telemetry::IoSignature sig;
  sig.bytes_read = 1e10;
  sig.bytes_written = 1e10;
  sig.n_procs = 256;
  sig.read_size_frac[6] = 1.0;
  sig.write_size_frac[6] = 1.0;
  sig.seq_read_frac = 0.9;
  sig.seq_write_frac = 0.9;
  return sig;
}

TEST(AppModel, IdealThroughputIsDeterministic) {
  const auto p = sim::theta_platform();
  const auto sig = basic_signature();
  EXPECT_DOUBLE_EQ(sim::ideal_log_throughput(sig, p),
                   sim::ideal_log_throughput(sig, p));
}

TEST(AppModel, LargerAccessesAreFaster) {
  const auto p = sim::theta_platform();
  auto large = basic_signature();
  auto small = basic_signature();
  small.read_size_frac = {};
  small.read_size_frac[1] = 1.0;
  small.write_size_frac = {};
  small.write_size_frac[1] = 1.0;
  EXPECT_GT(sim::ideal_log_throughput(large, p),
            sim::ideal_log_throughput(small, p) + 0.5);
}

TEST(AppModel, SequentialBeatsRandom) {
  const auto p = sim::theta_platform();
  auto seq = basic_signature();
  auto rnd = basic_signature();
  rnd.seq_read_frac = 0.0;
  rnd.seq_write_frac = 0.0;
  EXPECT_GT(sim::ideal_log_throughput(seq, p),
            sim::ideal_log_throughput(rnd, p));
}

TEST(AppModel, MoreProcsMoreBandwidthUntilSaturation) {
  const auto p = sim::theta_platform();
  auto few = basic_signature();
  few.n_procs = 4;
  auto many = basic_signature();
  many.n_procs = 512;
  auto huge = basic_signature();
  huge.n_procs = 200000;
  const double t_few = sim::ideal_log_throughput(few, p);
  const double t_many = sim::ideal_log_throughput(many, p);
  const double t_huge = sim::ideal_log_throughput(huge, p);
  EXPECT_GT(t_many, t_few + 0.5);
  // Saturation: going from 512 procs to 200k gains far less than 4->512.
  EXPECT_LT(t_huge - t_many, (t_many - t_few) / 2.0);
}

TEST(AppModel, SharedFilesHurtAtScale) {
  const auto p = sim::theta_platform();
  auto priv = basic_signature();
  auto shared = basic_signature();
  shared.files_shared_frac = 1.0;
  EXPECT_GT(sim::ideal_log_throughput(priv, p),
            sim::ideal_log_throughput(shared, p) + 0.1);
}

TEST(AppModel, CollectiveIoRescuesSmallAccesses) {
  const auto p = sim::theta_platform();
  auto indep = basic_signature();
  indep.read_size_frac = {};
  indep.read_size_frac[1] = 1.0;
  indep.write_size_frac = {};
  indep.write_size_frac[1] = 1.0;
  auto coll = indep;
  coll.uses_mpiio = true;
  coll.coll_frac = 1.0;
  EXPECT_GT(sim::ideal_log_throughput(coll, p),
            sim::ideal_log_throughput(indep, p) + 0.2);
}

TEST(AppModel, CatalogIsDeterministic) {
  const auto p = sim::theta_platform();
  sim::CatalogParams params;
  params.n_apps = 20;
  util::Rng a(5);
  util::Rng b(5);
  const auto cat1 = sim::generate_catalog(params, p, a);
  const auto cat2 = sim::generate_catalog(params, p, b);
  ASSERT_EQ(cat1.size(), cat2.size());
  for (std::size_t i = 0; i < cat1.size(); ++i) {
    ASSERT_EQ(cat1[i].configs.size(), cat2[i].configs.size());
    for (std::size_t c = 0; c < cat1[i].configs.size(); ++c) {
      EXPECT_EQ(cat1[i].configs[c].signature.content_hash(),
                cat2[i].configs[c].signature.content_hash());
    }
  }
}

TEST(AppModel, CatalogHasBenchmarkAndNovelApps) {
  const auto p = sim::theta_platform();
  sim::CatalogParams params;
  params.n_apps = 50;
  params.novel_app_frac = 0.2;
  params.novel_after = 1000.0;
  params.horizon = 2000.0;
  util::Rng rng(6);
  const auto cat = sim::generate_catalog(params, p, rng);
  ASSERT_EQ(cat.size(), 50u);
  EXPECT_EQ(cat[0].name, "iobench");
  EXPECT_DOUBLE_EQ(cat[0].popularity, 0.0);
  std::size_t novel = 0;
  for (const auto& app : cat) {
    if (app.introduced_at > 1000.0) ++novel;
    for (const auto& cfg : app.configs) {
      EXPECT_NO_THROW(cfg.signature.validate());
      EXPECT_GE(cfg.nodes, 1u);
    }
  }
  EXPECT_EQ(novel, 10u);
}

TEST(Weather, OffsetIsDeterministicAndBounded) {
  sim::WeatherParams params;
  params.horizon = 86400.0 * 100;
  util::Rng rng(7);
  const sim::GlobalWeather w(params, rng);
  for (double t = 0; t < params.horizon; t += 86400.0 * 3) {
    const double o1 = w.log_offset(t);
    const double o2 = w.log_offset(t);
    EXPECT_DOUBLE_EQ(o1, o2);
    EXPECT_LT(std::fabs(o1), 0.8);
  }
}

TEST(Weather, DegradationsLowerThroughput) {
  sim::WeatherParams params;
  params.horizon = 86400.0 * 365;
  params.degradations_per_year = 20.0;
  params.epoch_offset_sigma = 0.0001;
  params.seasonal_amplitude = 0.0;
  util::Rng rng(8);
  const sim::GlobalWeather w(params, rng);
  ASSERT_FALSE(w.degradations().empty());
  const auto& d = w.degradations().front();
  const double mid = d.start + d.duration / 2.0;
  // During a (long enough) degradation the offset should dip clearly.
  if (d.duration > 6.0 * d.ramp) {
    EXPECT_LT(w.log_offset(mid), -0.5 * d.severity);
  }
}

TEST(Weather, EpochsCreateStepChanges) {
  sim::WeatherParams params;
  params.horizon = 86400.0 * 365;
  params.degradations_per_year = 0.0;
  params.seasonal_amplitude = 0.0;
  params.n_epochs = 2;
  params.epoch_offset_sigma = 0.05;
  util::Rng rng(9);
  const sim::GlobalWeather w(params, rng);
  ASSERT_EQ(w.epoch_boundaries().size(), 1u);
  const double b = w.epoch_boundaries()[0];
  EXPECT_NE(w.log_offset(b - 10.0), w.log_offset(b + 10.0));
}

TEST(Contention, LoadTimelineAccumulates) {
  sim::LoadTimeline load(1000.0, 100.0);
  load.add_demand(0.0, 500.0, 50.0, 100.0);   // 0.5 of peak
  load.add_demand(250.0, 500.0, 50.0, 100.0); // overlaps second half
  EXPECT_NEAR(load.load_at(100.0), 0.5, 1e-12);
  EXPECT_NEAR(load.load_at(400.0), 1.0, 1e-12);
  EXPECT_NEAR(load.load_at(600.0), 0.5, 1e-12);
  EXPECT_NEAR(load.load_at(900.0), 0.0, 1e-12);
}

TEST(Contention, MeanLoadOverWindow) {
  sim::LoadTimeline load(1000.0, 100.0);
  load.add_demand(0.0, 1000.0, 100.0, 100.0);
  EXPECT_NEAR(load.mean_load(0.0, 999.0), 1.0, 1e-12);
}

TEST(Contention, ImpactIsMonotoneInLoadAndSensitivity) {
  const auto p = sim::theta_platform();
  const double light = sim::contention_log_impact(0.1, 1.0, 0.5, p);
  const double heavy = sim::contention_log_impact(1.5, 1.0, 0.5, p);
  EXPECT_LT(heavy, light);
  EXPECT_LE(light, 0.0);
  const double sensitive = sim::contention_log_impact(1.0, 2.0, 0.5, p);
  const double tolerant = sim::contention_log_impact(1.0, 0.5, 0.5, p);
  EXPECT_LT(sensitive, tolerant);
}

TEST(Contention, WiderPlacementHurtsMore) {
  const auto p = sim::theta_platform();
  const double tight = sim::contention_log_impact(1.0, 1.0, 0.0, p);
  const double wide = sim::contention_log_impact(1.0, 1.0, 1.0, p);
  EXPECT_LT(wide, tight);
  EXPECT_LT(tight, 0.0);
}

TEST(Contention, NegativeLoadTreatedAsZero) {
  const auto p = sim::theta_platform();
  EXPECT_DOUBLE_EQ(sim::contention_log_impact(-1.0, 1.0, 0.5, p), 0.0);
}

TEST(Workload, GeneratesRequestedJobsSorted) {
  const auto p = sim::theta_platform();
  sim::CatalogParams cp;
  cp.n_apps = 20;
  util::Rng crng(10);
  const auto cat = sim::generate_catalog(cp, p, crng);
  sim::WorkloadParams wp;
  wp.n_jobs = 2000;
  wp.horizon = 86400.0 * 90;
  util::Rng wrng(11);
  const auto jobs = sim::generate_workload(wp, cat, p, wrng);
  EXPECT_GE(jobs.size(), 2000u);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_LE(jobs[i - 1].start_time, jobs[i].start_time);
  }
  for (const auto& j : jobs) {
    EXPECT_GT(j.duration, 0.0);
    EXPECT_GE(j.start_time, 0.0);
    EXPECT_LE(j.start_time, wp.horizon + 1.0);
  }
}

TEST(Workload, NovelAppsNeverRunBeforeIntroduction) {
  const auto p = sim::theta_platform();
  sim::CatalogParams cp;
  cp.n_apps = 30;
  cp.novel_app_frac = 0.3;
  cp.novel_after = 86400.0 * 45;
  cp.horizon = 86400.0 * 90;
  util::Rng crng(12);
  const auto cat = sim::generate_catalog(cp, p, crng);
  sim::WorkloadParams wp;
  wp.n_jobs = 3000;
  wp.horizon = 86400.0 * 90;
  util::Rng wrng(13);
  const auto jobs = sim::generate_workload(wp, cat, p, wrng);
  std::unordered_map<std::uint64_t, double> intro;
  for (const auto& app : cat) intro[app.app_id] = app.introduced_at;
  for (const auto& j : jobs) {
    EXPECT_GE(j.start_time, intro.at(j.app_id));
  }
}

TEST(Workload, BatchMembersShareConfigAndTime) {
  const auto p = sim::theta_platform();
  sim::CatalogParams cp;
  cp.n_apps = 10;
  util::Rng crng(14);
  const auto cat = sim::generate_catalog(cp, p, crng);
  sim::WorkloadParams wp;
  wp.n_jobs = 3000;
  wp.horizon = 86400.0 * 90;
  wp.batch_prob = 0.5;
  util::Rng wrng(15);
  const auto jobs = sim::generate_workload(wp, cat, p, wrng);
  // Group by config_uid; members of one group must share app and
  // signature hash, and batches must start within a second.
  std::map<std::uint64_t, std::vector<const sim::PlannedJob*>> groups;
  for (const auto& j : jobs) groups[j.config_uid].push_back(&j);
  std::size_t multi = 0;
  for (const auto& [uid, members] : groups) {
    if (members.size() < 2) continue;
    ++multi;
    for (const auto* m : members) {
      EXPECT_EQ(m->app_id, members[0]->app_id);
      EXPECT_EQ(m->config.signature.content_hash(),
                members[0]->config.signature.content_hash());
    }
  }
  EXPECT_GT(multi, 50u);
}

TEST(LmtGen, SignalsTrackLoadAndWeather) {
  const auto p = sim::cori_platform();
  sim::LoadTimeline load(86400.0 * 10, 900.0);
  load.add_demand(86400.0 * 2, 86400.0 * 2, 0.8 * p.peak_bandwidth_mib,
                  p.peak_bandwidth_mib);
  sim::WeatherParams wparams;
  wparams.horizon = 86400.0 * 10;
  wparams.degradations_per_year = 0.0;
  wparams.epoch_offset_sigma = 1e-6;
  wparams.seasonal_amplitude = 0.0;
  util::Rng wrng(16);
  const sim::GlobalWeather weather(wparams, wrng);
  util::Rng lrng(17);
  const auto tl =
      sim::generate_lmt_timeline(load, weather, p, 86400.0 * 10, lrng);
  EXPECT_GT(tl.size(), 1000u);
  // CPU and transfer rates higher inside the loaded window than outside.
  const auto busy = tl.aggregate(86400.0 * 2.5, 86400.0 * 3.5);
  const auto idle = tl.aggregate(86400.0 * 7.0, 86400.0 * 8.0);
  const auto& names = telemetry::lmt_feature_names();
  const auto idx = [&names](const std::string& n) {
    return static_cast<std::size_t>(
        std::find(names.begin(), names.end(), n) - names.begin());
  };
  EXPECT_GT(busy[idx("LMT_OSS_CPU_MEAN")], idle[idx("LMT_OSS_CPU_MEAN")]);
  EXPECT_GT(busy[idx("LMT_OST_READ_RATE_MEAN")] +
                busy[idx("LMT_OST_WRITE_RATE_MEAN")],
            idle[idx("LMT_OST_READ_RATE_MEAN")] +
                idle[idx("LMT_OST_WRITE_RATE_MEAN")]);
}

class SimulatorTest : public ::testing::Test {
 protected:
  static const sim::SimulationResult& result() {
    static const sim::SimulationResult res =
        sim::simulate(sim::tiny_system(3));
    return res;
  }
};

TEST_F(SimulatorTest, ProducesConsistentDataset) {
  const auto& res = result();
  EXPECT_GE(res.dataset.size(), 1500u);
  EXPECT_NO_THROW(res.dataset.validate());
  EXPECT_EQ(res.dataset.size(), res.records.size());
  EXPECT_EQ(res.dataset.size(), res.truth.size());
}

TEST_F(SimulatorTest, FeatureColumnsIncludeLmtWhenEnabled) {
  const auto& res = result();
  EXPECT_EQ(res.dataset.features.n_cols(), 48u + 48u + 5u + 37u);
  EXPECT_TRUE(res.dataset.features.has_column("LMT_OSS_CPU_MEAN"));
  EXPECT_TRUE(res.dataset.features.has_column("COBALT_START_TIME"));
}

TEST_F(SimulatorTest, GroundTruthDecomposesThroughput) {
  const auto& res = result();
  for (std::size_t i = 0; i < res.dataset.size(); i += 37) {
    const auto& m = res.dataset.meta[i];
    EXPECT_NEAR(m.log_throughput(), res.dataset.target[i], 1e-9);
    EXPECT_LE(m.log_fl, 1e-12);  // contention can only hurt
  }
}

TEST_F(SimulatorTest, DuplicateSetsShareFeatureRows) {
  const auto& res = result();
  // Find two jobs with the same (app, config) and verify their POSIX
  // feature slices are identical while start times differ.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::size_t>>
      sets;
  for (std::size_t i = 0; i < res.dataset.size(); ++i) {
    sets[{res.dataset.meta[i].app_id, res.dataset.meta[i].config_id}]
        .push_back(i);
  }
  std::size_t checked = 0;
  for (const auto& [key, rows] : sets) {
    if (rows.size() < 2) continue;
    const auto& t = res.dataset.features;
    for (std::size_t c = 0; c < 48; ++c) {  // POSIX block
      EXPECT_DOUBLE_EQ(t.at(rows[0], c), t.at(rows[1], c));
    }
    ++checked;
    if (checked > 10) break;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(SimulatorTest, NovelAppsOnlyAfterCutoff) {
  const auto& res = result();
  std::size_t novel = 0;
  for (const auto& m : res.dataset.meta) {
    if (m.novel_app) {
      ++novel;
      EXPECT_GE(m.start_time, res.train_cutoff_time);
    }
  }
  EXPECT_GT(novel, 0u);
}

TEST_F(SimulatorTest, DeterministicAcrossRuns) {
  const auto& res = result();
  const auto res2 = sim::simulate(sim::tiny_system(3));
  ASSERT_EQ(res.dataset.size(), res2.dataset.size());
  for (std::size_t i = 0; i < res.dataset.size(); i += 101) {
    EXPECT_DOUBLE_EQ(res.dataset.target[i], res2.dataset.target[i]);
  }
}

TEST_F(SimulatorTest, SeedChangesData) {
  const auto& res = result();
  const auto res2 = sim::simulate(sim::tiny_system(4));
  bool any_diff = res.dataset.size() != res2.dataset.size();
  for (std::size_t i = 0; !any_diff && i < res.dataset.size(); ++i) {
    any_diff = res.dataset.target[i] != res2.dataset.target[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(SimulatorTest, ThroughputsArePhysicallyPlausible) {
  const auto& res = result();
  for (std::size_t i = 0; i < res.dataset.size(); ++i) {
    const double mib = std::pow(10.0, res.dataset.target[i]);
    EXPECT_GT(mib, 0.1);
    EXPECT_LT(mib, res.config.platform.peak_bandwidth_mib);
  }
}

TEST_F(SimulatorTest, RecordsRoundTripThroughLogFormat) {
  const auto& res = result();
  std::ostringstream out;
  for (std::size_t i = 0; i < 50; ++i) {
    telemetry::write_record(out, res.records[i]);
  }
  std::istringstream in(out.str());
  const auto outcome =
      telemetry::parse_archive_outcome(in, telemetry::ParseMode::kStrict);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  const auto& parsed = outcome.records;
  ASSERT_EQ(parsed.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(parsed[i].job_id, res.records[i].job_id);
    EXPECT_EQ(parsed[i].posix, res.records[i].posix);
  }
}

// Calibration diagnostics: verify the preset datasets exhibit the
// structural statistics the paper reports (duplicate fractions).
double duplicate_fraction(const data::Dataset& ds) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> counts;
  for (const auto& m : ds.meta) ++counts[{m.app_id, m.config_id}];
  std::size_t dup_jobs = 0;
  for (const auto& [k, n] : counts) {
    if (n >= 2) dup_jobs += n;
  }
  return static_cast<double>(dup_jobs) / static_cast<double>(ds.size());
}

TEST(SimCalibration, TinySystemHasDuplicates) {
  const auto res = sim::simulate(sim::tiny_system(5));
  const double frac = duplicate_fraction(res.dataset);
  EXPECT_GT(frac, 0.10);
  EXPECT_LT(frac, 0.70);
}

}  // namespace
}  // namespace iotax
