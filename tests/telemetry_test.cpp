#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>

#include "src/telemetry/cobalt.hpp"
#include "src/telemetry/counters.hpp"
#include "src/telemetry/darshan_log.hpp"
#include "src/telemetry/io_signature.hpp"
#include "src/telemetry/lmt.hpp"

namespace iotax {
namespace {

telemetry::IoSignature make_signature() {
  telemetry::IoSignature sig;
  sig.bytes_read = 4.0 * (1 << 30);     // 4 GiB
  sig.bytes_written = 2.0 * (1 << 30);  // 2 GiB
  sig.n_procs = 64;
  sig.read_size_frac[5] = 0.7;   // 1M-4M
  sig.read_size_frac[7] = 0.3;   // 10M-100M
  sig.write_size_frac[4] = 1.0;  // 100K-1M
  sig.seq_read_frac = 0.8;
  sig.consec_read_frac = 0.5;
  sig.seq_write_frac = 0.9;
  sig.consec_write_frac = 0.6;
  sig.rw_switch_frac = 0.1;
  sig.mem_unaligned_frac = 0.2;
  sig.file_unaligned_frac = 0.3;
  sig.files_total = 10.0;
  sig.files_shared_frac = 0.2;
  sig.files_readonly_frac = 0.5;
  sig.files_writeonly_frac = 0.3;
  sig.opens_per_file = 2.0;
  sig.seeks_per_op = 0.1;
  sig.stats_per_open = 1.0;
  sig.fsyncs = 4.0;
  sig.uses_mpiio = true;
  sig.coll_frac = 0.5;
  sig.nonblocking_frac = 0.1;
  return sig;
}

TEST(IoSignature, ValidSignaturePasses) {
  EXPECT_NO_THROW(make_signature().validate());
}

TEST(IoSignature, RejectsNegativeVolume) {
  auto sig = make_signature();
  sig.bytes_read = -1.0;
  EXPECT_THROW(sig.validate(), std::invalid_argument);
}

TEST(IoSignature, RejectsBadBucketSum) {
  auto sig = make_signature();
  sig.read_size_frac[5] = 0.5;  // sum now 0.8
  EXPECT_THROW(sig.validate(), std::invalid_argument);
}

TEST(IoSignature, RejectsFractionOutOfRange) {
  auto sig = make_signature();
  sig.seq_read_frac = 1.5;
  EXPECT_THROW(sig.validate(), std::invalid_argument);
}

TEST(IoSignature, RejectsConsecExceedingSeq) {
  auto sig = make_signature();
  sig.consec_read_frac = 0.9;  // > seq_read_frac = 0.8
  EXPECT_THROW(sig.validate(), std::invalid_argument);
}

TEST(IoSignature, RejectsZeroProcs) {
  auto sig = make_signature();
  sig.n_procs = 0;
  EXPECT_THROW(sig.validate(), std::invalid_argument);
}

TEST(IoSignature, HashEqualForIdenticalSignatures) {
  const auto a = make_signature();
  const auto b = make_signature();
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

TEST(IoSignature, HashDiffersWhenAnyFieldChanges) {
  const auto base = make_signature();
  auto mod = base;
  mod.bytes_written += 1.0;
  EXPECT_NE(base.content_hash(), mod.content_hash());
  mod = base;
  mod.coll_frac = 0.51;
  EXPECT_NE(base.content_hash(), mod.content_hash());
  mod = base;
  mod.uses_mpiio = false;
  EXPECT_NE(base.content_hash(), mod.content_hash());
}

TEST(Counters, FeatureCountsMatchPaper) {
  EXPECT_EQ(telemetry::posix_feature_names().size(), 48u);
  EXPECT_EQ(telemetry::mpiio_feature_names().size(), 48u);
  EXPECT_EQ(telemetry::lmt_feature_names().size(), 37u);
  EXPECT_EQ(telemetry::cobalt_feature_names().size(), 5u);
}

TEST(Counters, NamesAreUnique) {
  for (const auto* names :
       {&telemetry::posix_feature_names(), &telemetry::mpiio_feature_names(),
        &telemetry::lmt_feature_names(),
        &telemetry::cobalt_feature_names()}) {
    std::set<std::string> unique(names->begin(), names->end());
    EXPECT_EQ(unique.size(), names->size());
  }
}

TEST(Counters, PosixDeterministicForEqualSignatures) {
  const auto a = telemetry::compute_posix_counters(make_signature());
  const auto b = telemetry::compute_posix_counters(make_signature());
  EXPECT_EQ(a, b);
}

TEST(Counters, PosixBytesMatchSignature) {
  const auto sig = make_signature();
  const auto c = telemetry::compute_posix_counters(sig);
  const auto& names = telemetry::posix_feature_names();
  const auto idx = [&names](const std::string& n) {
    return std::find(names.begin(), names.end(), n) - names.begin();
  };
  EXPECT_DOUBLE_EQ(c[idx("POSIX_BYTES_READ")], sig.bytes_read);
  EXPECT_DOUBLE_EQ(c[idx("POSIX_BYTES_WRITTEN")], sig.bytes_written);
  EXPECT_DOUBLE_EQ(c[idx("POSIX_NPROCS")], 64.0);
  EXPECT_DOUBLE_EQ(c[idx("POSIX_TOTAL_FILES")], 10.0);
  EXPECT_DOUBLE_EQ(c[idx("POSIX_SHARED_FILES")], 2.0);
  EXPECT_DOUBLE_EQ(c[idx("POSIX_UNIQUE_FILES")], 8.0);
}

TEST(Counters, ConsecSubsetOfSeqSubsetOfOps) {
  const auto sig = make_signature();
  const auto c = telemetry::compute_posix_counters(sig);
  const auto& names = telemetry::posix_feature_names();
  const auto idx = [&names](const std::string& n) {
    return std::find(names.begin(), names.end(), n) - names.begin();
  };
  EXPECT_LE(c[idx("POSIX_CONSEC_READS")], c[idx("POSIX_SEQ_READS")]);
  EXPECT_LE(c[idx("POSIX_SEQ_READS")], c[idx("POSIX_READS")]);
  EXPECT_LE(c[idx("POSIX_CONSEC_WRITES")], c[idx("POSIX_SEQ_WRITES")]);
  EXPECT_LE(c[idx("POSIX_SEQ_WRITES")], c[idx("POSIX_WRITES")]);
}

TEST(Counters, MpiioZeroWhenUnused) {
  auto sig = make_signature();
  sig.uses_mpiio = false;
  const auto c = telemetry::compute_mpiio_counters(sig);
  for (double v : c) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Counters, MpiioCollectiveSplit) {
  const auto sig = make_signature();
  const auto c = telemetry::compute_mpiio_counters(sig);
  const auto& names = telemetry::mpiio_feature_names();
  const auto idx = [&names](const std::string& n) {
    return std::find(names.begin(), names.end(), n) - names.begin();
  };
  // coll + indep reads = total reads from POSIX side.
  const auto p = telemetry::compute_posix_counters(sig);
  const auto& pnames = telemetry::posix_feature_names();
  const auto pidx = [&pnames](const std::string& n) {
    return std::find(pnames.begin(), pnames.end(), n) - pnames.begin();
  };
  EXPECT_DOUBLE_EQ(c[idx("MPIIO_COLL_READS")] + c[idx("MPIIO_INDEP_READS")],
                   p[pidx("POSIX_READS")]);
  EXPECT_DOUBLE_EQ(c[idx("MPIIO_COLL_RATIO")], 0.5);
  EXPECT_DOUBLE_EQ(c[idx("MPIIO_BYTES_READ")], sig.bytes_read);
}

TEST(Counters, OpCountScalesInverselyWithAccessSize) {
  telemetry::IoSignature small = make_signature();
  small.read_size_frac = {};
  small.read_size_frac[1] = 1.0;  // 100-1K accesses
  telemetry::IoSignature large = make_signature();
  large.read_size_frac = {};
  large.read_size_frac[8] = 1.0;  // 100M-1G accesses
  const double ops_small =
      telemetry::estimate_op_count(small.bytes_read, small.read_size_frac);
  const double ops_large =
      telemetry::estimate_op_count(large.bytes_read, large.read_size_frac);
  EXPECT_GT(ops_small, 1000.0 * ops_large);
}

TEST(Lmt, AggregateMinMaxMeanStd) {
  telemetry::LmtTimeline tl;
  tl.set_ost_count(56.0);
  for (int i = 0; i < 10; ++i) {
    telemetry::LmtSample s;
    s.time = i * 5.0;
    s.oss_cpu = 0.1 * i;
    tl.add_sample(s);
  }
  const auto f = tl.aggregate(10.0, 30.0);  // samples at 10,15,20,25,30
  ASSERT_EQ(f.size(), 37u);
  const auto& names = telemetry::lmt_feature_names();
  const auto idx = [&names](const std::string& n) {
    return std::find(names.begin(), names.end(), n) - names.begin();
  };
  EXPECT_NEAR(f[idx("LMT_OSS_CPU_MIN")], 0.2, 1e-12);
  EXPECT_NEAR(f[idx("LMT_OSS_CPU_MAX")], 0.6, 1e-12);
  EXPECT_NEAR(f[idx("LMT_OSS_CPU_MEAN")], 0.4, 1e-12);
  EXPECT_GT(f[idx("LMT_OSS_CPU_STD")], 0.0);
  EXPECT_DOUBLE_EQ(f[idx("LMT_OST_COUNT")], 56.0);
}

TEST(Lmt, ShortWindowFallsBackToNearestSample) {
  telemetry::LmtTimeline tl;
  telemetry::LmtSample a;
  a.time = 0.0;
  a.oss_cpu = 0.1;
  telemetry::LmtSample b;
  b.time = 100.0;
  b.oss_cpu = 0.9;
  tl.add_sample(a);
  tl.add_sample(b);
  const auto f = tl.aggregate(90.0, 95.0);  // between samples, closer to b
  EXPECT_NEAR(f[2], 0.9, 1e-12);            // LMT_OSS_CPU_MEAN
}

TEST(Lmt, RejectsOutOfOrderSamples) {
  telemetry::LmtTimeline tl;
  telemetry::LmtSample a;
  a.time = 10.0;
  tl.add_sample(a);
  telemetry::LmtSample b;
  b.time = 5.0;
  EXPECT_THROW(tl.add_sample(b), std::invalid_argument);
}

TEST(Lmt, AggregateEmptyTimelineThrows) {
  telemetry::LmtTimeline tl;
  EXPECT_THROW(tl.aggregate(0.0, 1.0), std::logic_error);
}

TEST(Cobalt, FeaturesMatchRecord) {
  telemetry::CobaltRecord rec;
  rec.nodes = 128;
  rec.cores = 128 * 64;
  rec.start_time = 1000.0;
  rec.end_time = 1600.0;
  rec.placement_spread = 0.4;
  const auto f = telemetry::cobalt_features(rec);
  ASSERT_EQ(f.size(), 5u);
  EXPECT_DOUBLE_EQ(f[0], 128.0);
  EXPECT_DOUBLE_EQ(f[2], 1000.0);
  EXPECT_DOUBLE_EQ(f[3], 600.0);
}

TEST(Cobalt, RejectsNegativeRuntime) {
  telemetry::CobaltRecord rec;
  rec.start_time = 10.0;
  rec.end_time = 5.0;
  EXPECT_THROW(telemetry::cobalt_features(rec), std::invalid_argument);
}

TEST(Cobalt, StartTimeFeatureIsInCobaltSet) {
  const auto& names = telemetry::cobalt_feature_names();
  EXPECT_NE(std::find(names.begin(), names.end(),
                      telemetry::start_time_feature_name()),
            names.end());
}

telemetry::JobLogRecord make_record() {
  telemetry::JobLogRecord rec;
  rec.job_id = 42;
  rec.app_id = 7;
  rec.config_id = 3;
  rec.n_procs = 64;
  rec.nodes = 16;
  rec.start_time = 86400.0;
  rec.end_time = 86700.5;
  rec.placement_spread = 0.25;
  rec.agg_perf_mib = 1234.5;
  rec.posix = telemetry::compute_posix_counters(make_signature());
  rec.mpiio = telemetry::compute_mpiio_counters(make_signature());
  return rec;
}

telemetry::ParseOutcome parse_strict(std::istream& in) {
  return telemetry::parse_archive_outcome(in, telemetry::ParseMode::kStrict);
}

TEST(DarshanLog, RoundTripSingleRecord) {
  const auto rec = make_record();
  std::ostringstream out;
  telemetry::write_record(out, rec);
  std::istringstream in(out.str());
  const auto outcome = parse_strict(in);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  const auto& parsed = outcome.records;
  ASSERT_EQ(parsed.size(), 1u);
  const auto& p = parsed[0];
  EXPECT_EQ(p.job_id, rec.job_id);
  EXPECT_EQ(p.app_id, rec.app_id);
  EXPECT_EQ(p.config_id, rec.config_id);
  EXPECT_EQ(p.n_procs, rec.n_procs);
  EXPECT_EQ(p.nodes, rec.nodes);
  EXPECT_DOUBLE_EQ(p.start_time, rec.start_time);
  EXPECT_DOUBLE_EQ(p.end_time, rec.end_time);
  EXPECT_DOUBLE_EQ(p.agg_perf_mib, rec.agg_perf_mib);
  EXPECT_EQ(p.posix, rec.posix);
  EXPECT_EQ(p.mpiio, rec.mpiio);
}

TEST(DarshanLog, RoundTripManyRecords) {
  std::vector<telemetry::JobLogRecord> recs;
  for (int i = 0; i < 5; ++i) {
    auto r = make_record();
    r.job_id = static_cast<std::uint64_t>(i);
    recs.push_back(r);
  }
  std::ostringstream out;
  for (const auto& r : recs) telemetry::write_record(out, r);
  std::istringstream in(out.str());
  const auto outcome = parse_strict(in);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  const auto& parsed = outcome.records;
  ASSERT_EQ(parsed.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(parsed[i].job_id, static_cast<std::uint64_t>(i));
  }
}

TEST(DarshanLog, StrictModeThrowsOnCorruptCounter) {
  const auto rec = make_record();
  std::ostringstream out;
  telemetry::write_record(out, rec);
  auto text = out.str();
  const auto pos = text.find("POSIX\t");
  text.replace(pos, 6, "BOGUSMOD\t");
  std::istringstream in(text);
  const auto outcome = parse_strict(in);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.quarantine.count(util::Reason::kUnknownModule), 1u);
}

TEST(DarshanLog, LenientModeSkipsCorruptRecord) {
  auto good = make_record();
  auto bad = make_record();
  bad.job_id = 99;
  std::ostringstream out;
  telemetry::write_record(out, bad);
  telemetry::write_record(out, good);
  auto text = out.str();
  // Corrupt the first record's counter value.
  const auto pos = text.find("POSIX_BYTES_READ\t");
  text.replace(pos + 17, 1, "x");
  std::istringstream in(text);
  const auto outcome =
      telemetry::parse_archive_outcome(in, telemetry::ParseMode::kLenient);
  const auto& parsed = outcome.records;
  const auto stats = outcome.stats();
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].job_id, 42u);
  EXPECT_EQ(stats.parsed, 1u);
  EXPECT_EQ(stats.skipped, 1u);
}

TEST(DarshanLog, TruncatedFinalRecord) {
  const auto rec = make_record();
  std::ostringstream out;
  telemetry::write_record(out, rec);
  auto text = out.str();
  text.resize(text.size() - 20);  // chop off end_of_record
  {
    std::istringstream in(text);
    // The cut may land inside a counter line, so the first defect strict
    // mode stops at is that line or the missing end marker.
    const auto outcome = parse_strict(in);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.quarantine.total(), 1u);
  }
  {
    std::istringstream in(text);
    const auto outcome =
        telemetry::parse_archive_outcome(in, telemetry::ParseMode::kLenient);
    EXPECT_TRUE(outcome.records.empty());
    EXPECT_EQ(outcome.stats().skipped, 1u);
  }
}

TEST(DarshanLog, IncompleteHeaderRejected) {
  std::string text =
      "# iotax darshan log version: 1.0\n"
      "# jobid: 1\n"
      "# end_of_record\n";
  std::istringstream in(text);
  const auto outcome = parse_strict(in);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.quarantine.count(util::Reason::kIncompleteHeader), 1u);
}

TEST(DarshanLog, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "iotax_darshan.log";
  std::vector<telemetry::JobLogRecord> recs = {make_record()};
  telemetry::write_archive(path.string(), recs);
  const auto outcome = telemetry::parse_archive_file_outcome(
      path.string(), telemetry::ParseMode::kStrict);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_EQ(outcome.records.size(), 1u);
  EXPECT_EQ(outcome.records[0].job_id, 42u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace iotax
