// Corruption-tolerant ingest: truncation safety of both archive readers
// at every byte boundary, non-throwing outcome parsing, the three ingest
// modes of build_dataset_ingest, and Dataset::validate_all.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "src/data/dataset.hpp"
#include "src/sim/dataset_builder.hpp"
#include "src/telemetry/binary_log.hpp"
#include "src/telemetry/counters.hpp"
#include "src/telemetry/darshan_log.hpp"

namespace iotax {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

telemetry::JobLogRecord make_record(std::uint64_t job_id) {
  telemetry::JobLogRecord rec;
  rec.job_id = job_id;
  rec.app_id = 7;
  rec.config_id = 3;
  rec.n_procs = 64;
  rec.nodes = 16;
  rec.start_time = 1000.0 * static_cast<double>(job_id);
  rec.end_time = rec.start_time + 300.5;
  rec.placement_spread = 0.25;
  rec.agg_perf_mib = 1234.5 + static_cast<double>(job_id);
  rec.posix.assign(telemetry::posix_feature_names().size(), 0.0);
  rec.posix[0] = 64.0;
  rec.posix[3] = 4096.0 + static_cast<double>(job_id);
  rec.mpiio.assign(telemetry::mpiio_feature_names().size(), 0.0);
  rec.mpiio[1] = 128.0;
  return rec;
}

std::vector<telemetry::JobLogRecord> three_records() {
  return {make_record(1), make_record(2), make_record(3)};
}

TEST(TruncationSafety, BinaryReaderSurvivesEveryCut) {
  const auto records = three_records();
  std::ostringstream buf(std::ios::binary);
  telemetry::write_binary_archive(buf, records);
  const std::string bytes = buf.str();
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::istringstream in(bytes.substr(0, cut));
    telemetry::ParseOutcome outcome;
    ASSERT_NO_THROW(outcome = telemetry::read_binary_archive_outcome(in))
        << "cut at byte " << cut;
    ASSERT_LE(outcome.records.size(), records.size()) << "cut " << cut;
    if (outcome.ok) {
      // The header's record count makes every lost record detectable:
      // parsed + quarantined always adds back up to the promised count.
      EXPECT_EQ(outcome.records.size() + outcome.quarantine.total(),
                records.size())
          << "cut at byte " << cut;
    }
    for (const auto& rec : outcome.records) {
      EXPECT_EQ(rec.posix.size(), telemetry::posix_feature_names().size());
    }
  }
  std::istringstream whole(bytes);
  const auto outcome = telemetry::read_binary_archive_outcome(whole);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.records.size(), records.size());
  EXPECT_TRUE(outcome.quarantine.empty());
}

TEST(TruncationSafety, TextParserSurvivesEveryCut) {
  const auto records = three_records();
  std::ostringstream buf;
  for (const auto& rec : records) telemetry::write_record(buf, rec);
  const std::string bytes = buf.str();
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::istringstream in(bytes.substr(0, cut));
    telemetry::ParseOutcome outcome;
    ASSERT_NO_THROW(outcome = telemetry::parse_archive_outcome(in))
        << "cut at byte " << cut;
    EXPECT_TRUE(outcome.ok) << "cut at byte " << cut;
    ASSERT_LE(outcome.records.size(), records.size()) << "cut " << cut;
    // A cut leaves at most one partial record behind.
    EXPECT_LE(outcome.quarantine.count(util::Reason::kTruncated), 1u)
        << "cut at byte " << cut;
    for (const auto& rec : outcome.records) {
      EXPECT_EQ(rec.posix.size(), telemetry::posix_feature_names().size());
    }
  }
  std::istringstream whole(bytes);
  const auto outcome = telemetry::parse_archive_outcome(whole);
  EXPECT_EQ(outcome.records.size(), records.size());
  EXPECT_TRUE(outcome.quarantine.empty());
}

TEST(TruncationSafety, BadMagicIsAnOutcomeNotACrash) {
  const std::string junk = "NOTALOG!plus some trailing garbage";
  std::istringstream in(junk);
  const auto outcome = telemetry::read_binary_archive_outcome(in);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.quarantine.count(util::Reason::kBadMagic), 1u);
  // The legacy API keeps its contract: container-level corruption throws
  // even in lenient mode.
  std::istringstream again(junk);
  EXPECT_THROW(telemetry::read_binary_archive(again, /*strict=*/false),
               std::runtime_error);
}

TEST(Ingest, StrictThrowsTypedErrorWithReason) {
  auto records = three_records();
  records[1].agg_perf_mib = kNan;
  try {
    sim::build_dataset_ingest(records, nullptr, "t", nullptr,
                              sim::IngestMode::kStrict);
    FAIL() << "expected IngestError";
  } catch (const sim::IngestError& e) {
    EXPECT_EQ(e.reason(), util::Reason::kBadThroughput);
    EXPECT_NE(std::string(e.what()).find("bad-throughput"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("record 1"), std::string::npos);
  }
  // IngestError stays catchable as the legacy std::invalid_argument.
  EXPECT_THROW(sim::build_dataset(records, nullptr, "t"),
               std::invalid_argument);
}

std::vector<telemetry::JobLogRecord> defective_records() {
  std::vector<telemetry::JobLogRecord> records;
  records.push_back(make_record(1));                 // 0: good
  records.push_back(make_record(2));                 // 1: NaN throughput
  records.back().agg_perf_mib = kNan;
  records.push_back(make_record(3));                 // 2: inverted times
  std::swap(records.back().start_time, records.back().end_time);
  records.push_back(make_record(1));                 // 3: duplicate job id
  records.push_back(make_record(4));                 // 4: NaN counter
  records.back().posix[5] = kNan;
  records.push_back(make_record(5));                 // 5: negative counter
  records.back().mpiio[2] = -4.0;
  records.push_back(make_record(6));                 // 6: good
  return records;
}

TEST(Ingest, LenientQuarantinesEveryDefectAndKeepsTheRest) {
  const auto records = defective_records();
  const auto out = sim::build_dataset_ingest(records, nullptr, "t", nullptr,
                                             sim::IngestMode::kLenient);
  EXPECT_EQ(out.dataset.size(), 2u);
  EXPECT_EQ(out.kept_records, (std::vector<std::size_t>{0, 6}));
  EXPECT_EQ(out.quarantine.total(), 5u);
  EXPECT_EQ(out.quarantine.count(util::Reason::kBadThroughput), 1u);
  EXPECT_EQ(out.quarantine.count(util::Reason::kTimeInverted), 1u);
  EXPECT_EQ(out.quarantine.count(util::Reason::kDuplicateJobId), 1u);
  EXPECT_EQ(out.quarantine.count(util::Reason::kNonFiniteValue), 1u);
  EXPECT_EQ(out.quarantine.count(util::Reason::kNegativeCounter), 1u);
  EXPECT_EQ(out.quarantine.repaired_total(), 0u);
  EXPECT_NO_THROW(out.dataset.validate());
}

TEST(Ingest, RepairFixesWhatItCanQuarantinesTheRest) {
  const auto records = defective_records();
  const auto out = sim::build_dataset_ingest(records, nullptr, "t", nullptr,
                                             sim::IngestMode::kRepair);
  // Inverted times, the NaN counter and the negative counter are fixed
  // in place; bad throughput and the duplicate id are not fixable.
  EXPECT_EQ(out.dataset.size(), 5u);
  EXPECT_EQ(out.kept_records, (std::vector<std::size_t>{0, 2, 4, 5, 6}));
  EXPECT_EQ(out.quarantine.total(), 2u);
  EXPECT_EQ(out.quarantine.count(util::Reason::kBadThroughput), 1u);
  EXPECT_EQ(out.quarantine.count(util::Reason::kDuplicateJobId), 1u);
  EXPECT_EQ(out.quarantine.repaired_total(), 3u);
  EXPECT_EQ(out.quarantine.repaired(util::Reason::kTimeInverted), 1u);
  EXPECT_EQ(out.quarantine.repaired(util::Reason::kNonFiniteValue), 1u);
  EXPECT_EQ(out.quarantine.repaired(util::Reason::kNegativeCounter), 1u);
  EXPECT_NO_THROW(out.dataset.validate());
  // The repaired record's timestamps come out the right way around, and
  // the caller's input records stay untouched.
  const auto& repaired_meta = out.dataset.meta[1];
  EXPECT_LT(repaired_meta.start_time, repaired_meta.end_time);
  EXPECT_GT(records[2].start_time, records[2].end_time);
  EXPECT_TRUE(std::isnan(records[4].posix[5]));
}

TEST(Ingest, TruthViolationsAreQuarantined) {
  const auto records = three_records();
  sim::TruthMap truth;
  for (const auto& rec : records) {
    sim::JobTruth t;
    t.log_fa = std::log10(rec.agg_perf_mib);
    truth[rec.job_id] = t;
  }
  truth.erase(records[1].job_id);                   // 1: missing truth
  truth[records[2].job_id].log_fa += 0.5;           // 2: truth mismatch
  const auto out = sim::build_dataset_ingest(records, nullptr, "t", &truth,
                                             sim::IngestMode::kLenient);
  EXPECT_EQ(out.dataset.size(), 1u);
  EXPECT_EQ(out.quarantine.count(util::Reason::kMissingTruth), 1u);
  EXPECT_EQ(out.quarantine.count(util::Reason::kTruthMismatch), 1u);
  try {
    sim::build_dataset_ingest(records, nullptr, "t", &truth,
                              sim::IngestMode::kStrict);
    FAIL() << "expected IngestError";
  } catch (const sim::IngestError& e) {
    EXPECT_EQ(e.reason(), util::Reason::kMissingTruth);
  }
}

TEST(Ingest, CleanRecordsIngestIdenticallyInEveryMode) {
  const auto records = three_records();
  const auto strict = sim::build_dataset_ingest(
      records, nullptr, "t", nullptr, sim::IngestMode::kStrict);
  for (const auto mode :
       {sim::IngestMode::kLenient, sim::IngestMode::kRepair}) {
    const auto out =
        sim::build_dataset_ingest(records, nullptr, "t", nullptr, mode);
    EXPECT_TRUE(out.quarantine.empty());
    ASSERT_EQ(out.dataset.size(), strict.dataset.size());
    for (std::size_t i = 0; i < out.dataset.size(); ++i) {
      EXPECT_DOUBLE_EQ(out.dataset.target[i], strict.dataset.target[i]);
    }
  }
}

TEST(ValidateAll, CleanDatasetReportsNothing) {
  const auto ds = sim::build_dataset(three_records(), nullptr, "t");
  EXPECT_TRUE(ds.validate_all().empty());
}

TEST(ValidateAll, CollectsEveryViolationInsteadOfTheFirst) {
  auto ds = sim::build_dataset(three_records(), nullptr, "t");
  ds.features.mutable_col(0)[1] = kNan;
  ds.meta[0].end_time = ds.meta[0].start_time - 10.0;
  ds.meta[2].log_fn += 0.25;  // decomposition no longer matches target
  const auto report = ds.validate_all();
  EXPECT_EQ(report.total(), 3u);
  EXPECT_EQ(report.count(util::Reason::kNonFiniteValue), 1u);
  EXPECT_EQ(report.count(util::Reason::kTimeInverted), 1u);
  EXPECT_EQ(report.count(util::Reason::kTruthMismatch), 1u);
  EXPECT_THROW(ds.validate(), std::logic_error);
}

TEST(ValidateAll, ValidateThrowsOnEveryNonFiniteValue) {
  // validate() throws whatever validate_all() reports, a NaN target and
  // non-finite features or timestamps included.
  const auto clean = sim::build_dataset(three_records(), nullptr, "t");
  const auto expect_rejected = [](const data::Dataset& ds) {
    EXPECT_EQ(ds.validate_all().count(util::Reason::kNonFiniteValue), 1u);
    EXPECT_THROW(ds.validate(), std::logic_error);
  };
  auto nan_target = clean;
  nan_target.target[1] = kNan;
  expect_rejected(nan_target);
  auto inf_feature = clean;
  inf_feature.features.mutable_col(0)[2] =
      std::numeric_limits<double>::infinity();
  expect_rejected(inf_feature);
  auto nan_time = clean;
  nan_time.meta[0].start_time = kNan;
  expect_rejected(nan_time);
}

}  // namespace
}  // namespace iotax
