#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <sstream>

#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/telemetry/binary_log.hpp"
#include "src/telemetry/counters.hpp"

namespace iotax {
namespace {

std::vector<telemetry::JobLogRecord> sample_records(std::size_t n) {
  auto cfg = sim::tiny_system(31);
  cfg.workload.n_jobs = std::max<std::size_t>(n, 100);
  const auto res = sim::simulate(cfg);
  return {res.records.begin(),
          res.records.begin() + static_cast<long>(n)};
}

TEST(Crc32c, KnownVector) {
  // RFC 3720 test vector: CRC32C("123456789") = 0xe3069283.
  const char* s = "123456789";
  EXPECT_EQ(telemetry::crc32c(s, 9), 0xe3069283u);
}

TEST(Crc32c, EmptyInput) {
  EXPECT_EQ(telemetry::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, SensitiveToEveryByte) {
  std::string a = "hello world";
  const auto base = telemetry::crc32c(a.data(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::string b = a;
    b[i] ^= 1;
    EXPECT_NE(telemetry::crc32c(b.data(), b.size()), base);
  }
}

telemetry::ParseOutcome read_strict(std::istream& in) {
  return telemetry::read_binary_archive_outcome(in,
                                                telemetry::ParseMode::kStrict);
}

TEST(BinaryLog, RoundTripExact) {
  const auto records = sample_records(40);
  std::stringstream buf;
  telemetry::write_binary_archive(buf, records);
  const auto outcome = read_strict(buf);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  const auto& parsed = outcome.records;
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i].job_id, records[i].job_id);
    EXPECT_EQ(parsed[i].app_id, records[i].app_id);
    EXPECT_EQ(parsed[i].config_id, records[i].config_id);
    EXPECT_EQ(parsed[i].n_procs, records[i].n_procs);
    EXPECT_EQ(parsed[i].nodes, records[i].nodes);
    EXPECT_DOUBLE_EQ(parsed[i].start_time, records[i].start_time);
    EXPECT_DOUBLE_EQ(parsed[i].end_time, records[i].end_time);
    EXPECT_DOUBLE_EQ(parsed[i].agg_perf_mib, records[i].agg_perf_mib);
    EXPECT_EQ(parsed[i].posix, records[i].posix);
    EXPECT_EQ(parsed[i].mpiio, records[i].mpiio);
  }
}

TEST(BinaryLog, MuchSmallerThanText) {
  const auto records = sample_records(100);
  std::stringstream bin;
  telemetry::write_binary_archive(bin, records);
  std::ostringstream text;
  for (const auto& rec : records) telemetry::write_record(text, rec);
  EXPECT_LT(bin.str().size(), text.str().size() / 2);
}

TEST(BinaryLog, BadMagicRejected) {
  std::stringstream buf;
  buf << "NOTALOGX" << std::string(8, '\0');
  const auto outcome = read_strict(buf);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.quarantine.count(util::Reason::kBadMagic), 1u);
}

TEST(BinaryLog, WrongVersionRejected) {
  const auto records = sample_records(1);
  std::stringstream buf;
  telemetry::write_binary_archive(buf, records);
  auto data = buf.str();
  data[8] = 99;  // version byte
  std::stringstream corrupted(data);
  const auto outcome = read_strict(corrupted);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.quarantine.count(util::Reason::kBadVersion), 1u);
}

TEST(BinaryLog, ChecksumDetectsPayloadCorruption) {
  const auto records = sample_records(3);
  std::stringstream buf;
  telemetry::write_binary_archive(buf, records);
  auto data = buf.str();
  data[data.size() / 2] ^= 0x40;  // flip a bit mid-archive
  {
    std::stringstream corrupted(data);
    const auto outcome = read_strict(corrupted);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.quarantine.count(util::Reason::kBadChecksum), 1u);
  }
  {
    std::stringstream corrupted(data);
    const auto outcome = telemetry::read_binary_archive_outcome(
        corrupted, telemetry::ParseMode::kLenient);
    ASSERT_TRUE(outcome.ok);
    const auto stats = outcome.stats();
    EXPECT_EQ(stats.parsed + stats.skipped, 3u);
    EXPECT_GE(stats.skipped, 1u);
    // Framing survives: remaining records still parse.
    EXPECT_EQ(outcome.records.size(), stats.parsed);
  }
}

TEST(BinaryLog, TruncationHandled) {
  const auto records = sample_records(5);
  std::stringstream buf;
  telemetry::write_binary_archive(buf, records);
  auto data = buf.str();
  data.resize(data.size() - 30);
  {
    std::stringstream truncated(data);
    const auto outcome = read_strict(truncated);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.quarantine.count(util::Reason::kTruncated), 1u);
  }
  {
    std::stringstream truncated(data);
    const auto outcome = telemetry::read_binary_archive_outcome(
        truncated, telemetry::ParseMode::kLenient);
    ASSERT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.records.size(), 4u);
    EXPECT_EQ(outcome.stats().skipped, 1u);
  }
}

TEST(BinaryLog, EmptyArchive) {
  std::stringstream buf;
  telemetry::write_binary_archive(buf, {});
  const auto outcome = read_strict(buf);
  EXPECT_TRUE(outcome.ok);
  EXPECT_TRUE(outcome.records.empty());
}

TEST(BinaryLog, FileRoundTrip) {
  const auto records = sample_records(10);
  const auto path =
      (std::filesystem::temp_directory_path() / "iotax_bin.log").string();
  telemetry::write_binary_archive_file(path, records);
  const auto outcome = telemetry::read_binary_archive_file_outcome(
      path, telemetry::ParseMode::kStrict);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.records.size(), 10u);
  std::filesystem::remove(path);
}

TEST(BinaryLog, RejectsMalformedCounterSizes) {
  auto records = sample_records(1);
  records[0].posix.pop_back();
  std::stringstream buf;
  EXPECT_THROW(telemetry::write_binary_archive(buf, records),
               std::invalid_argument);
}

}  // namespace
}  // namespace iotax
