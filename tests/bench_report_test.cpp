// The bench gate (bench/bench_report.hpp): every committed baseline
// passes against itself, each of its gates fails on a copy doctored
// just past the limit (naming that record and no other) and holds on a
// copy sitting exactly at the bound; and the checker refuses reports
// whose gates do not match, cannot be read, or name another bench.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_report.hpp"

namespace iotax {
namespace {

using util::Json;

constexpr double kInf = std::numeric_limits<double>::infinity();

Json read_baseline(const std::string& bench) {
  const std::string path = std::string(IOTAX_SOURCE_DIR) +
                           "/bench/baselines/BENCH_" + bench +
                           ".baseline.json";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

const Json& record(const Json& report, const std::string& name) {
  const Json& records = report.at("records");
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].at("name").as_string() == name) return records[i];
  }
  throw std::invalid_argument("no record " + name);
}

/// `report` with record `name` carrying `value`.
Json with_value(const Json& report, const std::string& name, Json value) {
  Json records = Json::array();
  for (std::size_t i = 0; i < report.at("records").size(); ++i) {
    Json r = report.at("records")[i];
    if (r.at("name").as_string() == name) r.set("value", value);
    records.push_back(std::move(r));
  }
  Json out = report;
  out.set("records", std::move(records));
  return out;
}

/// A value just past gated record `r`'s limit, and one exactly at it:
/// a flipped bool, a count +1, or std::nextafter on the bound.
std::pair<Json, Json> past_and_at(const Json& report, const Json& r) {
  const std::string gate = r.at("gate").as_string();
  const Json* limit = r.find("limit");
  if (gate == "hard") {
    const Json& want = limit != nullptr ? *limit : r.at("value");
    if (want.is_bool()) return {Json(!want.as_bool()), want};
    return {Json(want.as_double() + 1.0), want};
  }
  if (gate == "floor") {
    return {Json(std::nextafter(limit->as_double(), -kInf)), *limit};
  }
  const double ref = r.has("of")
                         ? record(report, r.at("of").as_string())
                               .at("value")
                               .as_double()
                         : r.at("value").as_double();
  const double slack = r.has("slack") ? r.at("slack").as_double() : 0.0;
  const double bound = limit->as_double() * ref + slack;
  return {Json(std::nextafter(bound, kInf)), Json(bound)};
}

class BaselineGates : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineGates, PassesAgainstItself) {
  const Json base = read_baseline(GetParam());
  const auto res = bench::check_report(base, base);
  for (const auto& f : res.failures) ADD_FAILURE() << f.line;
  EXPECT_TRUE(res.warnings.empty());
  EXPECT_GT(res.evaluated, 0u);
}

TEST_P(BaselineGates, EachGateFailsJustPastItsLimitAndHoldsAtIt) {
  // Gates per bench, workload-shape checks included (19 + 5).
  const std::map<std::string, std::size_t> kGates = {
      {"pipeline", 4}, {"kernels", 5}, {"oocore", 4}, {"serve", 6},
      {"workloads", 5}};
  const Json base = read_baseline(GetParam());
  std::size_t gates = 0;
  const Json& records = base.at("records");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Json& r = records[i];
    if (!r.has("gate")) continue;
    ++gates;
    const std::string name = r.at("name").as_string();
    const auto [past, at] = past_and_at(base, r);
    const auto failed =
        bench::check_report(with_value(base, name, past), base);
    ASSERT_EQ(failed.failures.size(), 1u) << name << " at " << past.dump();
    EXPECT_EQ(failed.failures[0].record, name) << failed.failures[0].line;
    const auto held = bench::check_report(with_value(base, name, at), base);
    for (const auto& f : held.failures) ADD_FAILURE() << f.line;
  }
  EXPECT_EQ(gates, kGates.at(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Committed, BaselineGates,
                         ::testing::Values("pipeline", "kernels", "oocore",
                                           "serve", "workloads"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// One record of each gate form.
bench::Report demo() {
  bench::Report r{"demo", {}};
  r.add({.name = "rows", .value = 100, .unit = "rows", .gate = "hard"});
  r.add({.name = "identical", .value = true, .unit = "bool", .gate = "hard",
         .limit = true});
  r.add({.name = "speedup", .value = 1.5, .unit = "x", .gate = "floor",
         .limit = 1.2});
  r.add({.name = "direct_ms", .value = 2.0, .unit = "ms"});
  r.add({.name = "routed_ms", .value = 3.0, .unit = "ms", .gate = "envelope",
         .limit = 3, .slack = 0.5, .of = "direct_ms"});
  r.add({.name = "wall_ms", .value = 10.0, .unit = "ms", .gate = "envelope",
         .limit = 1.5});
  return r;
}

bench::CheckResult check(const bench::Report& current,
                         const bench::Report& baseline) {
  return bench::check_report(Json::parse(current.dump()),
                             Json::parse(baseline.dump()));
}

std::vector<std::string> failed_records(const bench::Report& current,
                                        const bench::Report& baseline) {
  std::vector<std::string> out;
  for (const auto& f : check(current, baseline).failures) {
    out.push_back(f.record);
  }
  return out;
}

using Names = std::vector<std::string>;

TEST(BenchReport, WrittenReportPassesAgainstItself) {
  const auto res = check(demo(), demo());
  EXPECT_TRUE(res.failures.empty());
  EXPECT_EQ(res.evaluated, 5u);
}

TEST(BenchReport, FailureLineNamesValueLimitAndReference) {
  auto slow = demo();
  slow.records[5].value = 16.0;
  const auto res = check(slow, demo());
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_EQ(res.failures[0].line,
            "demo wall_ms: value 16 > envelope limit 1.5 x ref 10 (the "
            "baseline's wall_ms) + slack 0 = 15");
  auto routed = demo();
  routed.records[4].value = 6.75;
  EXPECT_EQ(check(routed, demo()).failures.at(0).line,
            "demo routed_ms: value 6.75 > envelope limit 3 x ref 2 (this "
            "run's \"direct_ms\") + slack 0.5 = 6.5");
}

TEST(BenchReport, GatedRecordsMustMatchTheBaseline) {
  auto missing = demo();
  missing.records.erase(missing.records.begin() + 2);
  EXPECT_EQ(failed_records(missing, demo()), Names{"speedup"});
  auto dropped = demo();
  dropped.records[2].gate.clear();
  dropped.records[2].limit = Json();
  EXPECT_EQ(failed_records(dropped, demo()), Names{"speedup"});
  auto retuned = demo();
  retuned.records[5].limit = 1.6;
  EXPECT_EQ(failed_records(retuned, demo()), Names{"wall_ms"});
  auto reslacked = demo();
  reslacked.records[4].slack = 1.0;
  EXPECT_EQ(failed_records(reslacked, demo()), Names{"routed_ms"});
  auto added = demo();
  added.records[3].gate = "floor";
  added.records[3].limit = 1.0;
  EXPECT_EQ(failed_records(added, demo()), Names{"direct_ms"});
}

TEST(BenchReport, RefusesAnotherBench) {
  auto other = demo();
  other.bench = "other";
  const auto res = check(other, demo());
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_EQ(res.failures[0].record, "");
  EXPECT_EQ(res.failures[0].line,
            "other report: bench 'other' != the baseline's 'demo'");
}

TEST(BenchReport, RefusesGatesItCannotRead) {
  // Each doctored the same way on both sides, so the gate sets match.
  auto dangling = demo();
  dangling.records[4].of = "nowhere";
  EXPECT_EQ(failed_records(dangling, dangling), Names{"routed_ms"});
  auto unknown = demo();
  unknown.records[2].gate = "ceiling";
  EXPECT_EQ(failed_records(unknown, unknown), Names{"speedup"});
  auto bool_limit = demo();
  bool_limit.records[2].limit = true;
  EXPECT_EQ(failed_records(bool_limit, bool_limit), Names{"speedup"});

  // A value of the wrong type, against the clean baseline.
  auto text_floor = demo();
  text_floor.records[2].value = "fast";
  EXPECT_EQ(failed_records(text_floor, demo()), Names{"speedup"});
  auto bool_count = demo();
  bool_count.records[0].value = true;
  EXPECT_EQ(failed_records(bool_count, demo()), Names{"rows"});
  auto count_bit = demo();
  count_bit.records[1].value = 1;
  EXPECT_EQ(failed_records(count_bit, demo()), Names{"identical"});
  auto text_wall = demo();
  text_wall.records[5].value = "10";
  EXPECT_EQ(failed_records(text_wall, demo()), Names{"wall_ms"});

  auto repeated = demo();
  repeated.records.push_back(repeated.records[3]);
  EXPECT_EQ(failed_records(repeated, demo()), Names{""});
}

TEST(BenchReport, SkippedFloorPassesWithAWarning) {
  auto scalar = demo();
  scalar.records[2].value = 0.5;
  scalar.records[2].skipped = "AVX2 tier inactive";
  const auto res = check(scalar, demo());
  EXPECT_TRUE(res.failures.empty());
  ASSERT_EQ(res.warnings.size(), 1u);
  EXPECT_NE(res.warnings[0].find("speedup"), std::string::npos);
  EXPECT_NE(res.warnings[0].find("AVX2 tier inactive"), std::string::npos);
  EXPECT_EQ(res.evaluated, 4u);
}

}  // namespace
}  // namespace iotax
