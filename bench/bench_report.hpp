// One output schema for the A/B bench harnesses, and the one check that
// holds a harness's output to its committed baseline.
//
// A harness writes BENCH_<bench>.json, one record per reported number:
//   {"bench": "pipeline", "records": [
//     {"name":"view.wall_ms","value":4893.8,"unit":"ms",
//      "gate":"envelope","limit":1.5}, ...]}
// A record without "gate" is information only. The gates:
//   hard      value == limit: true for an identity bit, 0 for a failure
//             count. Without "limit", value == the baseline's value; the
//             workload-shape counts use that form, so a bench that
//             changes shape needs a new baseline.
//   floor     value >= limit.
//   envelope  value <= limit * ref + slack, with slack 0 when absent.
//             ref is this run's value of the record named by "of", or
//             the baseline's value of this record when there is no "of".
// A gated record that carries "skipped" (the reason) is not evaluated;
// the check prints the reason as a warning.
//
// check_report(current, baseline) fails when the two reports name
// different benches; when their gated records differ in name, gate,
// limit, slack or of (a gate added, dropped or retuned in a harness
// fails until its baseline is regenerated in the same change, so every
// threshold change shows in the baseline's diff); and when a gate does
// not hold. Each failure is one line naming the bench, the record, its
// value, the limit and the reference. The check reads numbers, not
// their text: 1.1 and 1.1000000000000001 are the same limit.
//
// Regenerating a baseline means copying the harness's output over it,
// from build/bench/BENCH_<bench>.json to
// bench/baselines/BENCH_<bench>.baseline.json.
// From the command line the check is `iotax_check_bench CURRENT BASELINE`
// (tools/check_bench.cpp).
#pragma once

#include <charconv>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/util/json.hpp"

namespace iotax::bench {

/// One reported number and, when gated, the bound it is held to.
struct Record {
  std::string name;
  util::Json value;
  std::string unit;
  std::string gate = {};     // "hard", "floor", "envelope"; empty: info
  util::Json limit = {};     // null: none (hard then reads the baseline)
  double slack = 0.0;        // envelope only
  std::string of = {};       // envelope only: the record that is its ref
  std::string skipped = {};  // why the gate was not evaluated in this run
};

struct Report {
  std::string bench;
  std::vector<Record> records;

  void add(Record r) { records.push_back(std::move(r)); }

  /// The report as JSON, one record a line so a diff shows each change
  /// on its own line.
  std::string dump() const {
    std::string out =
        "{\n  \"bench\": " + util::json_quote(bench) + ",\n  \"records\": [";
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      util::Json j = util::Json::object();
      j.set("name", r.name);
      j.set("value", r.value);
      j.set("unit", r.unit);
      if (!r.gate.empty()) j.set("gate", r.gate);
      if (!r.limit.is_null()) j.set("limit", r.limit);
      if (r.slack != 0.0) j.set("slack", r.slack);
      if (!r.of.empty()) j.set("of", r.of);
      if (!r.skipped.empty()) j.set("skipped", r.skipped);
      out += (i == 0 ? "\n    " : ",\n    ") + j.dump();
    }
    return out + "\n  ]\n}\n";
  }

  /// Writes BENCH_<bench>.json into the working directory.
  void write() const {
    const std::string path = "BENCH_" + bench + ".json";
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fputs(dump().c_str(), out);
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  }
};

/// A gate that did not hold, or a record the check cannot read.
struct Failure {
  std::string record;  // empty when the report as a whole is at fault
  std::string line;    // names the bench, record, value, limit and ref
};

struct CheckResult {
  std::vector<Failure> failures;
  std::vector<std::string> warnings;  // skipped gates, with the reason
  std::size_t evaluated = 0;          // gates checked (held or failed)
};

namespace report_detail {

using Index = std::map<std::string, const util::Json*>;

/// The shortest text that reads back as the same double.
inline std::string num(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

inline std::string text(const util::Json* v) {
  if (v == nullptr) return "(none)";
  return v->is_number() ? num(v->as_double()) : v->dump();
}

/// The part of a record that states its gate, as both sides compare it.
inline std::string gate_spec(const util::Json& r) {
  std::string spec;
  for (const char* key : {"gate", "limit", "slack", "of"}) {
    if (const util::Json* v = r.find(key)) {
      spec += (spec.empty() ? "" : " ") + std::string(key) + "=" + text(v);
    }
  }
  return spec;
}

inline const util::Json* value_of(const Index& side, const std::string& name) {
  const auto it = side.find(name);
  return it == side.end() ? nullptr : it->second->find("value");
}

inline bool numbers(std::initializer_list<const util::Json*> vs) {
  for (const util::Json* v : vs) {
    if (v == nullptr || !v->is_number()) return false;
  }
  return true;
}

}  // namespace report_detail

/// Holds `current` (a harness's output) to `baseline` (its committed
/// baseline); see the file comment for the rules.
inline CheckResult check_report(const util::Json& current,
                                const util::Json& baseline) {
  using report_detail::gate_spec;
  using report_detail::text;
  using report_detail::value_of;
  CheckResult res;
  const auto bench_of = [](const util::Json& report) {
    const util::Json* b = report.find("bench");
    return b != nullptr && b->is_string() ? b->as_string() : std::string();
  };
  const std::string bench = bench_of(current);
  const auto fail = [&](const std::string& record, const std::string& what) {
    res.failures.push_back(
        {record, bench + " " + (record.empty() ? "report" : record) + ": " +
                     what});
  };
  if (bench.empty() || bench != bench_of(baseline)) {
    fail("", "bench '" + bench + "' != the baseline's '" +
                 bench_of(baseline) + "'");
    return res;
  }
  const auto index = [&](const util::Json& report, const std::string& side) {
    report_detail::Index by_name;
    const util::Json* records = report.find("records");
    if (records == nullptr || !records->is_array()) {
      fail("", side + " has no records array");
      return by_name;
    }
    for (std::size_t i = 0; i < records->size(); ++i) {
      const util::Json& r = (*records)[i];
      const util::Json* name = r.find("name");
      if (name == nullptr || !name->is_string() ||
          !by_name.emplace(name->as_string(), &r).second) {
        fail("", side + "'s record " + std::to_string(i) +
                     " has no name or repeats one");
      }
    }
    return by_name;
  };
  const auto cur = index(current, "this run");
  const auto base = index(baseline, "the baseline");

  // The same gates on both sides.
  for (const auto& [name, r] : base) {
    const auto it = cur.find(name);
    if (r->has("gate") && (it == cur.end() || !it->second->has("gate"))) {
      fail(name, "gated in the baseline (" + gate_spec(*r) +
                     ") but not in this run");
    }
  }
  for (const auto& [name, r] : cur) {
    if (!r->has("gate")) continue;
    const auto b = base.find(name);
    if (b == base.end() || !b->second->has("gate")) {
      fail(name, "gate " + gate_spec(*r) +
                     " is not in the baseline; regenerate the baseline");
      continue;
    }
    if (gate_spec(*r) != gate_spec(*b->second)) {
      fail(name, "gate " + gate_spec(*r) + " != the baseline's " +
                     gate_spec(*b->second) + "; regenerate the baseline");
      continue;
    }
    if (const util::Json* why = r->find("skipped")) {
      res.warnings.push_back(bench + " " + name + ": " + gate_spec(*r) +
                             " skipped: " + text(why));
      continue;
    }
    ++res.evaluated;
    const util::Json& g = r->at("gate");
    const std::string gate = g.is_string() ? g.as_string() : g.dump();
    const util::Json* value = r->find("value");
    const util::Json* limit = r->find("limit");
    if (gate == "hard") {
      const util::Json* want = limit != nullptr ? limit : value_of(base, name);
      const std::string ref = limit != nullptr ? "limit" : "baseline";
      if (value == nullptr || want == nullptr ||
          value->type() != want->type() ||
          !(value->is_bool() || value->is_number())) {
        fail(name, "value " + text(value) + " and " + ref + " " + text(want) +
                       " are not two numbers or two bools");
      } else if (value->is_bool() ? value->as_bool() != want->as_bool()
                                  : value->as_double() != want->as_double()) {
        fail(name, "value " + text(value) + " != " + ref + " " + text(want) +
                       " (hard)");
      }
    } else if (gate == "floor") {
      if (!report_detail::numbers({value, limit})) {
        fail(name, "value " + text(value) + " and limit " + text(limit) +
                       " are not two numbers");
      } else if (!(value->as_double() >= limit->as_double())) {
        fail(name, "value " + text(value) + " < floor limit " + text(limit));
      }
    } else if (gate == "envelope") {
      const util::Json* of = r->find("of");
      const util::Json* ref =
          of == nullptr ? value_of(base, name)
                        : of->is_string() ? value_of(cur, of->as_string())
                                          : nullptr;
      const std::string ref_name = of == nullptr
                                       ? "the baseline's " + name
                                       : "this run's " + text(of);
      const util::Json zero(0.0);
      const util::Json* slack = r->has("slack") ? r->find("slack") : &zero;
      if (!report_detail::numbers({value, limit, ref, slack})) {
        fail(name, "value " + text(value) + ", limit " + text(limit) +
                       ", ref " + text(ref) + " (" + ref_name +
                       ") and slack " + text(slack) +
                       " are not all numbers");
        continue;
      }
      const double bound =
          limit->as_double() * ref->as_double() + slack->as_double();
      if (!(value->as_double() <= bound)) {
        fail(name, "value " + text(value) + " > envelope limit " +
                       text(limit) + " x ref " + text(ref) + " (" + ref_name +
                       ") + slack " + text(slack) + " = " +
                       report_detail::num(bound));
      }
    } else {
      fail(name, "unknown gate " + gate);
    }
  }
  return res;
}

}  // namespace iotax::bench
