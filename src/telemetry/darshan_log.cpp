#include "src/telemetry/darshan_log.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "src/telemetry/counters.hpp"
#include "src/util/line_reader.hpp"
#include "src/util/str.hpp"

namespace iotax::telemetry {

namespace {

constexpr const char* kVersionLine = "# iotax darshan log version: 1.0";
constexpr const char* kEndOfRecord = "# end_of_record";

std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Index maps for counter names, built once. The transparent hash lets a
// counter line look its name up as a view, without building a string.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
using NameIndex =
    std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>;

const NameIndex& posix_index() {
  static const auto* map = [] {
    auto* m = new NameIndex();
    const auto& names = posix_feature_names();
    for (std::size_t i = 0; i < names.size(); ++i) (*m)[names[i]] = i;
    return m;
  }();
  return *map;
}

const NameIndex& mpiio_index() {
  static const auto* map = [] {
    auto* m = new NameIndex();
    const auto& names = mpiio_feature_names();
    for (std::size_t i = 0; i < names.size(); ++i) (*m)[names[i]] = i;
    return m;
  }();
  return *map;
}

/// Cut a counter line at its tabs into `fields`; false unless it has
/// exactly four fields.
bool split_counter_line(std::string_view line, std::string_view* fields) {
  std::size_t start = 0;
  for (int f = 0; f < 3; ++f) {
    const auto tab = line.find('\t', start);
    if (tab == std::string_view::npos) return false;
    fields[f] = line.substr(start, tab - start);
    start = tab + 1;
  }
  fields[3] = line.substr(start);
  return fields[3].find('\t') == std::string_view::npos;
}

struct HeaderField {
  const char* key;
  bool seen = false;
};

}  // namespace

void write_record(std::ostream& out, const JobLogRecord& rec) {
  if (rec.posix.size() != posix_feature_names().size()) {
    throw std::invalid_argument("write_record: posix counter size mismatch");
  }
  if (rec.mpiio.size() != mpiio_feature_names().size()) {
    throw std::invalid_argument("write_record: mpiio counter size mismatch");
  }
  out << kVersionLine << '\n';
  out << "# jobid: " << rec.job_id << '\n';
  out << "# appid: " << rec.app_id << '\n';
  out << "# configid: " << rec.config_id << '\n';
  out << "# nprocs: " << rec.n_procs << '\n';
  out << "# nodes: " << rec.nodes << '\n';
  out << "# start_time: " << fmt_g(rec.start_time) << '\n';
  out << "# end_time: " << fmt_g(rec.end_time) << '\n';
  out << "# placement_spread: " << fmt_g(rec.placement_spread) << '\n';
  out << "# agg_perf_mib: " << fmt_g(rec.agg_perf_mib) << '\n';
  const auto& pnames = posix_feature_names();
  for (std::size_t i = 0; i < rec.posix.size(); ++i) {
    if (rec.posix[i] == 0.0) continue;  // sparse, like darshan-parser output
    out << "POSIX\t-1\t" << pnames[i] << '\t' << fmt_g(rec.posix[i]) << '\n';
  }
  const auto& mnames = mpiio_feature_names();
  for (std::size_t i = 0; i < rec.mpiio.size(); ++i) {
    if (rec.mpiio[i] == 0.0) continue;
    out << "MPIIO\t-1\t" << mnames[i] << '\t' << fmt_g(rec.mpiio[i]) << '\n';
  }
  out << kEndOfRecord << '\n';
}

void write_archive(const std::string& path,
                   const std::vector<JobLogRecord>& records) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_archive: cannot open " + path);
  for (const auto& rec : records) write_record(out, rec);
}

namespace {

/// How the shared parse core reacts to a defect: strict records it and
/// stops (the throwing entry points re-raise outcome.error); lenient
/// records it and resynchronises at the next record boundary.
enum class OnError { kStopFirst, kLenient };

ParseOutcome parse_core(std::istream& in, OnError on_error) {
  ParseOutcome out;
  util::LineReader lines(in);
  std::string_view line;
  std::size_t line_no = 0;
  std::size_t record_index = 0;  // index of the record being parsed

  JobLogRecord rec;
  bool in_record = false;
  bool record_bad = false;
  bool stop = false;
  // Header completeness tracking for the current record.
  int header_fields_seen = 0;
  constexpr int kRequiredHeaderFields = 9;

  const auto reset = [&] {
    rec = JobLogRecord{};
    rec.posix.assign(posix_feature_names().size(), 0.0);
    rec.mpiio.assign(mpiio_feature_names().size(), 0.0);
    in_record = false;
    record_bad = false;
    header_fields_seen = 0;
  };
  reset();

  const auto record_error = [&](util::Reason reason,
                                const std::string& what) {
    if (!record_bad) {
      // One quarantine entry per corrupt record: the first defect wins.
      out.quarantine.add({reason, rec.job_id, record_index, line_no, what});
    }
    record_bad = true;
    if (on_error == OnError::kStopFirst) {
      out.ok = false;
      out.error = "line " + std::to_string(line_no) + ": " + what;
      stop = true;
    }
  };

  while (!stop && lines.next(&line)) {
    ++line_no;
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;

    if (trimmed == kVersionLine) {
      if (in_record) {
        record_error(util::Reason::kTruncated,
                     "record not terminated before new record");
        ++record_index;
      }
      reset();
      in_record = true;
      continue;
    }
    if (trimmed == kEndOfRecord) {
      if (!in_record) {
        record_error(util::Reason::kMalformedLine,
                     "end_of_record outside a record");
      } else if (header_fields_seen < kRequiredHeaderFields) {
        record_error(util::Reason::kIncompleteHeader, "incomplete header");
      }
      if (in_record && !record_bad) out.records.push_back(std::move(rec));
      ++record_index;
      reset();
      continue;
    }
    if (!in_record) {
      record_error(util::Reason::kMalformedLine,
                   "content before version line");
      // Not inside a record: don't let the bad flag leak into the next one.
      record_bad = false;
      continue;
    }
    if (record_bad) continue;  // skip the rest of a corrupt record

    try {
      if (trimmed.front() == '#') {
        const auto colon = trimmed.find(':');
        if (colon == std::string_view::npos) {
          record_error(util::Reason::kMalformedHeader,
                       "malformed header line");
          continue;
        }
        const auto key = util::trim(trimmed.substr(1, colon - 1));
        const auto value = util::trim(trimmed.substr(colon + 1));
        ++header_fields_seen;
        if (key == "jobid") {
          rec.job_id = static_cast<std::uint64_t>(util::parse_int(value));
        } else if (key == "appid") {
          rec.app_id = static_cast<std::uint64_t>(util::parse_int(value));
        } else if (key == "configid") {
          rec.config_id = static_cast<std::uint64_t>(util::parse_int(value));
        } else if (key == "nprocs") {
          rec.n_procs = static_cast<std::uint32_t>(util::parse_int(value));
        } else if (key == "nodes") {
          rec.nodes = static_cast<std::uint32_t>(util::parse_int(value));
        } else if (key == "start_time") {
          rec.start_time = util::parse_double(value);
        } else if (key == "end_time") {
          rec.end_time = util::parse_double(value);
        } else if (key == "placement_spread") {
          rec.placement_spread = util::parse_double(value);
        } else if (key == "agg_perf_mib") {
          rec.agg_perf_mib = util::parse_double(value);
        } else {
          --header_fields_seen;  // unknown header keys are ignored
        }
        continue;
      }
      // Counter line: MODULE \t rank \t NAME \t value
      std::string_view fields[4];
      if (!split_counter_line(trimmed, fields)) {
        record_error(util::Reason::kMalformedLine,
                     "counter line must have 4 tab-separated fields");
        continue;
      }
      const auto module = fields[0];
      const auto name = fields[2];
      const double value = util::parse_double(fields[3]);
      if (module == "POSIX") {
        const auto it = posix_index().find(name);
        if (it == posix_index().end()) {
          record_error(util::Reason::kUnknownCounter,
                       "unknown POSIX counter '" + std::string(name) + "'");
          continue;
        }
        rec.posix[it->second] = value;
      } else if (module == "MPIIO") {
        const auto it = mpiio_index().find(name);
        if (it == mpiio_index().end()) {
          record_error(util::Reason::kUnknownCounter,
                       "unknown MPIIO counter '" + std::string(name) + "'");
          continue;
        }
        rec.mpiio[it->second] = value;
      } else {
        record_error(util::Reason::kUnknownModule,
                     "unknown module '" + std::string(module) + "'");
      }
    } catch (const std::invalid_argument& e) {
      record_error(util::Reason::kBadNumber, e.what());
    }
  }
  if (in_record && !stop) {
    if (!record_bad) {
      out.quarantine.add({util::Reason::kTruncated, rec.job_id, record_index,
                          line_no, "truncated final record"});
    }
    if (on_error == OnError::kStopFirst) {
      out.ok = false;
      out.error = "line " + std::to_string(line_no) +
                  ": truncated final record";
    }
  }
  return out;
}

}  // namespace

std::vector<JobLogRecord> parse_archive(std::istream& in, bool strict,
                                        ParseStats* stats) {
  // Legacy throwing entry point, now a thin wrapper over the
  // non-throwing core: strict mode re-raises the outcome's first defect
  // with the historical message shape ("darshan parse error at line N:
  // ...") so existing catch sites and tests see identical text.
  auto outcome =
      parse_core(in, strict ? OnError::kStopFirst : OnError::kLenient);
  if (strict && !outcome.ok) {
    throw std::runtime_error("darshan parse error at " + outcome.error);
  }
  if (stats != nullptr) *stats = outcome.stats();
  return std::move(outcome.records);
}

std::vector<JobLogRecord> parse_archive_file(const std::string& path,
                                             bool strict, ParseStats* stats) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("parse_archive_file: cannot open " + path);
  return parse_archive(in, strict, stats);
}

ParseOutcome parse_archive_outcome(std::istream& in, ParseMode mode) {
  return parse_core(in, mode == ParseMode::kStrict ? OnError::kStopFirst
                                                   : OnError::kLenient);
}

ParseOutcome parse_archive_file_outcome(const std::string& path,
                                        ParseMode mode) {
  std::ifstream in(path);
  if (!in) {
    ParseOutcome out;
    out.ok = false;
    out.error = "cannot open " + path;
    return out;
  }
  return parse_archive_outcome(in, mode);
}

}  // namespace iotax::telemetry
