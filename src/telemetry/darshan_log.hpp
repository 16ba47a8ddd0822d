// A darshan-parser-style text log format with writer and parser.
//
// The simulator does not hand Tables to the models directly: it writes
// job logs in this format and the dataset builder parses them back, so
// the pipeline round-trips through files exactly like a production
// Darshan deployment (modulo the binary container). The parser never
// throws on corrupt input: it has a strict mode (stop at the first
// malformed record) and a lenient mode that skips corrupt records and
// reports how many were dropped — production log archives always
// contain a few.
//
// Format, one record per job:
//   # iotax darshan log version: 1.0
//   # jobid: 42
//   # appid: 7
//   # configid: 3
//   # nprocs: 64
//   # nodes: 16
//   # start_time: 86400.0
//   # end_time: 86700.0
//   # placement_spread: 0.25
//   # agg_perf_mib: 1234.5
//   POSIX<TAB>-1<TAB>POSIX_OPENS<TAB>64
//   ...                                  (one line per non-zero counter)
//   MPIIO<TAB>-1<TAB>MPIIO_COLL_READS<TAB>128
//   # end_of_record
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/util/quarantine.hpp"

namespace iotax::telemetry {

/// One job's log: identification header plus both counter modules.
struct JobLogRecord {
  std::uint64_t job_id = 0;
  std::uint64_t app_id = 0;
  std::uint64_t config_id = 0;
  std::uint32_t n_procs = 1;
  std::uint32_t nodes = 1;
  double start_time = 0.0;
  double end_time = 0.0;
  double placement_spread = 0.0;
  /// Measured aggregate I/O throughput (MiB/s), the regression target.
  double agg_perf_mib = 0.0;
  /// Parallel to posix_feature_names() / mpiio_feature_names().
  std::vector<double> posix;
  std::vector<double> mpiio;
};

/// Append one record to the stream.
void write_record(std::ostream& out, const JobLogRecord& rec);

/// Write a whole archive (all records, one file).
void write_archive(const std::string& path,
                   const std::vector<JobLogRecord>& records);

struct ParseStats {
  std::size_t parsed = 0;
  std::size_t skipped = 0;  // corrupt records dropped in lenient mode
};

enum class ParseMode { kStrict, kLenient };

/// Result of a non-throwing parse. `ok` is false only when the container
/// itself was unusable (bad magic, unreadable stream) — per-record
/// corruption lands in `quarantine` instead, with reason codes, the
/// record index and the line number / byte offset where it was detected.
/// In kStrict mode the first defect of any kind sets ok=false and stops;
/// in kLenient mode parsing continues past every recoverable defect and
/// ok stays true unless the framing is beyond recovery.
struct ParseOutcome {
  std::vector<JobLogRecord> records;
  util::QuarantineReport quarantine;
  bool ok = true;
  std::string error;  // set when !ok

  ParseStats stats() const {
    return {records.size(), quarantine.total()};
  }
};

/// Parse all records from a stream; corruption is reported, never
/// thrown.
ParseOutcome parse_archive_outcome(std::istream& in,
                                   ParseMode mode = ParseMode::kLenient);
ParseOutcome parse_archive_file_outcome(const std::string& path,
                                        ParseMode mode = ParseMode::kLenient);

}  // namespace iotax::telemetry
