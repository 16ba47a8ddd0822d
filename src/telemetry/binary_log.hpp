// Compact binary container for job-log archives — the production format
// next to the human-readable text format in darshan_log.hpp. Real Darshan
// ships compressed binary logs and sites keep years of them; a credible
// pipeline needs a dense format with integrity checks.
//
// Layout (little-endian):
//   file header : magic "IOTXBLOG" (8) | u32 version | u32 record count
//   per record  : u32 payload size | u32 CRC32C of payload | payload
//   payload     : fixed header fields, then two sparse counter sections
//                 (u16 count, then (u16 index, f64 value) pairs each)
//
// The reader validates magic, version, counter-index bounds, and each
// record's checksum. In lenient mode, records that fail validation are
// skipped (and counted) by seeking to the next record boundary — the
// framing survives payload corruption.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/telemetry/darshan_log.hpp"

namespace iotax::telemetry {

inline constexpr char kBinaryMagic[8] = {'I', 'O', 'T', 'X',
                                         'B', 'L', 'O', 'G'};
inline constexpr std::uint32_t kBinaryVersion = 1;

/// CRC-32C (Castagnoli), bitwise implementation; used for record payloads.
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0);

/// Serialize records into the binary container.
void write_binary_archive(std::ostream& out,
                          const std::vector<JobLogRecord>& records);
void write_binary_archive_file(const std::string& path,
                               const std::vector<JobLogRecord>& records);

/// Parse a binary container; corruption is reported, never thrown.
/// Container-level corruption (bad magic/version, unreadable stream)
/// sets ok=false; per-record corruption is quarantined with its byte
/// offset. When the stream ends early, every record the
/// header promised but the bytes no longer hold is quarantined as
/// `truncated`, so quarantine counts match ground truth exactly even for
/// hard-truncated files.
ParseOutcome read_binary_archive_outcome(std::istream& in,
                                         ParseMode mode = ParseMode::kLenient);
ParseOutcome read_binary_archive_file_outcome(
    const std::string& path, ParseMode mode = ParseMode::kLenient);

}  // namespace iotax::telemetry
