// The shared text-ingest path: util::LineReader against std::getline,
// the CSV tokenizer behind util::read_csv and data::read_table_csv
// against the per-line reference (parse_csv_line + parse_double), CSV
// rejections that name the file, the line and a reason, and darshan
// parsing across chunk edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/data/table_io.hpp"
#include "src/telemetry/counters.hpp"
#include "src/telemetry/darshan_log.hpp"
#include "src/util/csv.hpp"
#include "src/util/line_reader.hpp"
#include "src/util/str.hpp"

namespace iotax {
namespace {

constexpr std::size_t kChunk = util::LineReader::kChunkBytes;

/// std::getline's lines, each with one trailing '\r' popped.
std::vector<std::string> getline_lines(const std::string& bytes) {
  std::istringstream in(bytes);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    out.push_back(line);
  }
  return out;
}

std::vector<std::string> reader_lines(const std::string& bytes) {
  std::istringstream in(bytes);
  util::LineReader reader(in);
  std::vector<std::string> out;
  std::string_view line;
  while (reader.next(&line)) {
    out.emplace_back(line);
    EXPECT_EQ(reader.line_no(), out.size());
  }
  EXPECT_FALSE(reader.next(&line));  // the end stays the end
  return out;
}

void expect_same_lines(const std::string& bytes, const char* label) {
  EXPECT_EQ(reader_lines(bytes), getline_lines(bytes)) << label;
}

TEST(LineReader, MatchesGetlineOnEdgeCases) {
  expect_same_lines("", "empty stream");
  expect_same_lines("\n", "one newline");
  expect_same_lines("\n\n\n", "blank lines");
  expect_same_lines("abc", "no final newline");
  expect_same_lines("a,b\nc,d", "last line unterminated");
  expect_same_lines("a\r\nb\r\n", "CRLF");
  expect_same_lines("\r", "a lone CR");
  expect_same_lines("x\r\r\n\r\n", "only one trailing CR is dropped");
  expect_same_lines("mid\rline\n", "an inner CR stays");
  expect_same_lines(std::string("a\0b\nc\0\n", 8), "embedded NUL");
}

TEST(LineReader, MatchesGetlineAcrossChunkEdges) {
  const std::string exact(kChunk, 'x');
  expect_same_lines(exact + "\n", "a line of exactly one chunk");
  expect_same_lines(exact, "one chunk, no newline");
  expect_same_lines(exact + "\nnext\n", "one chunk then another line");
  expect_same_lines(std::string(kChunk - 1, 'y') + "\n" + "z\n",
                    "newline is the chunk's last byte");
  // '\r' is the chunk's last byte and its '\n' the next chunk's first.
  expect_same_lines(std::string(kChunk - 1, 'c') + "\r\nafter\r\n",
                    "CRLF split across a chunk edge");
  expect_same_lines("short\n" + std::string(200 * 1024, 'L') + "\ntail",
                    "a 200 KiB line");
  // Lines of every length from 0 to 700 bytes, so edges land everywhere.
  std::string mixed;
  for (std::size_t len = 0; mixed.size() < 3 * kChunk; len = (len + 37) % 701) {
    mixed += std::string(len, static_cast<char>('a' + len % 26));
    mixed += len % 3 == 0 ? "\r\n" : "\n";
  }
  expect_same_lines(mixed, "mixed lengths over three chunks");
}

TEST(LineReader, ReadsOneChunkAtATime) {
  std::string bytes;
  while (bytes.size() < 16 * kChunk) bytes += std::string(99, 'r') + "\n";
  std::istringstream in(bytes);
  util::LineReader reader(in);
  std::string_view line;
  ASSERT_TRUE(reader.next(&line));
  EXPECT_EQ(line, std::string(99, 'r'));
  // The first line needed one chunk; the rest of the stream is unread.
  EXPECT_EQ(static_cast<std::size_t>(in.tellg()), kChunk);
}

// ---- CSV ----------------------------------------------------------------

/// The per-line reference: getline, pop one '\r', skip blank lines,
/// parse_csv_line, then parse_double for every data field.
data::Table reference_table(const std::string& bytes) {
  std::istringstream in(bytes);
  std::string line;
  std::vector<std::string> names;
  std::vector<std::vector<double>> cols;
  bool header = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto fields = util::parse_csv_line(line);
    if (header) {
      names = fields;
      cols.resize(names.size());
      header = false;
      continue;
    }
    EXPECT_EQ(fields.size(), names.size());
    for (std::size_t i = 0; i < fields.size(); ++i) {
      cols[i].push_back(util::parse_double(fields[i]));
    }
  }
  data::Table table;
  for (std::size_t i = 0; i < names.size(); ++i) {
    table.add_column(names[i], cols[i]);
  }
  return table;
}

std::string write_temp(const std::string& name, const std::string& bytes) {
  const auto path =
      (std::filesystem::temp_directory_path() / name).string();
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  return path;
}

void expect_same_bits(const data::Table& got, const data::Table& want) {
  ASSERT_EQ(got.names(), want.names());
  ASSERT_EQ(got.n_rows(), want.n_rows());
  for (std::size_t c = 0; c < want.n_cols(); ++c) {
    const auto a = got.col(c);
    const auto b = want.col(c);
    for (std::size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[r]),
                std::bit_cast<std::uint64_t>(b[r]))
          << "column " << want.names()[c] << " row " << r;
    }
  }
}

/// A CSV over two chunks mixing every input shape the tokenizer routes:
/// plain rows, quoted numbers and names, an embedded '\r', spaces
/// around numbers, CRLF, blank lines, and no final newline.
std::string mixed_csv() {
  std::string s = "a,\"b,quoted\",c\n";
  for (int r = 0; s.size() < 2 * kChunk + 1000; ++r) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g,%.17g,%d", r * 0.1, -r / 7.0, r);
    std::string row = buf;
    switch (r % 7) {
      case 1: row = "\"" + std::to_string(r) + ".5\",1e-3,\"-0\""; break;
      case 2: row += "\r"; break;  // CRLF
      case 3: row = " 3.25 ,\t4 , 5e10"; break;
      case 4: row = "1.5,\r2.5,3"; break;  // inner CR: parse_csv_line drops it
      case 5: s += "\n"; break;            // a blank line before the row
      default: break;
    }
    s += row + "\n";
  }
  s += "7,8,9";  // no final newline
  return s;
}

TEST(TableCsv, MatchesPerLineReferenceOverChunks) {
  const std::string bytes = mixed_csv();
  ASSERT_GT(bytes.size(), 2 * kChunk);
  const auto path = write_temp("iotax_mixed_tbl.csv", bytes);
  const auto got = data::read_table_csv(path);
  const auto want = reference_table(bytes);
  EXPECT_EQ(got.names(),
            (std::vector<std::string>{"a", "b,quoted", "c"}));
  EXPECT_GT(got.n_rows(), 3000u);
  expect_same_bits(got, want);
  std::filesystem::remove(path);
}

TEST(TableCsv, ReadCsvMatchesPerLineReference) {
  const std::string bytes = mixed_csv();
  std::istringstream in(bytes);
  const auto csv = util::read_csv(in);
  std::istringstream ref(bytes);
  std::string line;
  std::vector<std::vector<std::string>> lines;
  while (std::getline(ref, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) lines.push_back(util::parse_csv_line(line));
  }
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(csv.header, lines.front());
  EXPECT_EQ(csv.rows,
            std::vector<std::vector<std::string>>(lines.begin() + 1,
                                                  lines.end()));
}

TEST(TableCsv, EmptyAndHeaderOnlyFiles) {
  const auto empty = write_temp("iotax_empty_tbl.csv", "\n\n");
  EXPECT_EQ(data::read_table_csv(empty).n_cols(), 0u);
  const auto header = write_temp("iotax_header_tbl.csv", "x,y\r\n");
  const auto t = data::read_table_csv(header);
  EXPECT_EQ(t.names(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(t.n_rows(), 0u);
  std::filesystem::remove(empty);
  std::filesystem::remove(header);
}

/// The message of the E that read_table_csv throws on `path`, or "" if
/// it throws none.
template <typename E>
std::string message_of(const std::string& path) {
  try {
    (void)data::read_table_csv(path);
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

TEST(TableCsv, RejectionsNameFileLineAndReason) {
  // Line numbers count every line, blank ones included.
  const auto ragged = write_temp("iotax_ragged_tbl.csv", "a,b\n1,2\n\n3,4,5\n");
  EXPECT_EQ(message_of<std::runtime_error>(ragged),
            ragged + ":4: ragged-row: row has 3 fields, header has 2");
  const auto bad =
      write_temp("iotax_nonnum_tbl.csv", "a,b\r\n1,2\r\n3, x1 \r\n");
  EXPECT_EQ(message_of<std::invalid_argument>(bad),
            bad + ":3: bad-number: parse_double: bad input 'x1'");
  std::filesystem::remove(ragged);
  std::filesystem::remove(bad);
}

// ---- darshan text ---------------------------------------------------------

telemetry::JobLogRecord chunk_record(std::uint64_t job_id) {
  telemetry::JobLogRecord rec;
  rec.job_id = job_id;
  rec.app_id = job_id % 5;
  rec.config_id = job_id % 3;
  rec.n_procs = 32;
  rec.nodes = 4;
  rec.start_time = 100.0 * static_cast<double>(job_id);
  rec.end_time = rec.start_time + 55.5;
  rec.placement_spread = 0.5;
  rec.agg_perf_mib = 800.0 + static_cast<double>(job_id);
  rec.posix.assign(telemetry::posix_feature_names().size(), 0.0);
  rec.mpiio.assign(telemetry::mpiio_feature_names().size(), 0.0);
  for (std::size_t i = 0; i < rec.posix.size(); i += 3) {
    rec.posix[i] = static_cast<double>(job_id * 1000 + i) + 0.25;
  }
  rec.mpiio[2] = 7.0;
  return rec;
}

TEST(DarshanText, MangledCounterAcrossChunkEdgeIsABadNumber) {
  std::ostringstream buf;
  std::uint64_t n = 0;
  while (buf.str().size() < 3 * kChunk) {
    telemetry::write_record(buf, chunk_record(++n));
  }
  std::string bytes = buf.str();
  // The last counter line whose value field can straddle the first
  // chunk edge once blank lines (skipped, but counted) shift it there.
  std::size_t start = 0, value = 0;
  for (std::size_t pos = 0; pos < kChunk;) {
    const std::size_t end = bytes.find('\n', pos);
    const std::string_view line(bytes.data() + pos, end - pos);
    if (util::starts_with(line, "POSIX\t")) {
      const std::size_t v = pos + line.rfind('\t') + 1;
      if (v + 1 < kChunk) {
        start = pos;
        value = v;
      }
    }
    pos = end + 1;
  }
  ASSERT_GT(value, 0u);
  const std::size_t end = bytes.find('\n', value);
  bytes.replace(value, end - value, "12x4");
  const std::size_t pad = kChunk - value - 2;  // the edge falls in "12x4"
  bytes.insert(0, std::string(pad, '\n'));
  start += pad;
  value += pad;
  ASSERT_LT(value, kChunk);
  ASSERT_GT(value + 4, kChunk);

  // The line number std::getline counts for the mangled line.
  std::size_t want_line = 0;
  {
    std::istringstream in(bytes);
    std::string line;
    std::size_t pos = 0, no = 0;
    while (std::getline(in, line)) {
      ++no;
      if (pos == start) want_line = no;
      pos += line.size() + 1;
    }
  }
  ASSERT_GT(want_line, pad);

  std::istringstream in(bytes);
  const auto out = telemetry::parse_archive_outcome(in);
  EXPECT_TRUE(out.ok);
  ASSERT_EQ(out.quarantine.total(), 1u);
  const auto& e = out.quarantine.entries().front();
  EXPECT_EQ(e.reason, util::Reason::kBadNumber);
  EXPECT_EQ(e.offset, want_line);
  EXPECT_EQ(e.detail, "parse_double: bad input '12x4'");
  EXPECT_EQ(out.records.size(), n - 1);
  // Every other record round-trips, in order.
  for (const auto& rec : out.records) {
    EXPECT_NE(rec.job_id, e.job_id);
    const auto want = chunk_record(rec.job_id);
    EXPECT_EQ(rec.posix, want.posix);
    EXPECT_EQ(rec.mpiio, want.mpiio);
    EXPECT_EQ(rec.agg_perf_mib, want.agg_perf_mib);
  }
}

TEST(DarshanText, CounterLineShapesKeepTheirReasons) {
  struct Case {
    const char* line;
    util::Reason reason;
    const char* detail;
  };
  const Case cases[] = {
      {"POSIX\t-1\tPOSIX_OPENS", util::Reason::kMalformedLine,
       "counter line must have 4 tab-separated fields"},
      {"POSIX\t-1\tPOSIX_OPENS\t4\t5", util::Reason::kMalformedLine,
       "counter line must have 4 tab-separated fields"},
      {"POSIX\t-1\tPOSIX_NOPE\t4", util::Reason::kUnknownCounter,
       "unknown POSIX counter 'POSIX_NOPE'"},
      {"MPIIO\t-1\tMPIIO_NOPE\t4", util::Reason::kUnknownCounter,
       "unknown MPIIO counter 'MPIIO_NOPE'"},
      {"STDIO\t-1\tSTDIO_OPENS\t4", util::Reason::kUnknownModule,
       "unknown module 'STDIO'"},
  };
  for (const auto& c : cases) {
    std::ostringstream buf;
    telemetry::write_record(buf, chunk_record(1));
    std::string bytes = buf.str();
    // The bad line goes just before the record's terminator.
    const auto end = bytes.find("# end_of_record");
    bytes.insert(end, std::string(c.line) + "\n");
    const auto want_line = static_cast<std::size_t>(
        std::count(bytes.begin(), bytes.begin() + static_cast<long>(end),
                   '\n') + 1);
    std::istringstream in(bytes);
    const auto out = telemetry::parse_archive_outcome(in);
    ASSERT_EQ(out.quarantine.total(), 1u) << c.line;
    const auto& e = out.quarantine.entries().front();
    EXPECT_EQ(e.reason, c.reason) << c.line;
    EXPECT_EQ(e.detail, c.detail) << c.line;
    EXPECT_EQ(e.offset, want_line) << c.line;
    EXPECT_TRUE(out.records.empty()) << c.line;
  }
}

}  // namespace
}  // namespace iotax
