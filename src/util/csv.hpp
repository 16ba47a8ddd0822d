// Minimal CSV reader/writer used by the dataset pipeline and benches.
// Handles quoting per RFC 4180 (quoted fields, embedded commas/quotes);
// does not support embedded newlines, which our log formats never emit.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/line_reader.hpp"

namespace iotax::util {

struct Csv {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Column index by name; throws std::out_of_range if absent.
  std::size_t column(const std::string& name) const;
};

/// Parse one CSV line into fields (RFC 4180 quoting).
std::vector<std::string> parse_csv_line(const std::string& line);

/// Splits a stream's CSV lines into fields, skipping blank lines: the
/// one tokenizer behind read_csv and data::read_table_csv. A line with
/// no '"' and no '\r' is cut at each ',' into views of the line
/// reader's buffer, with no string per field; any other line goes
/// through parse_csv_line.
class CsvTokenizer {
 public:
  explicit CsvTokenizer(std::istream& in) : lines_(in) {}

  /// Fields of the next non-blank line; false at the end of the input.
  /// The fields are valid until the next call.
  bool next(std::span<const std::string_view>* fields);

  /// 1-based number of the line last returned, as std::getline counts.
  std::size_t line_no() const { return lines_.line_no(); }

 private:
  LineReader lines_;
  std::vector<std::string_view> fields_;
  std::vector<std::string> quoted_;  // parse_csv_line's fields
};

/// Quote a field if it contains a comma, quote, or leading/trailing space.
std::string csv_escape(const std::string& field);

Csv read_csv(std::istream& in, bool has_header = true);
Csv read_csv_file(const std::string& path, bool has_header = true);

void write_csv(std::ostream& out, const Csv& csv);
void write_csv_file(const std::string& path, const Csv& csv);

}  // namespace iotax::util
