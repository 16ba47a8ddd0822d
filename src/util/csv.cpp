#include "src/util/csv.hpp"

#include <fstream>
#include <stdexcept>

namespace iotax::util {

std::size_t Csv::column(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw std::out_of_range("Csv::column: no column named '" + name + "'");
}

std::vector<std::string> parse_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c != '\r') {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"") != std::string::npos ||
      (!field.empty() && (field.front() == ' ' || field.back() == ' '));
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

bool CsvTokenizer::next(std::span<const std::string_view>* fields) {
  std::string_view line;
  do {
    if (!lines_.next(&line)) return false;
  } while (line.empty());
  fields_.clear();
  std::size_t start = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == ',') {
      fields_.push_back(line.substr(start, i - start));
      start = i + 1;
    } else if (c == '"' || c == '\r') {
      quoted_ = parse_csv_line(std::string(line));
      fields_.assign(quoted_.begin(), quoted_.end());
      *fields = fields_;
      return true;
    }
  }
  fields_.push_back(line.substr(start));
  *fields = fields_;
  return true;
}

Csv read_csv(std::istream& in, bool has_header) {
  Csv csv;
  CsvTokenizer tokens(in);
  std::span<const std::string_view> fields;
  bool first = true;
  while (tokens.next(&fields)) {
    std::vector<std::string> row(fields.begin(), fields.end());
    if (first && has_header) {
      csv.header = std::move(row);
    } else {
      csv.rows.push_back(std::move(row));
    }
    first = false;
  }
  return csv;
}

Csv read_csv_file(const std::string& path, bool has_header) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_csv_file: cannot open " + path);
  return read_csv(in, has_header);
}

void write_csv(std::ostream& out, const Csv& csv) {
  auto write_row = [&out](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out << ',';
      out << csv_escape(row[i]);
    }
    out << '\n';
  };
  if (!csv.header.empty()) write_row(csv.header);
  for (const auto& row : csv.rows) write_row(row);
}

void write_csv_file(const std::string& path, const Csv& csv) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_csv_file: cannot open " + path);
  write_csv(out, csv);
}

}  // namespace iotax::util
