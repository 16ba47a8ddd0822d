#include "src/data/table_io.hpp"

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "src/util/csv.hpp"
#include "src/util/quarantine.hpp"
#include "src/util/str.hpp"

namespace iotax::data {

namespace {

constexpr const char* kMetaCols[] = {
    "__meta_job_id", "__meta_app_id",    "__meta_config_id",
    "__meta_start",  "__meta_end",       "__meta_nodes",
    "__meta_novel",  "__meta_log_fa",    "__meta_log_fg",
    "__meta_log_fl", "__meta_log_fn",    "__meta_target"};

util::Csv table_to_csv(const Table& table) {
  util::Csv csv;
  csv.header = table.names();
  csv.rows.resize(table.n_rows());
  for (auto& row : csv.rows) row.reserve(table.n_cols());
  for (std::size_t c = 0; c < table.n_cols(); ++c) {
    const auto col = table.col(c);
    for (std::size_t r = 0; r < col.size(); ++r) {
      // %.17g keeps doubles round-trippable.
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", col[r]);
      csv.rows[r].emplace_back(buf);
    }
  }
  return csv;
}

/// "<path>:<line>: <reason>: <what>", the shape of a CheckpointError.
std::string csv_error(const std::string& path, std::size_t line,
                      util::Reason reason, const std::string& what) {
  return path + ":" + std::to_string(line) + ": " +
         util::reason_name(reason) + ": " + what;
}

}  // namespace

void write_table_csv(const std::string& path, const Table& table) {
  util::write_csv_file(path, table_to_csv(table));
}

Table read_table_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_table_csv: cannot open " + path);
  util::CsvTokenizer tokens(in);
  std::span<const std::string_view> fields;
  if (!tokens.next(&fields)) return Table();
  Table table(std::vector<std::string>(fields.begin(), fields.end()));
  // Each field parses straight into its column: no table of strings.
  std::vector<std::vector<double>> cols(table.n_cols());
  while (tokens.next(&fields)) {
    if (fields.size() != cols.size()) {
      throw std::runtime_error(csv_error(
          path, tokens.line_no(), util::Reason::kRaggedRow,
          "row has " + std::to_string(fields.size()) + " fields, header has " +
              std::to_string(cols.size())));
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
      try {
        cols[i].push_back(util::parse_double(fields[i]));
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(csv_error(path, tokens.line_no(),
                                              util::Reason::kBadNumber,
                                              e.what()));
      }
    }
  }
  for (std::size_t c = 0; c < cols.size(); ++c) {
    // Callers keep loaded tables for a whole run: drop the growth slack.
    cols[c].shrink_to_fit();
    table.mutable_col(c) = std::move(cols[c]);
  }
  return table;
}

std::span<const char* const> dataset_meta_columns() { return kMetaCols; }

void encode_dataset_meta(const Dataset& ds, std::size_t row0, std::size_t n,
                         std::span<std::vector<double>> out) {
  if (out.size() != std::size(kMetaCols)) {
    throw std::invalid_argument("encode_dataset_meta: column count");
  }
  if (row0 + n > ds.size()) {
    throw std::out_of_range("encode_dataset_meta: row range");
  }
  for (auto& col : out) col.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& m = ds.meta[row0 + i];
    out[0][i] = static_cast<double>(m.job_id);
    out[1][i] = static_cast<double>(m.app_id);
    out[2][i] = static_cast<double>(m.config_id);
    out[3][i] = m.start_time;
    out[4][i] = m.end_time;
    out[5][i] = static_cast<double>(m.nodes);
    out[6][i] = m.novel_app ? 1.0 : 0.0;
    out[7][i] = m.log_fa;
    out[8][i] = m.log_fg;
    out[9][i] = m.log_fl;
    out[10][i] = m.log_fn;
    out[11][i] = ds.target[row0 + i];
  }
}

void decode_dataset_meta(std::span<const std::span<const double>> cols,
                         std::size_t n, std::vector<JobMeta>* meta,
                         std::vector<double>* target) {
  if (cols.size() != std::size(kMetaCols)) {
    throw std::invalid_argument("decode_dataset_meta: column count");
  }
  for (const auto& c : cols) {
    if (c.size() < n) throw std::out_of_range("decode_dataset_meta: rows");
  }
  meta->reserve(meta->size() + n);
  target->reserve(target->size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    JobMeta m;
    m.job_id = static_cast<std::uint64_t>(std::llround(cols[0][i]));
    m.app_id = static_cast<std::uint64_t>(std::llround(cols[1][i]));
    m.config_id = static_cast<std::uint64_t>(std::llround(cols[2][i]));
    m.start_time = cols[3][i];
    m.end_time = cols[4][i];
    m.nodes = static_cast<std::uint32_t>(std::llround(cols[5][i]));
    m.novel_app = cols[6][i] != 0.0;
    m.log_fa = cols[7][i];
    m.log_fg = cols[8][i];
    m.log_fl = cols[9][i];
    m.log_fn = cols[10][i];
    meta->push_back(m);
    target->push_back(cols[11][i]);
  }
}

void write_dataset_csv(const std::string& path, const Dataset& ds) {
  Table combined = ds.features;
  std::vector<std::vector<double>> meta_cols(std::size(kMetaCols));
  encode_dataset_meta(ds, 0, ds.size(), meta_cols);
  for (std::size_t c = 0; c < std::size(kMetaCols); ++c) {
    combined.add_column(kMetaCols[c], std::move(meta_cols[c]));
  }
  write_table_csv(path, combined);
}

Dataset read_dataset_csv(const std::string& path,
                         const std::string& system_name) {
  Table combined = read_table_csv(path);
  Dataset ds;
  ds.system_name = system_name;
  const std::size_t n = combined.n_rows();
  std::vector<std::span<const double>> meta_spans;
  meta_spans.reserve(std::size(kMetaCols));
  for (const char* name : kMetaCols) meta_spans.push_back(combined.col(name));
  decode_dataset_meta(meta_spans, n, &ds.meta, &ds.target);
  // The feature columns move out of the combined table, uncopied.
  for (std::size_t c = 0; c < combined.n_cols(); ++c) {
    const auto& name = combined.names()[c];
    if (!util::starts_with(name, "__meta_")) {
      ds.features.add_column(name, std::move(combined.mutable_col(c)));
    }
  }
  return ds;
}

}  // namespace iotax::data
