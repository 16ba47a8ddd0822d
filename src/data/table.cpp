#include "src/data/table.hpp"

#include <stdexcept>
#include <unordered_set>

namespace iotax::data {

Table::Table(std::vector<std::string> names) : names_(std::move(names)) {
  cols_.resize(names_.size());
  std::unordered_set<std::string> seen;
  for (const auto& n : names_) {
    if (!seen.insert(n).second) {
      throw std::invalid_argument("Table: duplicate column name '" + n + "'");
    }
  }
}

bool Table::has_column(const std::string& name) const {
  for (const auto& n : names_) {
    if (n == name) return true;
  }
  return false;
}

std::size_t Table::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  throw std::out_of_range("Table: no column named '" + name + "'");
}

std::span<const double> Table::col(std::size_t i) const {
  return cols_.at(i).values();
}

std::span<const double> Table::col(const std::string& name) const {
  return cols_[index_of(name)].values();
}

std::vector<double>& Table::mutable_col(std::size_t i) {
  Column& c = cols_.at(i);
  if (c.external) {
    throw std::logic_error("Table::mutable_col: column '" + names_[i] +
                           "' references read-only external storage");
  }
  return c.owned;
}

double Table::at(std::size_t row, std::size_t col) const {
  const auto values = cols_.at(col).values();
  if (row >= values.size()) throw std::out_of_range("Table::at: row");
  return values[row];
}

void Table::add_column(std::string name, std::vector<double> values) {
  if (has_column(name)) {
    throw std::invalid_argument("Table::add_column: duplicate name '" + name +
                                "'");
  }
  if (!cols_.empty() && values.size() != n_rows()) {
    throw std::invalid_argument("Table::add_column: row count mismatch");
  }
  names_.push_back(std::move(name));
  Column c;
  c.owned = std::move(values);
  cols_.push_back(std::move(c));
}

void Table::add_column_ref(std::string name, std::span<const double> values) {
  if (has_column(name)) {
    throw std::invalid_argument("Table::add_column_ref: duplicate name '" +
                                name + "'");
  }
  if (!cols_.empty() && values.size() != n_rows()) {
    throw std::invalid_argument("Table::add_column_ref: row count mismatch");
  }
  names_.push_back(std::move(name));
  Column c;
  c.ref = values;
  c.external = true;
  cols_.push_back(std::move(c));
}

bool Table::has_external_columns() const {
  for (const auto& c : cols_) {
    if (c.external) return true;
  }
  return false;
}

void Table::reserve_rows(std::size_t n) {
  for (auto& col : cols_) {
    if (!col.external) col.owned.reserve(n);
  }
}

void Table::add_row(std::span<const double> values) {
  if (values.size() != n_cols()) {
    throw std::invalid_argument("Table::add_row: column count mismatch");
  }
  if (has_external_columns()) {
    throw std::logic_error(
        "Table::add_row: table has read-only external columns");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    cols_[i].owned.push_back(values[i]);
  }
}

Table Table::select(std::span<const std::string> names) const {
  Table out;
  for (const auto& name : names) {
    const auto src = cols_[index_of(name)].values();
    out.add_column(name, std::vector<double>(src.begin(), src.end()));
  }
  return out;
}

Table Table::take(std::span<const std::size_t> rows) const {
  Table out(names_);
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    const auto src = cols_[c].values();
    auto& dst = out.cols_[c].owned;
    dst.reserve(rows.size());
    for (std::size_t r : rows) {
      if (r >= src.size()) throw std::out_of_range("Table::take: row");
      dst.push_back(src[r]);
    }
  }
  return out;
}

Table Table::vcat(const Table& other) const {
  if (names_ != other.names_) {
    throw std::invalid_argument("Table::vcat: column name mismatch");
  }
  if (has_external_columns()) {
    throw std::logic_error(
        "Table::vcat: table has read-only external columns");
  }
  Table out = *this;
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    const auto src = other.cols_[c].values();
    out.cols_[c].owned.insert(out.cols_[c].owned.end(), src.begin(),
                              src.end());
  }
  return out;
}

}  // namespace iotax::data
