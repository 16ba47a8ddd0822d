// Column-major numeric table with named columns: the in-memory dataset
// format every model and litmus test consumes. Column-major because ML
// training touches features column-wise (tree split scans, scaling).
//
// A column either owns its storage (a vector, the default) or references
// external read-only memory via add_column_ref — the mmap-backed
// ColumnStore uses the latter to expose on-disk columns without copying.
// External columns follow the view lifetime rule: the referenced memory
// must outlive the table *and every copy of it* (copies keep referencing
// the same bytes). Mutating entry points (mutable_col, add_row) reject
// tables with external columns; select/take/vcat materialize owned
// output as before.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace iotax::data {

class Table {
 public:
  Table() = default;

  /// Construct with named empty columns.
  explicit Table(std::vector<std::string> names);

  std::size_t n_rows() const { return cols_.empty() ? 0 : col(0).size(); }
  std::size_t n_cols() const { return cols_.size(); }
  const std::vector<std::string>& names() const { return names_; }

  bool has_column(const std::string& name) const;
  /// Column index by name; throws std::out_of_range if absent.
  std::size_t index_of(const std::string& name) const;

  std::span<const double> col(std::size_t i) const;
  std::span<const double> col(const std::string& name) const;
  std::vector<double>& mutable_col(std::size_t i);

  double at(std::size_t row, std::size_t col) const;

  /// Append a column; values.size() must equal n_rows() (or the table must
  /// be empty). Duplicate names are rejected.
  void add_column(std::string name, std::vector<double> values);

  /// Append a non-owning column over external read-only storage (e.g. an
  /// mmap-backed store column). Same size rules as add_column. The
  /// referenced memory must outlive this table and all copies of it.
  void add_column_ref(std::string name, std::span<const double> values);

  /// True when any column references external storage (the table is then
  /// read-only: mutable_col and add_row throw).
  bool has_external_columns() const;

  /// Append one row; values.size() must equal n_cols().
  void add_row(std::span<const double> values);

  /// Reserve capacity for n total rows in every owned column, so bulk
  /// row-at-a-time builders (sim::build_dataset) grow each column's
  /// storage once instead of reallocating along the way.
  void reserve_rows(std::size_t n);

  /// New table with only the named columns, in the given order.
  Table select(std::span<const std::string> names) const;

  /// New table with only the given rows, in the given order.
  Table take(std::span<const std::size_t> rows) const;

  /// Vertically concatenate; other must have identical column names.
  Table vcat(const Table& other) const;

 private:
  /// One column: owned vector storage, or a span into external memory
  /// (external == true, `owned` empty).
  struct Column {
    std::vector<double> owned;
    std::span<const double> ref;
    bool external = false;

    std::span<const double> values() const {
      return external ? ref : std::span<const double>(owned);
    }
  };

  std::vector<std::string> names_;
  std::vector<Column> cols_;
};

}  // namespace iotax::data
