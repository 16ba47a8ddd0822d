// Zero-copy views over the two sample containers.
//
// A MatrixView is (base container, optional row-index map, optional
// column-index map); a DatasetView is (base Dataset, optional row-index
// map). The base is either a row-major Matrix or a column-major Table —
// the taxonomy pipeline views feature columns of the dataset's Table
// directly, so model input needs no materialization at all. Every
// subset a pipeline step needs — a train/val/test side, a time window,
// a search rung, a feature set — is O(indices) instead of the
// O(rows x cols) copy that Matrix::take_rows / Dataset::take pay.
// Views read element-for-element the same values in the same order as
// the materialized copy would, so any deterministic consumer produces
// bit-identical output through either path (the determinism suite
// asserts this).
//
// Aliasing & lifetime rules (see DESIGN.md "Data path"):
//  - Views are non-owning. The base container AND the index storage
//    passed to the constructor must outlive the view. Index spans are
//    not copied.
//  - Views are read-only; the base must not be resized or reassigned
//    while views of it are live (element writes through mutable_row are
//    visible to views, which is occasionally useful but never done by
//    library code).
//  - A Matrix (or Dataset) converts implicitly to its identity view, so
//    view-taking APIs accept plain containers. Passing a temporary is
//    safe only for the duration of the call expression.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/data/dataset.hpp"
#include "src/data/matrix.hpp"
#include "src/data/table.hpp"

namespace iotax::data {

class MatrixView {
 public:
  /// Empty view (no base): rows() == cols() == 0.
  MatrixView() = default;

  /// Identity view of a whole matrix (implicit on purpose: every
  /// view-taking API accepts a plain Matrix).
  MatrixView(const Matrix& base);  // NOLINT(google-explicit-constructor)

  /// Row-subset view; `rows` are base row indices, kept by reference.
  MatrixView(const Matrix& base, std::span<const std::size_t> rows);

  /// Row+column-subset view; both index spans are kept by reference.
  MatrixView(const Matrix& base, std::span<const std::size_t> rows,
             std::span<const std::size_t> cols);

  /// View over a column-major Table (row and column indices are Table
  /// rows/columns; either span may be empty for "all"). Rows are never
  /// spans for this base — hot loops gather through the scratch buffer.
  MatrixView(const Table& base, std::span<const std::size_t> rows,
             std::span<const std::size_t> cols);

  std::size_t rows() const { return all_rows_ ? base_rows_ : rows_.size(); }
  std::size_t cols() const { return all_cols_ ? base_cols_ : cols_.size(); }

  bool empty() const { return base_ == nullptr || rows() == 0 || cols() == 0; }

  /// Base-row index backing view row r.
  std::size_t base_row(std::size_t r) const { return all_rows_ ? r : rows_[r]; }
  /// Base-column index backing view column c.
  std::size_t base_col(std::size_t c) const {
    if (all_cols_) return c;
    return col_contiguous_ ? col_offset_ + c : cols_[c];
  }

  double operator()(std::size_t r, std::size_t c) const {
    if (table_ != nullptr) return table_->col(base_col(c))[base_row(r)];
    return (*base_)(base_row(r), base_col(c));
  }

  /// True when view rows are contiguous slices of base rows (a row-major
  /// base with all columns or a contiguous column range): row() never
  /// touches the scratch buffer and costs nothing. Column-major bases
  /// always gather.
  bool rows_are_spans() const {
    return table_ == nullptr && (all_cols_ || col_contiguous_);
  }

  /// View row r as a span. Returns a slice of the base row when
  /// rows_are_spans(); otherwise gathers the mapped columns into
  /// `scratch` and returns a span over it. Hot loops keep one scratch
  /// buffer per worker.
  std::span<const double> row(std::size_t r, std::vector<double>& scratch) const {
    const auto base_r = base_row(r);
    if (table_ != nullptr) {
      scratch.resize(cols());
      for (std::size_t c = 0; c < cols(); ++c) {
        scratch[c] = table_->col(base_col(c))[base_r];
      }
      return scratch;
    }
    if (all_cols_) return base_->row(base_r);
    if (col_contiguous_) {
      return base_->row(base_r).subspan(col_offset_, cols_.size());
    }
    scratch.resize(cols_.size());
    const auto src = base_->row(base_r);
    for (std::size_t c = 0; c < cols_.size(); ++c) scratch[c] = src[cols_[c]];
    return scratch;
  }

  /// Row-subset of this view (indices are view-local). The composed
  /// base-row indices are written into *storage, which must outlive the
  /// returned view; the column mapping is shared with this view.
  MatrixView take_rows(std::span<const std::size_t> rows,
                       std::vector<std::size_t>* storage) const;

  /// Copy out the viewed block as a dense Matrix (the escape hatch for
  /// consumers that genuinely need contiguous storage).
  Matrix materialize() const;

  const Matrix& base() const { return *base_; }

 private:
  const Matrix* base_ = nullptr;   // row-major base, or
  const Table* table_ = nullptr;   // column-major base (exactly one set)
  std::size_t base_rows_ = 0;
  std::size_t base_cols_ = 0;
  std::span<const std::size_t> rows_;
  std::span<const std::size_t> cols_;
  bool all_rows_ = true;
  bool all_cols_ = true;
  // Column maps that are a contiguous ascending range [offset, offset+n)
  // keep the row()-as-span fast path.
  bool col_contiguous_ = false;
  std::size_t col_offset_ = 0;
};

class DatasetView {
 public:
  DatasetView() = default;

  /// Identity view (implicit: taxonomy APIs accept a plain Dataset).
  DatasetView(const Dataset& base);  // NOLINT(google-explicit-constructor)

  /// Row-subset view; `rows` are base row indices, kept by reference.
  DatasetView(const Dataset& base, std::span<const std::size_t> rows);

  std::size_t size() const { return all_rows_ ? base_->size() : rows_.size(); }
  std::size_t base_row(std::size_t i) const { return all_rows_ ? i : rows_[i]; }

  const JobMeta& meta(std::size_t i) const { return base_->meta[base_row(i)]; }
  double target(std::size_t i) const { return base_->target[base_row(i)]; }

  const std::string& system_name() const { return base_->system_name; }
  /// The base feature table. Its rows are BASE rows; map view indices
  /// through base_row() before indexing a column span.
  const Table& features() const { return base_->features; }
  bool has_feature(const std::string& name) const {
    return base_->features.has_column(name);
  }

  /// View-local indices of jobs with start_time in [t0, t1).
  std::vector<std::size_t> rows_in_window(double t0, double t1) const;

  /// Copy out the viewed rows as a standalone Dataset (== base.take()).
  Dataset materialize() const;

  const Dataset& base() const { return *base_; }

 private:
  const Dataset* base_ = nullptr;
  std::span<const std::size_t> rows_;
  bool all_rows_ = true;
};

/// Gather `src[rows[i]]` into *out (resized to rows.size()). The shared
/// row-gather of feature_sets / drift / target extraction.
void gather(std::span<const double> src, std::span<const std::size_t> rows,
            std::vector<double>* out);

}  // namespace iotax::data
