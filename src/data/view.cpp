#include "src/data/view.hpp"

#include <stdexcept>

namespace iotax::data {

namespace {

void check_rows(std::span<const std::size_t> rows, std::size_t limit) {
  for (const auto r : rows) {
    if (r >= limit) {
      throw std::out_of_range("MatrixView: row index " + std::to_string(r) +
                              " out of range for base with " +
                              std::to_string(limit) + " rows");
    }
  }
}

void check_cols(std::span<const std::size_t> cols, std::size_t limit) {
  for (const auto c : cols) {
    if (c >= limit) {
      throw std::out_of_range("MatrixView: column index " + std::to_string(c) +
                              " out of range for base with " +
                              std::to_string(limit) + " columns");
    }
  }
}

bool contiguous_ascending(std::span<const std::size_t> idx) {
  for (std::size_t i = 1; i < idx.size(); ++i) {
    if (idx[i] != idx[i - 1] + 1) return false;
  }
  return !idx.empty();
}

}  // namespace

MatrixView::MatrixView(const Matrix& base)
    : base_(&base), base_rows_(base.rows()), base_cols_(base.cols()) {}

MatrixView::MatrixView(const Matrix& base, std::span<const std::size_t> rows)
    : base_(&base),
      base_rows_(base.rows()),
      base_cols_(base.cols()),
      rows_(rows),
      all_rows_(false) {
  check_rows(rows, base.rows());
}

MatrixView::MatrixView(const Matrix& base, std::span<const std::size_t> rows,
                       std::span<const std::size_t> cols)
    : base_(&base),
      base_rows_(base.rows()),
      base_cols_(base.cols()),
      rows_(rows),
      cols_(cols),
      all_rows_(false),
      all_cols_(false) {
  check_rows(rows, base.rows());
  check_cols(cols, base.cols());
  if (contiguous_ascending(cols)) {
    col_contiguous_ = true;
    col_offset_ = cols.front();
  }
}

MatrixView::MatrixView(const Table& base, std::span<const std::size_t> rows,
                       std::span<const std::size_t> cols)
    : table_(&base),
      base_rows_(base.n_rows()),
      base_cols_(base.n_cols()),
      rows_(rows),
      cols_(cols),
      all_rows_(rows.empty()),
      all_cols_(cols.empty()) {
  check_rows(rows, base.n_rows());
  check_cols(cols, base.n_cols());
  if (!cols.empty() && contiguous_ascending(cols)) {
    col_contiguous_ = true;
    col_offset_ = cols.front();
  }
}

MatrixView MatrixView::take_rows(std::span<const std::size_t> rows,
                                 std::vector<std::size_t>* storage) const {
  storage->resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= this->rows()) {
      throw std::out_of_range("MatrixView::take_rows: index out of range");
    }
    (*storage)[i] = base_row(rows[i]);
  }
  MatrixView v = *this;
  v.rows_ = *storage;
  v.all_rows_ = false;
  return v;
}

Matrix MatrixView::materialize() const {
  Matrix out(rows(), cols());
  std::vector<double> scratch;
  for (std::size_t r = 0; r < rows(); ++r) {
    const auto src = row(r, scratch);
    auto dst = out.mutable_row(r);
    for (std::size_t c = 0; c < src.size(); ++c) dst[c] = src[c];
  }
  return out;
}

DatasetView::DatasetView(const Dataset& base) : base_(&base) {}

DatasetView::DatasetView(const Dataset& base, std::span<const std::size_t> rows)
    : base_(&base), rows_(rows), all_rows_(false) {
  for (const auto r : rows) {
    if (r >= base.size()) {
      throw std::out_of_range("DatasetView: row index " + std::to_string(r) +
                              " out of range for dataset with " +
                              std::to_string(base.size()) + " rows");
    }
  }
}

std::vector<std::size_t> DatasetView::rows_in_window(double t0,
                                                     double t1) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < size(); ++i) {
    const double t = meta(i).start_time;
    if (t >= t0 && t < t1) out.push_back(i);
  }
  return out;
}

Dataset DatasetView::materialize() const {
  if (all_rows_) return *base_;
  std::vector<std::size_t> rows(rows_.begin(), rows_.end());
  return base_->take(rows);
}

void gather(std::span<const double> src, std::span<const std::size_t> rows,
            std::vector<double>* out) {
  out->resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) (*out)[i] = src[rows[i]];
}

}  // namespace iotax::data
