#include "src/ml/binning.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/data/footprint.hpp"
#include "src/data/ooc.hpp"

namespace iotax::ml {

BinnedMatrix::BinnedMatrix(const data::MatrixView& x, std::size_t max_bins)
    : rows_(x.rows()), cols_(x.cols()) {
  if (max_bins < 2 || max_bins > kMaxBins) {
    throw std::invalid_argument("BinnedMatrix: max_bins must be in [2,4096]");
  }
  build(x, std::vector<std::size_t>(cols_, max_bins));
}

BinnedMatrix::BinnedMatrix(const data::MatrixView& x,
                           const std::vector<std::size_t>& per_feature_bins)
    : rows_(x.rows()), cols_(x.cols()) {
  if (per_feature_bins.size() != cols_) {
    throw std::invalid_argument("BinnedMatrix: per-feature budget size");
  }
  for (const auto b : per_feature_bins) {
    if (b < 2 || b > kMaxBins) {
      throw std::invalid_argument("BinnedMatrix: bin budget not in [2,4096]");
    }
  }
  build(x, per_feature_bins);
}

BinnedMatrix::BinnedMatrix(BinnedMatrix&& other) noexcept
    : rows_(std::exchange(other.rows_, 0)),
      cols_(std::exchange(other.cols_, 0)),
      max_bins_used_(std::exchange(other.max_bins_used_, 1)),
      codes_(std::move(other.codes_)),
      fcodes_(std::move(other.fcodes_)),
      spill_(std::move(other.spill_)),
      codes_ptr_(std::exchange(other.codes_ptr_, nullptr)),
      fcodes_ptr_(std::exchange(other.fcodes_ptr_, nullptr)),
      uppers_(std::move(other.uppers_)) {
  // Vector move transfers the buffer, so the stolen pointers stay valid
  // in both heap and spill mode.
  other.codes_.clear();
  other.fcodes_.clear();
  other.uppers_.clear();
}

BinnedMatrix::~BinnedMatrix() { data::footprint::sub(code_bytes()); }

// Out-of-core quantile sweep: an external sort per column. The column is
// copied into an unlinked mmap scratch file, sorted in place as runs of
// chunk_rows, and the runs are k-way merged; reading the merged stream
// at position p yields exactly sorted[p] of the in-RAM path, so the
// selected edges — and after the shared dedupe/trim below, the final bin
// boundaries — are bit-identical to a full std::sort. Heap cost is
// O(chunk merge cursors + edges), independent of row count.
void BinnedMatrix::build_edges_chunked(
    const data::MatrixView& x, const std::vector<std::size_t>& per_feature_bins) {
  const auto& ooc = data::ooc::settings();
  const std::size_t chunk = ooc.chunk_rows;
  std::string error;
  auto runs = data::MappedFile::create_spill(ooc.spill_dir,
                                             rows_ * sizeof(double), &error);
  if (runs == nullptr) {
    throw std::runtime_error("BinnedMatrix: " + error);
  }
  auto* buf = reinterpret_cast<double*>(runs->mutable_data());
  const std::size_t n_runs = (rows_ + chunk - 1) / chunk;

  // Min-heap cursor over the sorted runs.
  struct Cursor {
    const double* cur;
    const double* end;
  };
  const auto greater = [](const Cursor& a, const Cursor& b) {
    return *a.cur > *b.cur;
  };

  std::vector<Cursor> heap;
  std::vector<std::size_t> targets;
  for (std::size_t c = 0; c < cols_; ++c) {
    const std::size_t max_bins = per_feature_bins[c];
    for (std::size_t r = 0; r < rows_; ++r) buf[r] = x(r, c);
    for (std::size_t run = 0; run < n_runs; ++run) {
      const std::size_t lo = run * chunk;
      const std::size_t hi = std::min(lo + chunk, rows_);
      std::sort(buf + lo, buf + hi);
    }

    // Same candidate positions as the in-RAM sweep (duplicates kept; the
    // value dedupe below collapses them).
    targets.clear();
    for (std::size_t b = 1; b < max_bins; ++b) {
      const auto pos = static_cast<std::size_t>(
          static_cast<double>(b) * static_cast<double>(rows_) /
          static_cast<double>(max_bins));
      targets.push_back(std::min(pos, rows_ - 1));
    }

    double global_max = buf[rows_ - 1];  // max of the last run...
    heap.clear();
    for (std::size_t run = 0; run < n_runs; ++run) {
      const std::size_t lo = run * chunk;
      const std::size_t hi = std::min(lo + chunk, rows_);
      heap.push_back({buf + lo, buf + hi});
      global_max = std::max(global_max, *(buf + hi - 1));  // ...and the rest
    }
    std::make_heap(heap.begin(), heap.end(), greater);

    auto& uppers = uppers_[c];
    uppers.clear();
    std::size_t next_target = 0;
    for (std::size_t i = 0; i < rows_ && next_target < targets.size(); ++i) {
      std::pop_heap(heap.begin(), heap.end(), greater);
      Cursor& top = heap.back();
      const double value = *top.cur;
      while (next_target < targets.size() && targets[next_target] == i) {
        if (uppers.empty() || value > uppers.back()) uppers.push_back(value);
        ++next_target;
      }
      ++top.cur;
      if (top.cur == top.end) {
        heap.pop_back();
      } else {
        std::push_heap(heap.begin(), heap.end(), greater);
      }
    }
    // Drop the top edge if it equals the max (nothing would be right of it).
    while (!uppers.empty() && uppers.back() >= global_max) uppers.pop_back();
    max_bins_used_ = std::max(max_bins_used_, uppers.size() + 1);
  }
}

void BinnedMatrix::build(const data::MatrixView& x,
                         const std::vector<std::size_t>& per_feature_bins) {
  if (rows_ == 0) throw std::invalid_argument("BinnedMatrix: empty matrix");
  const auto& ooc = data::ooc::settings();
  const std::size_t plane = rows_ * cols_;
  const bool spill_codes =
      ooc.enabled && 2 * plane * sizeof(std::uint16_t) > ooc.spill_threshold_bytes;
  const bool chunked_edges = ooc.enabled && rows_ > ooc.chunk_rows;
  uppers_.resize(cols_);

  std::uint16_t* codes_w = nullptr;
  std::uint16_t* fcodes_w = nullptr;
  if (spill_codes) {
    std::string error;
    auto spill = data::MappedFile::create_spill(
        ooc.spill_dir, 2 * plane * sizeof(std::uint16_t), &error);
    if (spill == nullptr) {
      throw std::runtime_error("BinnedMatrix: " + error);
    }
    spill_ = std::move(spill);
    codes_w = reinterpret_cast<std::uint16_t*>(spill_->mutable_data());
    fcodes_w = codes_w + plane;
  } else {
    codes_.resize(plane);
    fcodes_.resize(plane);
    data::footprint::add(code_bytes());
    codes_w = codes_.data();
    fcodes_w = fcodes_.data();
  }
  codes_ptr_ = codes_w;
  fcodes_ptr_ = fcodes_w;

  if (chunked_edges) {
    build_edges_chunked(x, per_feature_bins);
    // Encode pass, one chunk of rows at a time: the row-major plane is
    // written contiguously per chunk and the feature-major mirror
    // sequentially within each column stripe, so the spill file is
    // touched page-locally.
    const std::size_t chunk = ooc.chunk_rows;
    for (std::size_t lo = 0; lo < rows_; lo += chunk) {
      const std::size_t hi = std::min(lo + chunk, rows_);
      for (std::size_t c = 0; c < cols_; ++c) {
        for (std::size_t r = lo; r < hi; ++r) {
          const std::uint16_t code = encode(c, x(r, c));
          codes_w[r * cols_ + c] = code;
          fcodes_w[c * rows_ + r] = code;
        }
      }
    }
    return;
  }

  // Gather each column once; `raw` keeps sample order for encoding while
  // `sorted` is reordered for the quantile sweep. One pass through the
  // (possibly strided / row-mapped) view per feature instead of two.
  std::vector<double> raw(rows_);
  std::vector<double> sorted(rows_);
  for (std::size_t c = 0; c < cols_; ++c) {
    const std::size_t max_bins = per_feature_bins[c];
    for (std::size_t r = 0; r < rows_; ++r) raw[r] = x(r, c);
    sorted = raw;
    std::sort(sorted.begin(), sorted.end());
    // Candidate edges at evenly spaced quantiles; dedupe so constant or
    // low-cardinality features get fewer bins.
    auto& uppers = uppers_[c];
    uppers.clear();
    for (std::size_t b = 1; b < max_bins; ++b) {
      const auto pos = static_cast<std::size_t>(
          static_cast<double>(b) * static_cast<double>(rows_) /
          static_cast<double>(max_bins));
      const double edge = sorted[std::min(pos, rows_ - 1)];
      if (uppers.empty() || edge > uppers.back()) uppers.push_back(edge);
    }
    // Drop the top edge if it equals the max (nothing would be right of it).
    while (!uppers.empty() && uppers.back() >= sorted.back()) uppers.pop_back();
    max_bins_used_ = std::max(max_bins_used_, uppers.size() + 1);
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::uint16_t code = encode(c, raw[r]);
      codes_w[r * cols_ + c] = code;
      fcodes_w[c * rows_ + r] = code;
    }
  }
}

std::uint16_t BinnedMatrix::encode(std::size_t feature, double value) const {
  const auto& uppers = uppers_[feature];
  const auto it = std::lower_bound(uppers.begin(), uppers.end(), value);
  // value <= uppers[b] -> bin b; above all edges -> last bin.
  return static_cast<std::uint16_t>(std::distance(uppers.begin(), it));
}

EncodedCodes BinnedMatrix::encode_all_ooc(const data::MatrixView& x) const {
  if (x.cols() != cols_) {
    throw std::invalid_argument("BinnedMatrix::encode_all_ooc: column mismatch");
  }
  const auto& ooc = data::ooc::settings();
  const std::size_t total = x.rows() * cols_;
  EncodedCodes out;
  std::uint16_t* w = nullptr;
  if (ooc.enabled &&
      total * sizeof(std::uint16_t) > ooc.spill_threshold_bytes) {
    std::string error;
    auto spill = data::MappedFile::create_spill(
        ooc.spill_dir, total * sizeof(std::uint16_t), &error);
    if (spill == nullptr) {
      throw std::runtime_error("BinnedMatrix::encode_all_ooc: " + error);
    }
    w = reinterpret_cast<std::uint16_t*>(spill->mutable_data());
    out.spill_ = std::move(spill);
  } else {
    out.heap_.resize(total);
    data::footprint::add(out.heap_.size() * sizeof(std::uint16_t));
    w = out.heap_.data();
  }
  for (std::size_t f = 0; f < cols_; ++f) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      w[r * cols_ + f] = encode(f, x(r, f));
    }
  }
  out.view_ = {w, total};
  return out;
}

EncodedCodes::~EncodedCodes() {
  data::footprint::sub(heap_.size() * sizeof(std::uint16_t));
}

EncodedCodes::EncodedCodes(EncodedCodes&& other) noexcept
    : heap_(std::move(other.heap_)),
      spill_(std::move(other.spill_)),
      view_(std::exchange(other.view_, {})) {
  other.heap_.clear();  // moved-from vector no longer owns the bytes
}

}  // namespace iotax::ml
