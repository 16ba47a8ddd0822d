// Quantile feature binning for histogram-based tree training (the same
// trick XGBoost's `hist` method uses): each feature is discretised once,
// after which split finding is O(bins) per feature instead of
// O(n log n).
//
// Bin budgets are per-feature: most counters are fine at 64 bins, but a
// raw start-time feature needs ~day-level resolution to express the
// system's I/O weather (§VII.A), i.e. thousands of bins over a
// multi-year trace. Codes are 16-bit to allow that.
//
// Construction accepts a MatrixView, so a binned matrix can be built
// straight from a row/column subset without materializing it; a plain
// Matrix converts implicitly. The code buffer is reported to
// data::footprint alongside Matrix payloads.
//
// Out-of-core mode (data::ooc::settings().enabled): the quantile sweep
// runs as an external sort — per-column sorted runs of chunk_rows each,
// spilled to an unlinked mmap scratch file, k-way merged to read the
// exact same order statistics the in-RAM std::sort path reads — and the
// code planes land in a second mmap spill once they exceed the spill
// threshold. Both choices are bit-identical to the in-RAM path: the
// merged stream is the same sorted sequence, and the codes are the same
// bytes in the same layout, just file-backed (mapped, not materialized).
// Copies share the spill mapping; the footprint tally only counts
// heap-resident code buffers.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/data/mmapfile.hpp"
#include "src/data/view.hpp"

namespace iotax::ml {

inline constexpr std::size_t kMaxBins = 4096;

class BinnedMatrix {
 public:
  /// Uniform bin budget for every feature.
  explicit BinnedMatrix(const data::MatrixView& x, std::size_t max_bins = 64);

  /// Per-feature budgets; size must equal x.cols(), entries in [2, 4096].
  BinnedMatrix(const data::MatrixView& x,
               const std::vector<std::size_t>& per_feature_bins);

  // Move-construct only: the implicit copy and assignment members would
  // copy the code pointers without pointing them at this object's
  // buffers.
  BinnedMatrix(BinnedMatrix&& other) noexcept;
  BinnedMatrix(const BinnedMatrix&) = delete;
  BinnedMatrix& operator=(const BinnedMatrix&) = delete;
  BinnedMatrix& operator=(BinnedMatrix&&) = delete;
  ~BinnedMatrix();

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t n_bins(std::size_t feature) const {
    return uppers_[feature].size() + 1;
  }
  /// Largest n_bins over all features (histogram workspace size).
  std::size_t max_bins_used() const { return max_bins_used_; }

  /// True when the code planes live in an mmap spill file instead of the
  /// heap (out-of-core mode).
  bool spilled() const { return spill_ != nullptr; }

  /// Bin code of sample r, feature c.
  std::uint16_t code(std::size_t r, std::size_t c) const {
    return codes_ptr_[r * cols_ + c];
  }

  /// All codes of sample r (row-major, contiguous).
  std::span<const std::uint16_t> row_codes(std::size_t r) const {
    return {codes_ptr_ + r * cols_, cols_};
  }

  /// All codes of feature c (feature-major mirror, contiguous). The
  /// histogram scan reads one feature across many rows; the row-major
  /// buffer would make that a 2-byte pick from every (cols x 2)-byte
  /// stride, so a transposed copy is kept for unit-stride access.
  std::span<const std::uint16_t> col_codes(std::size_t c) const {
    return {fcodes_ptr_ + c * rows_, rows_};
  }

  /// Real-valued split threshold for "bin <= b goes left": the upper edge
  /// of bin b. Requires b < n_bins(feature) - 1.
  double threshold(std::size_t feature, std::size_t b) const {
    return uppers_[feature][b];
  }

  /// Encode a raw value into this feature's bin (for prediction paths that
  /// want parity with training codes).
  std::uint16_t encode(std::size_t feature, double value) const;

  /// Encode a whole matrix against this binning (row-major codes, one
  /// column sweep per feature). Callers predicting many models against
  /// the same input (hyperparameter search) encode once and route every
  /// tree by codes instead of re-reading the raw view per model. The
  /// buffer follows the code-plane spill policy: in out-of-core mode a
  /// buffer past the spill threshold lands in an unlinked mmap scratch
  /// file (mapped bytes) instead of the heap (materialized bytes). Same
  /// bytes either way; only the backing storage differs.
  class EncodedCodes encode_all_ooc(const data::MatrixView& x) const;

 private:
  void build(const data::MatrixView& x,
             const std::vector<std::size_t>& per_feature_bins);
  void build_edges_chunked(const data::MatrixView& x,
                           const std::vector<std::size_t>& per_feature_bins);
  std::size_t code_bytes() const {
    return (codes_.size() + fcodes_.size()) * sizeof(std::uint16_t);
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t max_bins_used_ = 1;
  std::vector<std::uint16_t> codes_;         // row-major (heap mode)
  std::vector<std::uint16_t> fcodes_;        // feature-major mirror
  /// Spill mapping holding both planes in out-of-core mode: row-major
  /// codes at offset 0, the feature-major mirror after it.
  std::unique_ptr<data::MappedFile> spill_;
  const std::uint16_t* codes_ptr_ = nullptr;
  const std::uint16_t* fcodes_ptr_ = nullptr;
  std::vector<std::vector<double>> uppers_;  // per feature, ascending
};

/// Owner of an encode_all_ooc code buffer: either a heap vector
/// (reported to data::footprint as materialized bytes, like BinnedMatrix
/// planes) or an unlinked mmap spill (counted as mapped bytes by the
/// mapping itself). Consumers only see the span.
class EncodedCodes {
 public:
  EncodedCodes() = default;
  // `return out;` in encode_all_ooc needs the move constructor even
  // where NRVO elides every call.
  EncodedCodes(EncodedCodes&& other) noexcept;
  EncodedCodes(const EncodedCodes&) = delete;
  EncodedCodes& operator=(const EncodedCodes&) = delete;
  ~EncodedCodes();

  std::span<const std::uint16_t> codes() const { return view_; }
  const std::uint16_t* data() const { return view_.data(); }
  std::size_t size() const { return view_.size(); }
  bool spilled() const { return spill_ != nullptr; }

 private:
  friend class BinnedMatrix;

  std::vector<std::uint16_t> heap_;
  std::unique_ptr<data::MappedFile> spill_;
  std::span<const std::uint16_t> view_;
};

}  // namespace iotax::ml
