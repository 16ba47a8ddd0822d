// AVX2 tier of PackedForest traversal: branch-free fixed-depth descent
// of 8 rows at a time (codes) or 4 rows (raw values), gathering node
// fields from the SoA arrays. Self-looping leaves make every step
// unconditional; per row the leaf reached — and therefore the value
// added, in tree order — is exactly the scalar tier's.
#if defined(IOTAX_KERNELS_AVX2)

#include <immintrin.h>

#include "src/ml/kernels/internal.hpp"

namespace iotax::ml::kernels::avx2 {

namespace {

// Scalar descent for tail rows (same loop as the scalar tier).
inline double descend_codes(const ForestView& f, std::int32_t root,
                            const std::uint16_t* row) {
  std::int32_t idx = root;
  while (f.left[idx] != idx) {
    idx = static_cast<std::int32_t>(row[f.feature[idx]]) <= f.split[idx]
              ? f.left[idx]
              : f.right[idx];
  }
  return f.value[idx];
}

inline double descend_values(const ForestView& f, std::int32_t root,
                             const double* row) {
  std::int32_t idx = root;
  while (f.left[idx] != idx) {
    idx = row[f.feature[idx]] <= f.threshold[idx] ? f.left[idx]
                                                  : f.right[idx];
  }
  return f.value[idx];
}

}  // namespace

void forest_codes(const ForestView& f, std::size_t t_begin, std::size_t t_end,
                  const std::uint16_t* codes, std::size_t stride,
                  std::size_t n_rows, double* out) {
  // The code gather reads 32 bits per lane from a 16-bit buffer, so a
  // lane on the buffer's very last element would read 2 bytes past the
  // end. Any row before the last one is safe (its last element is
  // followed by the next row); keeping the final min(n_rows, 8) rows on
  // the scalar path guarantees every vector lane is a non-final row.
  const std::size_t tail = n_rows < 8 ? n_rows : 8;
  const std::size_t vec_rows = n_rows - tail;
  const __m256i mask16 = _mm256_set1_epi32(0xFFFF);
  const auto* codes32 = reinterpret_cast<const int*>(codes);
  const auto s = static_cast<std::int32_t>(stride);

  std::size_t i = 0;
  for (; i + 8 <= vec_rows; i += 8) {
    const auto base = static_cast<std::int32_t>(i) * s;
    const __m256i rowoff =
        _mm256_setr_epi32(base, base + s, base + 2 * s, base + 3 * s,
                          base + 4 * s, base + 5 * s, base + 6 * s,
                          base + 7 * s);
    __m256d acc_lo = _mm256_loadu_pd(out + i);
    __m256d acc_hi = _mm256_loadu_pd(out + i + 4);
    for (std::size_t t = t_begin; t < t_end; ++t) {
      __m256i idx = _mm256_set1_epi32(f.root[t]);
      for (std::int32_t d = 0; d < f.depth[t]; ++d) {
        const __m256i feat = _mm256_i32gather_epi32(f.feature, idx, 4);
        const __m256i split = _mm256_i32gather_epi32(f.split, idx, 4);
        const __m256i off = _mm256_add_epi32(rowoff, feat);
        const __m256i code = _mm256_and_si256(
            _mm256_i32gather_epi32(codes32, off, 2), mask16);
        const __m256i go_right = _mm256_cmpgt_epi32(code, split);
        const __m256i l = _mm256_i32gather_epi32(f.left, idx, 4);
        const __m256i r = _mm256_i32gather_epi32(f.right, idx, 4);
        idx = _mm256_blendv_epi8(l, r, go_right);
      }
      acc_lo = _mm256_add_pd(
          acc_lo,
          _mm256_i32gather_pd(f.value, _mm256_castsi256_si128(idx), 8));
      acc_hi = _mm256_add_pd(
          acc_hi,
          _mm256_i32gather_pd(f.value, _mm256_extracti128_si256(idx, 1), 8));
    }
    _mm256_storeu_pd(out + i, acc_lo);
    _mm256_storeu_pd(out + i + 4, acc_hi);
  }
  for (; i < n_rows; ++i) {
    const std::uint16_t* row = codes + i * stride;
    double acc = out[i];
    for (std::size_t t = t_begin; t < t_end; ++t) {
      acc += descend_codes(f, f.root[t], row);
    }
    out[i] = acc;
  }
}

void forest_values(const ForestView& f, std::size_t t_begin, std::size_t t_end,
                   const double* x, std::size_t stride, std::size_t n_rows,
                   double* out) {
  // 64-bit lanes throughout: double gathers read exactly 8 bytes, so no
  // tail hazard; only the <4-row remainder goes scalar.
  const auto s = static_cast<std::int64_t>(stride);
  std::size_t i = 0;
  for (; i + 4 <= n_rows; i += 4) {
    const auto base = static_cast<std::int64_t>(i) * s;
    const __m256i rowoff =
        _mm256_setr_epi64x(base, base + s, base + 2 * s, base + 3 * s);
    __m256d acc = _mm256_loadu_pd(out + i);
    for (std::size_t t = t_begin; t < t_end; ++t) {
      __m256i idx = _mm256_set1_epi64x(f.root[t]);
      for (std::int32_t d = 0; d < f.depth[t]; ++d) {
        const __m256i feat =
            _mm256_cvtepi32_epi64(_mm256_i64gather_epi32(f.feature, idx, 4));
        const __m256d xv =
            _mm256_i64gather_pd(x, _mm256_add_epi64(rowoff, feat), 8);
        const __m256d th = _mm256_i64gather_pd(f.threshold, idx, 8);
        // NaN compares false -> right, matching the scalar `<=`.
        const __m256d le = _mm256_cmp_pd(xv, th, _CMP_LE_OQ);
        const __m256i l =
            _mm256_cvtepi32_epi64(_mm256_i64gather_epi32(f.left, idx, 4));
        const __m256i r =
            _mm256_cvtepi32_epi64(_mm256_i64gather_epi32(f.right, idx, 4));
        idx = _mm256_castpd_si256(_mm256_blendv_pd(
            _mm256_castsi256_pd(r), _mm256_castsi256_pd(l), le));
      }
      acc = _mm256_add_pd(acc, _mm256_i64gather_pd(f.value, idx, 8));
    }
    _mm256_storeu_pd(out + i, acc);
  }
  for (; i < n_rows; ++i) {
    const double* row = x + i * stride;
    double acc = out[i];
    for (std::size_t t = t_begin; t < t_end; ++t) {
      acc += descend_values(f, f.root[t], row);
    }
    out[i] = acc;
  }
}

}  // namespace iotax::ml::kernels::avx2

#endif  // IOTAX_KERNELS_AVX2
