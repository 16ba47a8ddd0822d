// AVX2 tier of the dense-layer kernels. Forward: 4-row × 2-output
// register tile over a transposed input panel; each SIMD lane carries
// one row's accumulator and the reduction index i ascends exactly as in
// the scalar loop. Backward: the nonzero deltas of one output (weight
// gradient) or one row (input gradient) are compacted into a list, then
// each lane accumulates one column i over that list in ascending order.
// Adam: four independent parameters per vector. With separate mul + add
// (the default) every kernel is bit-identical to its scalar twin. This
// TU is compiled with -mfma but also -ffp-contract=off: FMA is only ever
// emitted through the explicit _mm256_fmadd_pd in the opt-in fast-math
// path of the forward kernel.
#if defined(IOTAX_KERNELS_AVX2)

#include <immintrin.h>

#include <cmath>
#include <vector>

#include "src/ml/kernels/dispatch.hpp"
#include "src/ml/kernels/internal.hpp"
#include "src/util/aligned.hpp"

namespace iotax::ml::kernels::avx2 {

namespace {

bool cpu_has_fma() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  return __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

inline void store_lanes(__m256d acc, double* out, std::size_t stride) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  out[0] = lanes[0];
  out[stride] = lanes[1];
  out[2 * stride] = lanes[2];
  out[3 * stride] = lanes[3];
}

}  // namespace

void dense_forward(const double* in, std::size_t n_rows, std::size_t in_dim,
                   const double* w, const double* bias, std::size_t out_dim,
                   double* out) {
  const bool use_fma = fast_math() && cpu_has_fma();
  // Pool workers are long-lived; the panel grows to the widest layer
  // seen and stays.
  static thread_local util::aligned_vector<double> panel;
  if (panel.size() < in_dim * 4) panel.resize(in_dim * 4);

  std::size_t r = 0;
  for (; r + 4 <= n_rows; r += 4) {
    // Transpose a 4-row panel: panel[i*4 + lane] = in[r+lane][i], so the
    // inner product loads one contiguous vector per reduction step.
    for (std::size_t i = 0; i < in_dim; ++i) {
      panel[i * 4 + 0] = in[(r + 0) * in_dim + i];
      panel[i * 4 + 1] = in[(r + 1) * in_dim + i];
      panel[i * 4 + 2] = in[(r + 2) * in_dim + i];
      panel[i * 4 + 3] = in[(r + 3) * in_dim + i];
    }
    double* orow = out + r * out_dim;
    std::size_t o = 0;
    for (; o + 2 <= out_dim; o += 2) {
      const double* w0 = w + o * in_dim;
      const double* w1 = w0 + in_dim;
      __m256d acc0 = _mm256_set1_pd(bias[o]);
      __m256d acc1 = _mm256_set1_pd(bias[o + 1]);
      if (use_fma) {
        for (std::size_t i = 0; i < in_dim; ++i) {
          const __m256d p = _mm256_load_pd(panel.data() + i * 4);
          acc0 = _mm256_fmadd_pd(_mm256_set1_pd(w0[i]), p, acc0);
          acc1 = _mm256_fmadd_pd(_mm256_set1_pd(w1[i]), p, acc1);
        }
      } else {
        for (std::size_t i = 0; i < in_dim; ++i) {
          const __m256d p = _mm256_load_pd(panel.data() + i * 4);
          acc0 = _mm256_add_pd(acc0,
                               _mm256_mul_pd(_mm256_set1_pd(w0[i]), p));
          acc1 = _mm256_add_pd(acc1,
                               _mm256_mul_pd(_mm256_set1_pd(w1[i]), p));
        }
      }
      store_lanes(acc0, orow + o, out_dim);
      store_lanes(acc1, orow + o + 1, out_dim);
    }
    for (; o < out_dim; ++o) {
      const double* wo = w + o * in_dim;
      __m256d acc = _mm256_set1_pd(bias[o]);
      if (use_fma) {
        for (std::size_t i = 0; i < in_dim; ++i) {
          acc = _mm256_fmadd_pd(_mm256_set1_pd(wo[i]),
                                _mm256_load_pd(panel.data() + i * 4), acc);
        }
      } else {
        for (std::size_t i = 0; i < in_dim; ++i) {
          acc = _mm256_add_pd(
              acc, _mm256_mul_pd(_mm256_set1_pd(wo[i]),
                                 _mm256_load_pd(panel.data() + i * 4)));
        }
      }
      store_lanes(acc, orow + o, out_dim);
    }
  }
  // Row remainder: the scalar reference loop.
  for (; r < n_rows; ++r) {
    const double* row = in + r * in_dim;
    double* orow = out + r * out_dim;
    for (std::size_t o = 0; o < out_dim; ++o) {
      const double* wo = w + o * in_dim;
      double acc = bias[o];
      for (std::size_t i = 0; i < in_dim; ++i) acc += wo[i] * row[i];
      orow[o] = acc;
    }
  }
}

namespace {

// Deltas compacted to their nonzero entries: src[j] is the row that
// delta val[j] multiplies. Pool workers are long-lived, so the lists
// grow to the largest batch or layer seen and stay.
struct NonzeroList {
  std::vector<const double*> src;
  std::vector<double> val;
};

NonzeroList& nonzero_scratch(std::size_t n) {
  static thread_local NonzeroList list;
  if (list.src.size() < n) {
    list.src.resize(n);
    list.val.resize(n);
  }
  return list;
}

// dst[i..i+4*NV) = (from_zero ? 0.0 : dst) + sum_j val[j] * src[j][i..],
// j ascending; NV independent accumulators hide the add latency.
template <int NV>
inline void sum_block(const double* const* src, const double* val,
                      std::size_t k, std::size_t i, bool from_zero,
                      double* dst) {
  __m256d acc[NV];
  for (int v = 0; v < NV; ++v) {
    acc[v] = from_zero ? _mm256_setzero_pd() : _mm256_loadu_pd(dst + i + 4 * v);
  }
  for (std::size_t j = 0; j < k; ++j) {
    const __m256d dv = _mm256_set1_pd(val[j]);
    const double* s = src[j] + i;
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_add_pd(acc[v],
                             _mm256_mul_pd(dv, _mm256_loadu_pd(s + 4 * v)));
    }
  }
  for (int v = 0; v < NV; ++v) _mm256_storeu_pd(dst + i + 4 * v, acc[v]);
}

void sum_rows(const NonzeroList& list, std::size_t k, std::size_t n,
              bool from_zero, double* dst) {
  const double* const* src = list.src.data();
  const double* val = list.val.data();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) sum_block<8>(src, val, k, i, from_zero, dst);
  for (; i + 16 <= n; i += 16) sum_block<4>(src, val, k, i, from_zero, dst);
  for (; i + 4 <= n; i += 4) sum_block<1>(src, val, k, i, from_zero, dst);
  for (; i < n; ++i) {
    double acc = from_zero ? 0.0 : dst[i];
    for (std::size_t j = 0; j < k; ++j) acc += val[j] * src[j][i];
    dst[i] = acc;
  }
}

}  // namespace

void dense_grad_weights(const double* a, const double* d, std::size_t n_rows,
                        std::size_t in_dim, std::size_t out_dim, double* gw,
                        double* gb) {
  NonzeroList& list = nonzero_scratch(n_rows);
  for (std::size_t o = 0; o < out_dim; ++o) {
    // Branch-free compaction: the slot is always written, the count
    // advances only past a nonzero delta.
    std::size_t k = 0;
    for (std::size_t r = 0; r < n_rows; ++r) {
      const double dv = d[r * out_dim + o];
      list.src[k] = a + r * in_dim;
      list.val[k] = dv;
      k += dv != 0.0 ? 1 : 0;
    }
    double gbo = gb[o];
    for (std::size_t j = 0; j < k; ++j) gbo += list.val[j];
    gb[o] = gbo;
    if (k != 0) sum_rows(list, k, in_dim, /*from_zero=*/false, gw + o * in_dim);
  }
}

void dense_grad_input(const double* d, std::size_t n_rows,
                      std::size_t out_dim, const double* w,
                      std::size_t in_dim, double* da) {
  NonzeroList& list = nonzero_scratch(out_dim);
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* dout = d + r * out_dim;
    std::size_t k = 0;
    for (std::size_t o = 0; o < out_dim; ++o) {
      list.src[k] = w + o * in_dim;
      list.val[k] = dout[o];
      k += dout[o] != 0.0 ? 1 : 0;
    }
    sum_rows(list, k, in_dim, /*from_zero=*/true, da + r * in_dim);
  }
}

void adam_step(double* param, double* m, double* v, const double* grad,
               std::size_t n, const AdamStep& s, bool decay) {
  const __m256d beta1 = _mm256_set1_pd(s.beta1);
  const __m256d beta2 = _mm256_set1_pd(s.beta2);
  const __m256d one_m_beta1 = _mm256_set1_pd(1.0 - s.beta1);
  const __m256d one_m_beta2 = _mm256_set1_pd(1.0 - s.beta2);
  const __m256d batch_n = _mm256_set1_pd(s.batch_n);
  const __m256d bc1 = _mm256_set1_pd(s.bc1);
  const __m256d bc2 = _mm256_set1_pd(s.bc2);
  const __m256d eps = _mm256_set1_pd(s.eps);
  const __m256d lr = _mm256_set1_pd(s.learning_rate);
  const __m256d wd = _mm256_set1_pd(s.weight_decay);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_div_pd(_mm256_loadu_pd(grad + i), batch_n);
    const __m256d mi =
        _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + i)),
                      _mm256_mul_pd(one_m_beta1, g));
    const __m256d vi =
        _mm256_add_pd(_mm256_mul_pd(beta2, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(one_m_beta2, g), g));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bc1);
    const __m256d denom =
        _mm256_add_pd(_mm256_sqrt_pd(_mm256_div_pd(vi, bc2)), eps);
    const __m256d p = _mm256_loadu_pd(param + i);
    const __m256d step =
        decay ? _mm256_mul_pd(lr, _mm256_add_pd(_mm256_div_pd(mhat, denom),
                                                _mm256_mul_pd(wd, p)))
              : _mm256_div_pd(_mm256_mul_pd(lr, mhat), denom);
    _mm256_storeu_pd(param + i, _mm256_sub_pd(p, step));
  }
  // Tail: the scalar reference arithmetic.
  for (; i < n; ++i) {
    const double g = grad[i] / s.batch_n;
    m[i] = s.beta1 * m[i] + (1.0 - s.beta1) * g;
    v[i] = s.beta2 * v[i] + (1.0 - s.beta2) * g * g;
    const double mhat = m[i] / s.bc1;
    const double vhat = v[i] / s.bc2;
    if (decay) {
      param[i] -= s.learning_rate * (mhat / (std::sqrt(vhat) + s.eps) +
                                     s.weight_decay * param[i]);
    } else {
      param[i] -= s.learning_rate * mhat / (std::sqrt(vhat) + s.eps);
    }
  }
}

}  // namespace iotax::ml::kernels::avx2

#endif  // IOTAX_KERNELS_AVX2
