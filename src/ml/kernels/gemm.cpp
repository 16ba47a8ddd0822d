#include "src/ml/kernels/gemm.hpp"

#include <cmath>

#include "src/ml/kernels/dispatch.hpp"
#include "src/ml/kernels/internal.hpp"

namespace iotax::ml::kernels {

namespace {

// Row-at-a-time dense loop — the reference the AVX2 tier must match bit
// for bit.
void dense_forward_scalar(const double* in, std::size_t n_rows,
                          std::size_t in_dim, const double* w,
                          const double* bias, std::size_t out_dim,
                          double* out) {
  for (std::size_t r = 0; r < n_rows; ++r) {
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

// Row-at-a-time backprop, rows in batch order.
void dense_grad_weights_scalar(const double* a, const double* d,
                               std::size_t n_rows, std::size_t in_dim,
                               std::size_t out_dim, double* gw, double* gb) {
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* in = a + r * in_dim;
    const double* dout = d + r * out_dim;
    for (std::size_t o = 0; o < out_dim; ++o) {
      const double dv = dout[o];
      if (dv == 0.0) continue;
      double* gwp = gw + o * in_dim;
      for (std::size_t i = 0; i < in_dim; ++i) gwp[i] += dv * in[i];
      gb[o] += dv;
    }
  }
}

void dense_grad_input_scalar(const double* d, std::size_t n_rows,
                             std::size_t out_dim, const double* w,
                             std::size_t in_dim, double* da) {
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* dout = d + r * out_dim;
    double* din = da + r * in_dim;
    for (std::size_t i = 0; i < in_dim; ++i) din[i] = 0.0;
    for (std::size_t o = 0; o < out_dim; ++o) {
      const double dv = dout[o];
      if (dv == 0.0) continue;
      const double* wo = w + o * in_dim;
      for (std::size_t i = 0; i < in_dim; ++i) din[i] += dv * wo[i];
    }
  }
}

void adam_step_scalar(double* param, double* m, double* v, const double* grad,
                      std::size_t n, const AdamStep& s, bool decay) {
  for (std::size_t i = 0; i < n; ++i) {
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

}  // namespace

void dense_forward(const double* in, std::size_t n_rows, std::size_t in_dim,
                   const double* w, const double* bias, std::size_t out_dim,
                   double* out) {
#if defined(IOTAX_KERNELS_AVX2)
  if (active_tier() == Tier::kAvx2) {
    avx2::dense_forward(in, n_rows, in_dim, w, bias, out_dim, out);
    return;
  }
#endif
  dense_forward_scalar(in, n_rows, in_dim, w, bias, out_dim, out);
}

void dense_grad_weights(const double* a, const double* d, std::size_t n_rows,
                        std::size_t in_dim, std::size_t out_dim, double* gw,
                        double* gb) {
#if defined(IOTAX_KERNELS_AVX2)
  if (active_tier() == Tier::kAvx2) {
    avx2::dense_grad_weights(a, d, n_rows, in_dim, out_dim, gw, gb);
    return;
  }
#endif
  dense_grad_weights_scalar(a, d, n_rows, in_dim, out_dim, gw, gb);
}

void dense_grad_input(const double* d, std::size_t n_rows,
                      std::size_t out_dim, const double* w,
                      std::size_t in_dim, double* da) {
#if defined(IOTAX_KERNELS_AVX2)
  if (active_tier() == Tier::kAvx2) {
    avx2::dense_grad_input(d, n_rows, out_dim, w, in_dim, da);
    return;
  }
#endif
  dense_grad_input_scalar(d, n_rows, out_dim, w, in_dim, da);
}

void adam_step(double* param, double* m, double* v, const double* grad,
               std::size_t n, const AdamStep& s, bool decay) {
#if defined(IOTAX_KERNELS_AVX2)
  if (active_tier() == Tier::kAvx2) {
    avx2::adam_step(param, m, v, grad, n, s, decay);
    return;
  }
#endif
  adam_step_scalar(param, m, v, grad, n, s, decay);
}

}  // namespace iotax::ml::kernels
