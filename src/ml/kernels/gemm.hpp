// Dense-layer microkernels for Mlp: the batch forward used by inference
// and training, and the backward/update kernels of minibatch training.
//
// Forward computes, for a block of rows,
//
//   out[r][o] = bias[o] + sum_i w[o][i] * in[r][i]   (i ascending)
//
// which is exactly a row-at-a-time dense loop. The AVX2 tier packs
// a 4-row panel of the input transposed (panel[i*4 + lane] =
// in[r+lane][i]) so the inner product becomes contiguous vector loads,
// broadcasts one weight at a time, and accumulates with separate mul +
// add — each SIMD lane runs one row's scalar FP sequence unchanged, so
// the default tier is bit-identical. Under IOTAX_FAST_MATH=1 the
// accumulate contracts to FMA (when the CPU has it), which is faster
// and more accurate but not bit-identical; training follows the same
// switch because its forward pass is this kernel.
//
// The backward kernels reproduce row-at-a-time backprop, which for each
// row r and output o does
//
//   if (d[r][o] == 0.0) continue;
//   gw[o][i] += d[r][o] * a[r][i];  da[r][i] += d[r][o] * w[o][i];
//   gb[o] += d[r][o];
//
// Done layer-major over a whole minibatch, every element keeps that
// chain: gw sums rows in ascending order, da sums outputs in ascending
// order from 0.0, and a zero delta contributes nothing — not even
// 0 * a, which would turn an infinite activation into NaN. The AVX2
// tiers first compact each output's (dense_grad_weights) or row's
// (dense_grad_input) nonzero deltas into a thread-local list, then run
// a branch-free loop over it with one independent element per lane and
// separate mul + add (no FMA, no fast-math variant). The scalar tiers
// are the row-at-a-time arithmetic itself and serve as the reference.
#pragma once

#include <cstddef>

namespace iotax::ml::kernels {

/// in: n_rows x in_dim row-major block (contiguous, stride == in_dim).
/// w:  out_dim x in_dim row-major weights. out: n_rows x out_dim.
void dense_forward(const double* in, std::size_t n_rows, std::size_t in_dim,
                   const double* w, const double* bias, std::size_t out_dim,
                   double* out);

/// Weight and bias gradients of one dense layer over a minibatch:
///   gw[o][i] += sum_r d[r][o] * a[r][i],   gb[o] += sum_r d[r][o]
/// with r ascending and every (r, o) whose delta is zero skipped.
/// a: n_rows x in_dim layer inputs; d: n_rows x out_dim output deltas;
/// gw: out_dim x in_dim; gb: out_dim.
void dense_grad_weights(const double* a, const double* d, std::size_t n_rows,
                        std::size_t in_dim, std::size_t out_dim, double* gw,
                        double* gb);

/// Input gradient of one dense layer over a minibatch:
///   da[r][i] = 0.0 + sum_o d[r][o] * w[o][i]
/// with o ascending and zero deltas skipped. d: n_rows x out_dim;
/// w: out_dim x in_dim; da: n_rows x in_dim (overwritten).
void dense_grad_input(const double* d, std::size_t n_rows,
                      std::size_t out_dim, const double* w,
                      std::size_t in_dim, double* da);

/// One Adam step's constants (betas and eps default to Adam's usual
/// values). bc1/bc2 are the bias corrections 1 - beta^step; the raw
/// gradient is divided by batch_n (rows in the minibatch) first.
struct AdamStep {
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double bc1 = 1.0;
  double bc2 = 1.0;
  double learning_rate = 1e-3;
  double weight_decay = 0.0;
  double batch_n = 1.0;
};

/// Adam update of n parameters in place, elementwise:
///   g = grad / batch_n;  m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
///   mhat = m / bc1;  vhat = v / bc2
///   decay:  p -= lr * (mhat / (sqrt(vhat) + eps) + weight_decay * p)
///   !decay: p -= lr * mhat / (sqrt(vhat) + eps)
/// The two update forms round differently, so weights (decoupled decay)
/// and biases (no decay) must say which one they are.
void adam_step(double* param, double* m, double* v, const double* grad,
               std::size_t n, const AdamStep& s, bool decay);

}  // namespace iotax::ml::kernels
