// Declarations of the AVX2 kernel variants, defined in the *_avx2.cpp
// translation units (the only ones compiled with -mavx2). Dispatchers
// reference these under #if defined(IOTAX_KERNELS_AVX2) so the symbols
// are never needed in a nosimd build.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/ml/kernels/forest.hpp"
#include "src/ml/kernels/gemm.hpp"
#include "src/ml/kernels/hist.hpp"

namespace iotax::ml::kernels::avx2 {

void node_scan(const ScanColumns& cols, const std::size_t* features,
               std::size_t n_features, const std::size_t* order,
               std::size_t n, const double* node_grad,
               const NodeScanParams& p, SplitScan* out);

double node_sum_lanes(const double* v, std::size_t n);

// Forest traversal over rows [0, n_rows) for trees [t_begin, t_end).
void forest_codes(const ForestView& f, std::size_t t_begin, std::size_t t_end,
                  const std::uint16_t* codes, std::size_t stride,
                  std::size_t n_rows, double* out);

void forest_values(const ForestView& f, std::size_t t_begin, std::size_t t_end,
                   const double* x, std::size_t stride, std::size_t n_rows,
                   double* out);

void dense_forward(const double* in, std::size_t n_rows, std::size_t in_dim,
                   const double* w, const double* bias, std::size_t out_dim,
                   double* out);

void dense_grad_weights(const double* a, const double* d, std::size_t n_rows,
                        std::size_t in_dim, std::size_t out_dim, double* gw,
                        double* gb);

void dense_grad_input(const double* d, std::size_t n_rows,
                      std::size_t out_dim, const double* w,
                      std::size_t in_dim, double* da);

void adam_step(double* param, double* m, double* v, const double* grad,
               std::size_t n, const AdamStep& s, bool decay);

}  // namespace iotax::ml::kernels::avx2
