#include "src/ml/kernels/hist.hpp"

#include <vector>

#include "src/ml/kernels/dispatch.hpp"
#include "src/ml/kernels/internal.hpp"

namespace iotax::ml::kernels {

namespace {

// Literal transcription of the seed's scan_feature loop (gbt.cpp), plus
// the `constant` bit: the scalar tier scans a node's features one at a
// time with it, and is the reference the AVX2 tier must match bit for
// bit. Scratch lives here (one histogram pair per thread) and is fully
// re-zeroed on entry, exactly like the seed.
SplitScan feature_scan_scalar(const std::uint16_t* col,
                              const std::size_t* order, std::size_t n,
                              const double* node_grad, std::size_t bins,
                              const NodeScanParams& p) {
  static thread_local std::vector<double> hg_buf;
  static thread_local std::vector<double> hc_buf;
  if (hg_buf.size() < bins) {
    hg_buf.resize(bins);
    hc_buf.resize(bins);
  }
  double* hg = hg_buf.data();
  double* hc = hc_buf.data();
  SplitScan cand;
  for (std::size_t b = 0; b < bins; ++b) {
    hg[b] = 0.0;
    hc[b] = 0.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = col[order[i]];
    hg[b] += node_grad[i];
    hc[b] += 1.0;
  }
  // Every row sits in one bin exactly when that bin holds all n.
  cand.constant = n == 0 || hc[col[order[0]]] == static_cast<double>(n);
  double gl = 0.0;
  double hl = 0.0;
  double best = p.min_split_gain;
  for (std::size_t b = 0; b + 1 < bins; ++b) {
    gl += hg[b];
    hl += hc[b];
    const double hr = p.h_total - hl;
    if (hl < p.min_child_weight || hr < p.min_child_weight) continue;
    const double gr = p.g_total - gl;
    const double gain = gl * gl / (hl + p.reg_lambda) +
                        gr * gr / (hr + p.reg_lambda) - p.parent_score;
    if (gain > best) {
      best = gain;
      cand.gain = gain;
      cand.bin = b;
      cand.valid = true;
    }
  }
  return cand;
}

double node_sum_scalar(const double* v, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += v[i];
  return acc;
}

}  // namespace

void node_scan(const ScanColumns& cols, const std::size_t* features,
               std::size_t n_features, const std::size_t* order,
               std::size_t n, const double* node_grad,
               const NodeScanParams& p, SplitScan* out) {
#if defined(IOTAX_KERNELS_AVX2)
  if (active_tier() == Tier::kAvx2) {
    avx2::node_scan(cols, features, n_features, order, n, node_grad, p, out);
    return;
  }
#endif
  for (std::size_t j = 0; j < n_features; ++j) {
    const std::size_t f = features[j];
    out[j] = feature_scan_scalar(cols.codes + f * cols.stride, order, n,
                                 node_grad, cols.bins[f], p);
  }
}

double node_sum(const double* v, std::size_t n) {
#if defined(IOTAX_KERNELS_AVX2)
  // Only the opt-in fast-math tier may reassociate a reduction.
  if (fast_math() && active_tier() == Tier::kAvx2) {
    return avx2::node_sum_lanes(v, n);
  }
#endif
  return node_sum_scalar(v, n);
}

}  // namespace iotax::ml::kernels
