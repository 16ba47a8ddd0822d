// AVX2 tier of the GBT split-finding kernels. Compiled with -mavx2 (and
// -ffp-contract=off so the compiler cannot fuse the mul+add pairs that
// keep the default tier bit-identical).
#if defined(IOTAX_KERNELS_AVX2)

#include <immintrin.h>

#include <limits>

#include "src/ml/kernels/internal.hpp"
#include "src/util/aligned.hpp"

namespace iotax::ml::kernels::avx2 {

namespace {

constexpr std::size_t kWordBits = 64;

// Tier-owned scratch, kept ALL-ZERO between calls: each scan re-zeroes
// only the bins it touched on the way out, so the zeroing cost scales
// with the node instead of the bin count. resize() zero-fills any
// growth, so the invariant survives a larger-bins call. The histograms
// carry one slot past every code the current call can write (see
// GainSweep::pad); tl_words holds one touched-bin bit per bin, one word
// per 64 bins, for features wider than one word.
thread_local util::aligned_vector<double> tl_hg;
thread_local util::aligned_vector<double> tl_hc;
thread_local util::aligned_vector<std::uint64_t> tl_words;

inline std::size_t low_bit(std::uint64_t m) {
  return static_cast<std::size_t>(__builtin_ctzll(m));
}

// The gain sweep over touched bins only. Bins are fed in ascending
// order, up to four at a time; the running left sums gl/hl are a true
// serial dependence (reassociating them would change the bits), so they
// stay scalar in exactly the seed's order, and each block of them is
// packed into a vector so the expensive part — two multiplies and two
// divides per bin — runs 4-wide. All of it is elementwise IEEE
// arithmetic in the scalar expression's association, so every lane
// produces the exact double the scalar loop would. Bins failing the
// min-child-weight screen get -inf, which the strict `>` skips just
// like the scalar `continue`.
//
// Skipping an untouched bin is exact: its hg is +0.0 and its hc 0 (the
// scratch invariant), so it leaves gl/hl unchanged and its gain repeats
// the previous evaluated bin's, which the strict `>` never takes. The
// bins below the first touched one all repeat bin 0's all-empty-prefix
// gain, so the caller always feeds bin 0. A short block is padded with
// the always-empty `pad` slot for the same reason: a padded lane repeats
// the lane before it and cannot win.
class GainSweep {
 public:
  GainSweep(const double* hg, const double* hc, std::size_t pad,
            const FeatureScanParams& p)
      : hg_(hg),
        hc_(hc),
        pad_(pad),
        best_(p.min_split_gain),
        v_gtot_(_mm256_set1_pd(p.g_total)),
        v_htot_(_mm256_set1_pd(p.h_total)),
        v_lam_(_mm256_set1_pd(p.reg_lambda)),
        v_mcw_(_mm256_set1_pd(p.min_child_weight)),
        v_parent_(_mm256_set1_pd(p.parent_score)),
        v_best_(_mm256_set1_pd(p.min_split_gain)) {}

  // Sweep the set bits of `m`, bin = base + bit, in ascending order.
  void word(std::uint64_t m, std::size_t base) {
    while (m != 0) {
      std::size_t idx[4];
      for (auto& i : idx) {
        i = m != 0 ? base + low_bit(m) : pad_;
        m &= m - 1;
      }
      block(idx);
    }
  }

  SplitScan result() const { return cand_; }

 private:
  void block(const std::size_t (&idx)[4]) {
    const double gl0 = gl_ + hg_[idx[0]];
    const double gl1 = gl0 + hg_[idx[1]];
    const double gl2 = gl1 + hg_[idx[2]];
    const double gl3 = gl2 + hg_[idx[3]];
    const double hl0 = hl_ + hc_[idx[0]];
    const double hl1 = hl0 + hc_[idx[1]];
    const double hl2 = hl1 + hc_[idx[2]];
    const double hl3 = hl2 + hc_[idx[3]];
    gl_ = gl3;
    hl_ = hl3;
    const __m256d vgl = _mm256_set_pd(gl3, gl2, gl1, gl0);
    const __m256d vhl = _mm256_set_pd(hl3, hl2, hl1, hl0);
    const __m256d vhr = _mm256_sub_pd(v_htot_, vhl);
    const __m256d bad = _mm256_or_pd(_mm256_cmp_pd(vhl, v_mcw_, _CMP_LT_OQ),
                                     _mm256_cmp_pd(vhr, v_mcw_, _CMP_LT_OQ));
    const __m256d vgr = _mm256_sub_pd(v_gtot_, vgl);
    const __m256d lterm = _mm256_div_pd(_mm256_mul_pd(vgl, vgl),
                                        _mm256_add_pd(vhl, v_lam_));
    const __m256d rterm = _mm256_div_pd(_mm256_mul_pd(vgr, vgr),
                                        _mm256_add_pd(vhr, v_lam_));
    const __m256d gain = _mm256_blendv_pd(
        _mm256_sub_pd(_mm256_add_pd(lterm, rterm), v_parent_),
        _mm256_set1_pd(-std::numeric_limits<double>::infinity()), bad);
    // First-bin-wins argmax: lanes beating the block-entry best are
    // rare, so the in-order scalar resolution only runs on a hit. The
    // per-lane strict `>` against the running best reproduces the
    // scalar tier's update order within the block.
    if (_mm256_movemask_pd(_mm256_cmp_pd(gain, v_best_, _CMP_GT_OQ)) != 0) {
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, gain);
      for (int k = 0; k < 4; ++k) {
        if (lanes[k] > best_) {
          best_ = lanes[k];
          cand_.gain = lanes[k];
          cand_.bin = idx[k];
          cand_.valid = true;
        }
      }
      v_best_ = _mm256_set1_pd(best_);
    }
  }

  const double* hg_;
  const double* hc_;
  std::size_t pad_;
  double gl_ = 0.0;
  double hl_ = 0.0;
  double best_;
  SplitScan cand_;
  __m256d v_gtot_;
  __m256d v_htot_;
  __m256d v_lam_;
  __m256d v_mcw_;
  __m256d v_parent_;
  __m256d v_best_;
};

}  // namespace

SplitScan feature_scan(const std::uint16_t* col, const std::size_t* order,
                       std::size_t n, const double* node_grad,
                       std::size_t bins, const FeatureScanParams& p) {
  if (tl_hg.size() < bins + 1) {
    tl_hg.resize(bins + 1, 0.0);
    tl_hc.resize(bins + 1, 0.0);
    tl_words.resize((bins + kWordBits - 1) / kWordBits, 0);
  }
  double* hg = tl_hg.data();
  double* hc = tl_hc.data();
  // Codes are < bins, so the last slot stays zero for the whole call.
  GainSweep sweep(hg, hc, tl_hg.size() - 1, p);
  // Bin `bins - 1` can't split (the scalar loop stops before it); bin 0
  // is always evaluated (it stands for the all-empty prefix when no row
  // reached it).
  const std::size_t last = bins - 1;
  const std::uint64_t last_bit = std::uint64_t{1} << (last % kWordBits);

  // Histogram build: the adds scatter to data-dependent bins, so this
  // loop stays scalar and is kept verbatim from the scalar tier — each
  // add targets its own accumulator and rows are visited in ascending
  // order, so the per-bin FP sequences are unchanged. Alongside, set one
  // bit per touched bin: in a register when the feature fits one word
  // (every default-budget counter), else in tl_words plus a register
  // bit per touched word.
  if (bins <= kWordBits) {
    std::uint64_t touched = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t b = col[order[i]];
      hg[b] += node_grad[i];
      hc[b] += 1.0;
      touched |= std::uint64_t{1} << b;
    }
    sweep.word((touched | 1) & ~last_bit, 0);
    for (std::uint64_t m = touched; m != 0; m &= m - 1) {
      const std::size_t b = low_bit(m);
      hg[b] = 0.0;
      hc[b] = 0.0;
    }
    SplitScan cand = sweep.result();
    cand.constant = (touched & (touched - 1)) == 0;
    return cand;
  }

  std::uint64_t* words = tl_words.data();
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = col[order[i]];
    hg[b] += node_grad[i];
    hc[b] += 1.0;
    words[b / kWordBits] |= std::uint64_t{1} << (b % kWordBits);
    top |= std::uint64_t{1} << (b / kWordBits);
  }
  const bool constant =
      n == 0 || hc[col[order[0]]] == static_cast<double>(n);
  // The last bin is zeroed unconditionally below, so its bit can go.
  words[0] |= 1;
  top |= 1;
  words[last / kWordBits] &= ~last_bit;
  for (std::uint64_t t = top; t != 0; t &= t - 1) {
    const std::size_t w = low_bit(t);
    sweep.word(words[w], w * kWordBits);
  }
  for (std::uint64_t t = top; t != 0; t &= t - 1) {
    const std::size_t w = low_bit(t);
    for (std::uint64_t m = words[w]; m != 0; m &= m - 1) {
      const std::size_t b = w * kWordBits + low_bit(m);
      hg[b] = 0.0;
      hc[b] = 0.0;
    }
    words[w] = 0;
  }
  hg[last] = 0.0;
  hc[last] = 0.0;
  SplitScan cand = sweep.result();
  cand.constant = constant;
  return cand;
}

double node_sum_lanes(const double* v, std::size_t n) {
  // Fast-math only: four running lane sums, reduced in fixed lane order.
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) acc = _mm256_add_pd(acc, _mm256_loadu_pd(v + i));
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double total = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (; i < n; ++i) total += v[i];
  return total;
}

}  // namespace iotax::ml::kernels::avx2

#endif  // IOTAX_KERNELS_AVX2
