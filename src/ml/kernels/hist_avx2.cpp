// AVX2 tier of the GBT split-finding kernels. Compiled with -mavx2 (and
// -ffp-contract=off so the compiler cannot fuse the mul+add pairs that
// keep the default tier bit-identical).
#if defined(IOTAX_KERNELS_AVX2)

#include <immintrin.h>

#include <limits>
#include <utility>

#include "src/ml/kernels/internal.hpp"
#include "src/util/aligned.hpp"

namespace iotax::ml::kernels::avx2 {

namespace {

constexpr std::size_t kWordBits = 64;
// Slots of a group-pass histogram: one per code of a feature of at most
// kWordBits bins, plus the always-empty pad slot (see GainSweep).
constexpr std::size_t kGroupSlots = kWordBits + 1;

// Tier-owned scratch, kept ALL-ZERO between calls: each scan re-zeroes
// only the bins it touched on the way out, so the zeroing cost scales
// with the node instead of the bin count. Every histogram is an array of
// 16-byte {gradient sum, row count} slots (doubles 2b and 2b + 1).
// tl_group holds the group pass's kScanGroup histograms, member k's from
// slot k * kGroupSlots; tl_wide holds the wide pass's, one slot past
// every code the current call can write (resize() zero-fills any growth,
// so the invariant survives a larger-bins call), and tl_words one
// touched-bin bit per bin, a word per 64 bins.
alignas(32) thread_local double tl_group[kScanGroup * kGroupSlots * 2];
thread_local util::aligned_vector<double> tl_wide;
thread_local util::aligned_vector<std::uint64_t> tl_words;

inline std::size_t low_bit(std::uint64_t m) {
  return static_cast<std::size_t>(__builtin_ctzll(m));
}

// The gain sweep over touched bins only. Bins are fed in ascending
// order, up to four at a time; the running left sums gl/hl are a true
// serial dependence (reassociating them would change the bits), so they
// stay sequential in exactly the seed's order — one 128-bit add per bin
// advances both, lane by lane, from the bin's slot — and each block of
// them is regrouped into vectors so the expensive part — two multiplies
// and two divides per bin — runs 4-wide. All of it is elementwise IEEE
// arithmetic in the scalar expression's association, so every lane
// produces the exact double the scalar loop would. Bins failing the
// min-child-weight screen get -inf, which the strict `>` skips just
// like the scalar `continue`.
//
// Skipping an untouched bin is exact: its slot is {+0.0, 0} (the
// scratch invariant), so it leaves gl/hl unchanged and its gain repeats
// the previous evaluated bin's, which the strict `>` never takes. The
// bins below the first touched one all repeat bin 0's all-empty-prefix
// gain, so the caller always feeds bin 0. A short block is padded with
// the always-empty `pad` slot for the same reason: a padded lane repeats
// the lane before it and cannot win.
class GainSweep {
 public:
  GainSweep(const double* slots, std::size_t pad, const NodeScanParams& p)
      : slots_(slots),
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
    const __m128d l0 = _mm_add_pd(left_, _mm_load_pd(slots_ + 2 * idx[0]));
    const __m128d l1 = _mm_add_pd(l0, _mm_load_pd(slots_ + 2 * idx[1]));
    const __m128d l2 = _mm_add_pd(l1, _mm_load_pd(slots_ + 2 * idx[2]));
    const __m128d l3 = _mm_add_pd(l2, _mm_load_pd(slots_ + 2 * idx[3]));
    left_ = l3;
    // {gl0, hl0, gl2, hl2} and {gl1, hl1, gl3, hl3} → gl0..3 and hl0..3.
    const __m256d even = _mm256_set_m128d(l2, l0);
    const __m256d odd = _mm256_set_m128d(l3, l1);
    const __m256d vgl = _mm256_unpacklo_pd(even, odd);
    const __m256d vhl = _mm256_unpackhi_pd(even, odd);
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

  const double* slots_;
  std::size_t pad_;
  __m128d left_ = _mm_setzero_pd();  // running {gl, hl}
  double best_;
  SplitScan cand_;
  __m256d v_gtot_;
  __m256d v_htot_;
  __m256d v_lam_;
  __m256d v_mcw_;
  __m256d v_parent_;
  __m256d v_best_;
};

// The slot increment of one row: its gradient in lane 0, a count of 1
// in lane 1.
inline __m128d row_increment(const double* grad) {
  return _mm_loadl_pd(_mm_set_pd(1.0, 0.0), grad);
}

inline void add_to_slot(double* slot, __m128d inc) {
  _mm_store_pd(slot, _mm_add_pd(_mm_load_pd(slot), inc));
}

// Sweep, re-zero and report one group-pass histogram.
void finish_group_member(double* hist, std::uint64_t touched,
                         std::size_t bins, const NodeScanParams& p,
                         SplitScan& out) {
  // Bin `bins - 1` can't split (the scalar loop stops before it); bin 0
  // is always evaluated (it stands for the all-empty prefix when no row
  // reached it).
  GainSweep sweep(hist, kWordBits, p);
  sweep.word((touched | 1) & ~(std::uint64_t{1} << (bins - 1)), 0);
  for (std::uint64_t m = touched; m != 0; m &= m - 1) {
    _mm_store_pd(hist + 2 * low_bit(m), _mm_setzero_pd());
  }
  out = sweep.result();
  out.constant = (touched & (touched - 1)) == 0;
}

// The group pass: the features at live-list positions pos[K...], each
// of at most kWordBits bins, built in one pass over the node's rows.
// Each member has its own histogram, so a bin's adds still run in row
// order; the members' dependence chains interleave. The member index is
// a template pack, so every per-member access is unrolled at compile
// time and the per-member arrays stay in registers.
template <std::size_t... K>
void scan_group(std::index_sequence<K...>, const ScanColumns& cols,
                const std::size_t* features, const std::size_t* pos,
                const std::size_t* order, std::size_t n,
                const double* node_grad, const NodeScanParams& p,
                SplitScan* out) {
  const std::uint16_t* const col[] = {
      cols.codes + features[pos[K]] * cols.stride...};
  std::uint64_t touched[sizeof...(K)] = {};
  // Member k's bin b is group slot k * kGroupSlots + b.
  const auto add = [](std::size_t first_slot, std::size_t b, __m128d inc,
                      std::uint64_t& bits) {
    add_to_slot(tl_group + 2 * (first_slot + b), inc);
    bits |= std::uint64_t{1} << b;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = order[i];
    const __m128d inc = row_increment(node_grad + i);
    (add(K * kGroupSlots, col[K][r], inc, touched[K]), ...);
  }
  (finish_group_member(tl_group + 2 * K * kGroupSlots, touched[K],
                       cols.bins[features[pos[K]]], p, out[pos[K]]),
   ...);
}

// The wide pass: one feature of more than kWordBits bins, on the same
// slots, tracking touched bins in tl_words plus a register bit per
// touched word.
SplitScan scan_wide(const std::uint16_t* col, std::size_t bins,
                    const std::size_t* order, std::size_t n,
                    const double* node_grad, const NodeScanParams& p) {
  if (tl_wide.size() < 2 * (bins + 1)) {
    tl_wide.resize(2 * (bins + 1), 0.0);
    tl_words.resize((bins + kWordBits - 1) / kWordBits, 0);
  }
  double* hist = tl_wide.data();
  std::uint64_t* words = tl_words.data();
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = col[order[i]];
    add_to_slot(hist + 2 * b, row_increment(node_grad + i));
    words[b / kWordBits] |= std::uint64_t{1} << (b % kWordBits);
    top |= std::uint64_t{1} << (b / kWordBits);
  }
  const bool constant =
      n == 0 || hist[2 * col[order[0]] + 1] == static_cast<double>(n);
  // Codes are < bins, so the last slot stays zero for the whole call.
  GainSweep sweep(hist, tl_wide.size() / 2 - 1, p);
  // The last bin is zeroed unconditionally below, so its bit can go.
  const std::size_t last = bins - 1;
  words[0] |= 1;
  top |= 1;
  words[last / kWordBits] &= ~(std::uint64_t{1} << (last % kWordBits));
  for (std::uint64_t t = top; t != 0; t &= t - 1) {
    const std::size_t w = low_bit(t);
    sweep.word(words[w], w * kWordBits);
  }
  for (std::uint64_t t = top; t != 0; t &= t - 1) {
    const std::size_t w = low_bit(t);
    for (std::uint64_t m = words[w]; m != 0; m &= m - 1) {
      _mm_store_pd(hist + 2 * (w * kWordBits + low_bit(m)), _mm_setzero_pd());
    }
    words[w] = 0;
  }
  _mm_store_pd(hist + 2 * last, _mm_setzero_pd());
  SplitScan cand = sweep.result();
  cand.constant = constant;
  return cand;
}

}  // namespace

void node_scan(const ScanColumns& cols, const std::size_t* features,
               std::size_t n_features, const std::size_t* order,
               std::size_t n, const double* node_grad,
               const NodeScanParams& p, SplitScan* out) {
  static_assert(kScanGroup == 4, "the short-group dispatch below");
  std::size_t group[kScanGroup];
  std::size_t k = 0;
  const auto scan = [&](auto members) {
    scan_group(members, cols, features, group, order, n, node_grad, p, out);
  };
  for (std::size_t j = 0; j < n_features; ++j) {
    const std::size_t f = features[j];
    if (cols.bins[f] > kWordBits) {
      out[j] = scan_wide(cols.codes + f * cols.stride, cols.bins[f], order,
                         n, node_grad, p);
      continue;
    }
    group[k++] = j;
    if (k == kScanGroup) {
      scan(std::make_index_sequence<kScanGroup>{});
      k = 0;
    }
  }
  // The list's last one to three narrow features: the same pass.
  switch (k) {
    case 1:
      scan(std::make_index_sequence<1>{});
      break;
    case 2:
      scan(std::make_index_sequence<2>{});
      break;
    case 3:
      scan(std::make_index_sequence<3>{});
      break;
    default:
      break;
  }
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
