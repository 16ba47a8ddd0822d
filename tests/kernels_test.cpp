// Kernel equivalence suite: the AVX2 tier of every src/ml/kernels
// kernel must be BIT-identical to the scalar tier (which is the seed
// code verbatim), across randomized inputs, edge shapes, and the
// IOTAX_KERNELS × IOTAX_THREADS matrix. On machines or builds without
// AVX2 the comparisons still run — dispatch just resolves both sides to
// scalar — so the suite is green (if tautological) on the nosimd CI leg.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <sstream>
#include <utility>
#include <vector>

#include "src/data/matrix.hpp"
#include "src/ml/binning.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/kernels/dispatch.hpp"
#include "src/ml/kernels/forest.hpp"
#include "src/ml/kernels/gemm.hpp"
#include "src/ml/kernels/hist.hpp"
#include "src/ml/nn.hpp"

namespace iotax {
namespace {

namespace kn = ml::kernels;

// Pin the kernel tier for one scope; restores "auto" on exit.
class ScopedKernels {
 public:
  explicit ScopedKernels(const char* policy) {
    ::setenv("IOTAX_KERNELS", policy, 1);
    kn::refresh();
  }
  ~ScopedKernels() {
    ::unsetenv("IOTAX_KERNELS");
    kn::refresh();
  }
};

class ScopedThreads {
 public:
  explicit ScopedThreads(long n) {
    ::setenv("IOTAX_THREADS", std::to_string(n).c_str(), 1);
  }
  ~ScopedThreads() { ::unsetenv("IOTAX_THREADS"); }
};

bool avx2_active_possible() {
  return kn::avx2_compiled() && kn::avx2_supported();
}

// ---------------------------------------------------------------------
// feature_scan: scalar vs AVX2 bit-identity on randomized inputs.

struct ScanCase {
  std::vector<std::uint16_t> col;   // feature-major codes, one per row
  std::vector<std::size_t> order;   // node rows
  std::vector<double> grad;         // gathered per node row
  std::size_t bins;
  kn::FeatureScanParams params;
};

ScanCase random_scan_case(std::mt19937& rng, std::size_t n_rows,
                          std::size_t bins) {
  ScanCase c;
  c.bins = bins;
  std::uniform_int_distribution<int> bin_dist(
      0, static_cast<int>(bins) - 1);
  std::normal_distribution<double> grad_dist(0.0, 3.0);
  c.col.resize(n_rows);
  for (auto& v : c.col) v = static_cast<std::uint16_t>(bin_dist(rng));
  // A shuffled subset of rows, as build_tree's partitioning produces.
  std::vector<std::size_t> all(n_rows);
  for (std::size_t i = 0; i < n_rows; ++i) all[i] = i;
  std::shuffle(all.begin(), all.end(), rng);
  const std::size_t take = n_rows == 0 ? 0 : 1 + rng() % n_rows;
  c.order.assign(all.begin(), all.begin() + static_cast<long>(take));
  c.grad.resize(c.order.size());
  double g_total = 0.0;
  for (auto& g : c.grad) {
    g = grad_dist(rng);
    g_total += g;
  }
  c.params.g_total = g_total;
  c.params.h_total = static_cast<double>(c.order.size());
  c.params.reg_lambda = 1.0;
  c.params.min_child_weight = 1.0;
  c.params.min_split_gain = 0.0;
  c.params.parent_score =
      g_total * g_total / (c.params.h_total + c.params.reg_lambda);
  return c;
}

kn::SplitScan run_scan(const ScanCase& c, const char* policy) {
  ScopedKernels tier(policy);
  return kn::feature_scan(c.col.data(), c.order.data(), c.order.size(),
                          c.grad.data(), c.bins, c.params);
}

void expect_scan_identical(const ScanCase& c) {
  const auto s = run_scan(c, "scalar");
  const auto v = run_scan(c, "avx2");
  EXPECT_EQ(s.valid, v.valid);
  EXPECT_EQ(s.bin, v.bin);
  // Bit comparison, not EXPECT_DOUBLE_EQ: the contract is identity.
  EXPECT_EQ(std::memcmp(&s.gain, &v.gain, sizeof(double)), 0)
      << "scalar=" << s.gain << " avx2=" << v.gain;
  // `constant` against a direct recount, not only tier against tier.
  bool constant = true;
  for (const auto r : c.order) constant = constant && c.col[r] == c.col[c.order[0]];
  EXPECT_EQ(s.constant, constant);
  EXPECT_EQ(v.constant, constant);
}

// A node as GradientBoostedTrees::build_tree scans it: n rows drawn
// from a larger column, one code holding about 60% of them (sometimes
// the last bin), tied codes and tied gradients, -0.0 gradients, and now
// and then a node whose rows all share one code. Half the cases screen
// with min_child_weight 0 and min_split_gain -1, where the all-empty
// bin-0 prefix posts a live gain of 0.
ScanCase tree_scan_case(std::mt19937& rng, std::size_t n, std::size_t bins) {
  ScanCase c;
  c.bins = bins;
  std::uniform_int_distribution<int> bin_dist(0, static_cast<int>(bins) - 1);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::normal_distribution<double> grad_dist(0.0, 3.0);
  const auto dominant = static_cast<std::uint16_t>(
      u(rng) < 0.25 ? bins - 1 : static_cast<std::size_t>(bin_dist(rng)));
  const bool all_same = u(rng) < 0.15;
  const std::size_t rows = 2 * n + 3;
  c.col.resize(rows);
  for (auto& v : c.col) {
    v = all_same || u(rng) < 0.6 ? dominant
                                 : static_cast<std::uint16_t>(bin_dist(rng));
  }
  std::vector<std::size_t> all(rows);
  for (std::size_t i = 0; i < rows; ++i) all[i] = i;
  std::shuffle(all.begin(), all.end(), rng);
  c.order.assign(all.begin(), all.begin() + static_cast<long>(n));
  std::sort(c.order.begin(), c.order.end());
  c.grad.resize(n);
  double g_total = 0.0;
  for (auto& g : c.grad) {
    const double pick = u(rng);
    g = pick < 0.1 ? -0.0 : pick < 0.2 ? 1.5 : grad_dist(rng);
    g_total += g;
  }
  const bool loose = u(rng) < 0.5;
  c.params.g_total = g_total;
  c.params.h_total = static_cast<double>(n);
  c.params.reg_lambda = 1.0;
  c.params.min_child_weight = loose ? 0.0 : 1.0;
  c.params.min_split_gain = loose ? -1.0 : 0.0;
  c.params.parent_score =
      g_total * g_total / (c.params.h_total + c.params.reg_lambda);
  return c;
}

TEST(KernelsHist, ScalarVsAvx2Randomized) {
  std::mt19937 rng(7);
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t rows = 1 + rng() % 400;
    const std::size_t bins = 2 + rng() % 60;
    expect_scan_identical(random_scan_case(rng, rows, bins));
  }
  // Tree-shaped traffic: 11 node sizes x 6 bin counts x 16 draws.
  for (const std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 189}) {
    for (const std::size_t bins : {2, 3, 63, 64, 65, 2048}) {
      for (int rep = 0; rep < 16; ++rep) {
        expect_scan_identical(tree_scan_case(rng, n, bins));
      }
    }
  }
}

TEST(KernelsHist, MaxBinsEdge) {
  std::mt19937 rng(11);
  expect_scan_identical(random_scan_case(rng, 1000, ml::kMaxBins));
}

TEST(KernelsHist, SingleRow) {
  std::mt19937 rng(13);
  expect_scan_identical(random_scan_case(rng, 1, 2));
}

TEST(KernelsHist, EmptyNode) {
  // n == 0: no rows reach this node. Both tiers must report no split.
  std::mt19937 rng(15);
  ScanCase c = random_scan_case(rng, 8, 4);
  c.order.clear();
  c.grad.clear();
  c.params.g_total = 0.0;
  c.params.h_total = 0.0;
  c.params.parent_score = 0.0;
  expect_scan_identical(c);
  EXPECT_FALSE(run_scan(c, "avx2").valid);
}

TEST(KernelsHist, EmptyFeature) {
  // All rows land in bin 0 (a constant feature): no valid split, and the
  // same for a feature binned into a single code.
  std::mt19937 rng(17);
  ScanCase c = random_scan_case(rng, 64, 4);
  std::fill(c.col.begin(), c.col.end(), std::uint16_t{0});
  for (const std::size_t bins : {4, 1}) {
    c.bins = bins;
    expect_scan_identical(c);
    EXPECT_FALSE(run_scan(c, "scalar").valid) << bins;
    EXPECT_TRUE(run_scan(c, "scalar").constant) << bins;
  }
}

TEST(KernelsHist, SparseOffsetBins) {
  // Codes confined to a narrow high window of a wide bin space: bin 0 is
  // untouched (the single all-empty-prefix evaluation), and the sweep
  // skips the untouched bins between and after the touched ones.
  std::mt19937 rng(29);
  for (int rep = 0; rep < 20; ++rep) {
    ScanCase c = random_scan_case(rng, 48, 256);
    const std::uint16_t lo = static_cast<std::uint16_t>(96 + rng() % 32);
    for (auto& v : c.col) {
      v = static_cast<std::uint16_t>(lo + v % 24);
    }
    expect_scan_identical(c);
  }
}

TEST(KernelsHist, AllRowsInLastBin) {
  // Every row in bin bins-1, which the sweep never evaluates: the result
  // must come from the all-empty-prefix evaluation alone.
  std::mt19937 rng(31);
  ScanCase c = random_scan_case(rng, 32, 8);
  std::fill(c.col.begin(), c.col.end(), std::uint16_t{7});
  expect_scan_identical(c);
  EXPECT_FALSE(run_scan(c, "avx2").valid);
}

TEST(KernelsHist, NegativeMinSplitGainZeroChildWeight) {
  // With min_split_gain < 0 and min_child_weight == 0 the all-empty
  // prefix's +0.0 gain is a live candidate at bin 0 — the touched-bin
  // sweep must still report exactly what the scalar loop reports.
  std::mt19937 rng(37);
  for (int rep = 0; rep < 20; ++rep) {
    ScanCase c = random_scan_case(rng, 24, 64);
    for (auto& v : c.col) {
      v = static_cast<std::uint16_t>(20 + v % 16);  // bin 0 untouched
    }
    c.params.min_child_weight = 0.0;
    c.params.min_split_gain = -0.5;
    expect_scan_identical(c);
  }
}

TEST(KernelsHist, ScratchInvariantAcrossCalls) {
  // A wide-range scan followed by narrow ones on the same thread: any
  // stale residue from the first scan's bins would corrupt the later
  // histograms if the exit re-zeroing missed a touched bin.
  std::mt19937 rng(41);
  ScanCase wide = random_scan_case(rng, 300, 128);
  expect_scan_identical(wide);
  for (int rep = 0; rep < 10; ++rep) {
    ScanCase narrow = random_scan_case(rng, 16, 128);
    for (auto& v : narrow.col) {
      v = static_cast<std::uint16_t>(v % 128);
    }
    expect_scan_identical(narrow);
  }
}

TEST(KernelsHist, NodeSumDefaultIsSequential) {
  std::mt19937 rng(19);
  std::normal_distribution<double> d(0.0, 1.0);
  std::vector<double> v(1037);
  for (auto& x : v) x = d(rng);
  double ref = 0.0;
  for (const double x : v) ref += x;
  for (const char* policy : {"scalar", "avx2", "auto"}) {
    ScopedKernels tier(policy);
    const double got = kn::node_sum(v.data(), v.size());
    EXPECT_EQ(std::memcmp(&ref, &got, sizeof(double)), 0);
  }
}

TEST(KernelsHist, NodeSumFastMathWithinTolerance) {
  std::mt19937 rng(23);
  std::normal_distribution<double> d(0.0, 1.0);
  std::vector<double> v(2048);
  for (auto& x : v) x = d(rng);
  double ref = 0.0;
  for (const double x : v) ref += x;
  ::setenv("IOTAX_FAST_MATH", "1", 1);
  kn::refresh();
  const double fast = kn::node_sum(v.data(), v.size());
  ::unsetenv("IOTAX_FAST_MATH");
  kn::refresh();
  EXPECT_NEAR(fast, ref, 1e-9 * std::abs(ref) + 1e-12);
}

// ---------------------------------------------------------------------
// PackedForest: traversal vs a reference walk of the source nodes.

using NodeDesc = kn::PackedForest::NodeDesc;

// Build a random tree in Tree::Node form: internal nodes split on a
// random feature/bin, leaves carry random values.
std::vector<NodeDesc> random_tree(std::mt19937& rng, std::size_t n_features,
                                  std::size_t bins, int depth) {
  std::vector<NodeDesc> nodes;
  std::normal_distribution<double> val(0.0, 1.0);
  // Recursive build via explicit stack of (node index, remaining depth).
  nodes.push_back({});
  std::vector<std::pair<int, int>> stack = {{0, depth}};
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    auto& n = nodes[static_cast<std::size_t>(idx)];
    if (d == 0 || rng() % 4 == 0) {  // leaf
      n.feature = -1;
      n.split_bin = -1;
      n.threshold = 0.0;
      n.left = n.right = -1;
      n.value = val(rng);
      continue;
    }
    n.feature = static_cast<int>(rng() % n_features);
    n.split_bin = static_cast<int>(rng() % (bins - 1));
    // Thresholds consistent with a 1-unit-per-bin encoding so value and
    // code traversal route identically.
    n.threshold = static_cast<double>(n.split_bin);
    const int left = static_cast<int>(nodes.size());
    n.left = left;
    n.right = left + 1;
    nodes.push_back({});  // invalidates n
    nodes.push_back({});
    stack.push_back({left, d - 1});
    stack.push_back({left + 1, d - 1});
  }
  return nodes;
}

double reference_codes(const std::vector<NodeDesc>& nodes,
                       const std::uint16_t* row) {
  int idx = 0;
  while (nodes[static_cast<std::size_t>(idx)].feature >= 0) {
    const auto& n = nodes[static_cast<std::size_t>(idx)];
    idx = static_cast<int>(row[n.feature]) <= n.split_bin ? n.left : n.right;
  }
  return nodes[static_cast<std::size_t>(idx)].value;
}

double reference_values(const std::vector<NodeDesc>& nodes,
                        const double* row) {
  int idx = 0;
  while (nodes[static_cast<std::size_t>(idx)].feature >= 0) {
    const auto& n = nodes[static_cast<std::size_t>(idx)];
    idx = row[n.feature] <= n.threshold ? n.left : n.right;
  }
  return nodes[static_cast<std::size_t>(idx)].value;
}

TEST(KernelsForest, CodesMatchReferenceBothTiers) {
  std::mt19937 rng(29);
  const std::size_t n_features = 9;
  const std::size_t bins = 16;
  std::vector<std::vector<NodeDesc>> trees;
  kn::PackedForest forest;
  for (int t = 0; t < 7; ++t) {
    trees.push_back(random_tree(rng, n_features, bins, 5));
    forest.add_tree(trees.back(), /*with_codes=*/true);
  }
  // Row counts straddling the 8-row vector block and its scalar tail.
  for (const std::size_t n_rows : {1UL, 7UL, 8UL, 9UL, 64UL, 203UL}) {
    std::vector<std::uint16_t> codes(n_rows * n_features);
    for (auto& c : codes) c = static_cast<std::uint16_t>(rng() % bins);
    std::vector<double> expected(n_rows, 0.5);
    for (std::size_t i = 0; i < n_rows; ++i) {
      for (const auto& tree : trees) {
        expected[i] += reference_codes(tree, codes.data() + i * n_features);
      }
    }
    for (const char* policy : {"scalar", "avx2"}) {
      ScopedKernels tier(policy);
      std::vector<double> out(n_rows, 0.5);
      forest.predict_codes(codes.data(), n_features, n_rows, out.data());
      for (std::size_t i = 0; i < n_rows; ++i) {
        EXPECT_EQ(std::memcmp(&expected[i], &out[i], sizeof(double)), 0)
            << "policy=" << policy << " rows=" << n_rows << " i=" << i;
      }
    }
  }
}

TEST(KernelsForest, ValuesMatchReferenceBothTiers) {
  std::mt19937 rng(31);
  const std::size_t n_features = 5;
  std::vector<std::vector<NodeDesc>> trees;
  kn::PackedForest forest;
  for (int t = 0; t < 5; ++t) {
    trees.push_back(random_tree(rng, n_features, 8, 4));
    forest.add_tree(trees.back(), /*with_codes=*/false);
  }
  std::uniform_real_distribution<double> xd(-1.0, 8.0);
  for (const std::size_t n_rows : {1UL, 3UL, 4UL, 5UL, 33UL}) {
    std::vector<double> x(n_rows * n_features);
    for (auto& v : x) v = xd(rng);
    // A NaN feature must route right under both tiers.
    if (n_rows > 2) x[n_features + 1] = std::nan("");
    // Every tree prefix, the whole forest last.
    for (std::size_t t_end = 0; t_end <= trees.size(); ++t_end) {
      std::vector<double> expected(n_rows, -0.25);
      for (std::size_t i = 0; i < n_rows; ++i) {
        for (std::size_t t = 0; t < t_end; ++t) {
          expected[i] +=
              reference_values(trees[t], x.data() + i * n_features);
        }
      }
      for (const char* policy : {"scalar", "avx2"}) {
        ScopedKernels tier(policy);
        std::vector<double> out(n_rows, -0.25);
        forest.predict_values(t_end, x.data(), n_features, n_rows,
                              out.data());
        for (std::size_t i = 0; i < n_rows; ++i) {
          EXPECT_EQ(std::memcmp(&expected[i], &out[i], sizeof(double)), 0)
              << "policy=" << policy << " rows=" << n_rows
              << " trees=" << t_end << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelsForest, CodeTraversalRejectedWithoutBins) {
  std::mt19937 rng(37);
  kn::PackedForest forest;
  forest.add_tree(random_tree(rng, 3, 4, 2), /*with_codes=*/false);
  std::vector<std::uint16_t> codes(3, 0);
  std::vector<double> out(1, 0.0);
  EXPECT_THROW(forest.predict_codes(codes.data(), 3, 1, out.data()),
               std::logic_error);
}

// ---------------------------------------------------------------------
// dense_forward: scalar vs AVX2 bit-identity across odd shapes.

TEST(KernelsGemm, ScalarVsAvx2Randomized) {
  std::mt19937 rng(41);
  std::normal_distribution<double> d(0.0, 1.0);
  for (const std::size_t n_rows : {1UL, 3UL, 4UL, 5UL, 8UL, 17UL}) {
    for (const std::size_t in_dim : {1UL, 2UL, 13UL, 64UL}) {
      for (const std::size_t out_dim : {1UL, 2UL, 3UL, 64UL}) {
        std::vector<double> in(n_rows * in_dim);
        std::vector<double> w(out_dim * in_dim);
        std::vector<double> bias(out_dim);
        for (auto& v : in) v = d(rng);
        for (auto& v : w) v = d(rng);
        for (auto& v : bias) v = d(rng);
        std::vector<double> out_s(n_rows * out_dim);
        std::vector<double> out_v(n_rows * out_dim);
        {
          ScopedKernels tier("scalar");
          kn::dense_forward(in.data(), n_rows, in_dim, w.data(),
                            bias.data(), out_dim, out_s.data());
        }
        {
          ScopedKernels tier("avx2");
          kn::dense_forward(in.data(), n_rows, in_dim, w.data(),
                            bias.data(), out_dim, out_v.data());
        }
        EXPECT_EQ(std::memcmp(out_s.data(), out_v.data(),
                              out_s.size() * sizeof(double)),
                  0)
            << n_rows << "x" << in_dim << "->" << out_dim;
      }
    }
  }
}

TEST(KernelsGemm, FastMathWithinTolerance) {
  std::mt19937 rng(43);
  std::normal_distribution<double> d(0.0, 1.0);
  const std::size_t n_rows = 16, in_dim = 64, out_dim = 8;
  std::vector<double> in(n_rows * in_dim);
  std::vector<double> w(out_dim * in_dim);
  std::vector<double> bias(out_dim);
  for (auto& v : in) v = d(rng);
  for (auto& v : w) v = d(rng);
  for (auto& v : bias) v = d(rng);
  std::vector<double> ref(n_rows * out_dim);
  std::vector<double> fast(n_rows * out_dim);
  {
    ScopedKernels tier("scalar");
    kn::dense_forward(in.data(), n_rows, in_dim, w.data(), bias.data(),
                      out_dim, ref.data());
  }
  ::setenv("IOTAX_FAST_MATH", "1", 1);
  kn::refresh();
  kn::dense_forward(in.data(), n_rows, in_dim, w.data(), bias.data(),
                    out_dim, fast.data());
  ::unsetenv("IOTAX_FAST_MATH");
  kn::refresh();
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_NEAR(fast[k], ref[k], 1e-9 * std::abs(ref[k]) + 1e-12);
  }
}

// ---------------------------------------------------------------------
// Training kernels: scalar vs AVX2 bit-identity across odd shapes.

// ReLU-like deltas: about half exactly zero, a few negative zeros, one
// output column zero in every row and one row zero in every output.
std::vector<double> sparse_deltas(std::mt19937& rng, std::size_t n_rows,
                                  std::size_t out_dim) {
  std::normal_distribution<double> d(0.0, 1.0);
  std::vector<double> out(n_rows * out_dim);
  for (auto& v : out) {
    const auto pick = rng() % 8;
    v = pick < 4 ? 0.0 : pick == 4 ? -0.0 : d(rng);
  }
  for (std::size_t r = 0; r < n_rows; ++r) out[r * out_dim] = 0.0;
  for (std::size_t o = 0; o < out_dim; ++o) out[o] = 0.0;
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

TEST(KernelsTrain, GradWeightsScalarVsAvx2) {
  std::mt19937 rng(61);
  std::normal_distribution<double> d(0.0, 1.0);
  for (const std::size_t n_rows : {1UL, 3UL, 5UL, 17UL, 64UL, 65UL}) {
    for (const std::size_t in_dim : {1UL, 3UL, 4UL, 13UL, 16UL, 37UL, 97UL}) {
      for (const std::size_t out_dim : {1UL, 2UL, 7UL, 64UL}) {
        std::vector<double> a(n_rows * in_dim);
        for (auto& v : a) v = std::max(0.0, d(rng));
        const auto delta = sparse_deltas(rng, n_rows, out_dim);
        // Row 0's deltas are all zero, so an infinite activation there
        // must never reach the gradient (0 * inf would be NaN).
        a[in_dim / 2] = std::numeric_limits<double>::infinity();
        // Nonzero starting gradients: the kernel accumulates.
        std::vector<double> gw0(out_dim * in_dim);
        std::vector<double> gb0(out_dim);
        for (auto& v : gw0) v = d(rng);
        for (auto& v : gb0) v = d(rng);
        auto gw_s = gw0, gw_v = gw0, gb_s = gb0, gb_v = gb0;
        {
          ScopedKernels tier("scalar");
          kn::dense_grad_weights(a.data(), delta.data(), n_rows, in_dim,
                                 out_dim, gw_s.data(), gb_s.data());
        }
        {
          ScopedKernels tier("avx2");
          kn::dense_grad_weights(a.data(), delta.data(), n_rows, in_dim,
                                 out_dim, gw_v.data(), gb_v.data());
        }
        const std::string shape = std::to_string(n_rows) + "x" +
                                  std::to_string(in_dim) + "->" +
                                  std::to_string(out_dim);
        EXPECT_TRUE(same_bits(gw_s, gw_v)) << shape;
        EXPECT_TRUE(same_bits(gb_s, gb_v)) << shape;
        EXPECT_TRUE(all_finite(gw_v)) << shape;
        // Output 0's deltas are zero in every row: untouched.
        EXPECT_TRUE(std::equal(gw0.begin(), gw0.begin() + in_dim,
                               gw_v.begin()))
            << shape;
      }
    }
  }
}

TEST(KernelsTrain, GradInputScalarVsAvx2) {
  std::mt19937 rng(67);
  std::normal_distribution<double> d(0.0, 1.0);
  for (const std::size_t n_rows : {1UL, 3UL, 5UL, 17UL, 64UL}) {
    for (const std::size_t out_dim : {1UL, 2UL, 7UL, 64UL}) {
      for (const std::size_t in_dim : {1UL, 3UL, 4UL, 13UL, 16UL, 37UL, 97UL}) {
        std::vector<double> w(out_dim * in_dim);
        for (auto& v : w) v = d(rng);
        const auto delta = sparse_deltas(rng, n_rows, out_dim);
        // Output 0's delta is zero in every row, so an infinite weight
        // in its row must never reach the input gradient.
        w[in_dim / 2] = std::numeric_limits<double>::infinity();
        std::vector<double> da_s(n_rows * in_dim, 123.0);
        std::vector<double> da_v(n_rows * in_dim, -456.0);
        {
          ScopedKernels tier("scalar");
          kn::dense_grad_input(delta.data(), n_rows, out_dim, w.data(),
                               in_dim, da_s.data());
        }
        {
          ScopedKernels tier("avx2");
          kn::dense_grad_input(delta.data(), n_rows, out_dim, w.data(),
                               in_dim, da_v.data());
        }
        const std::string shape = std::to_string(n_rows) + "x" +
                                  std::to_string(out_dim) + "->" +
                                  std::to_string(in_dim);
        EXPECT_TRUE(same_bits(da_s, da_v)) << shape;
        EXPECT_TRUE(all_finite(da_v)) << shape;
        // Row 0's deltas are all zero: its gradient is exactly +0.0.
        for (std::size_t i = 0; i < in_dim; ++i) {
          EXPECT_EQ(std::signbit(da_v[i]), false) << shape;
          EXPECT_EQ(da_v[i], 0.0) << shape;
        }
      }
    }
  }
}

TEST(KernelsTrain, AdamStepScalarVsAvx2) {
  std::mt19937 rng(71);
  std::normal_distribution<double> d(0.0, 1.0);
  for (const std::size_t n : {1UL, 3UL, 4UL, 5UL, 17UL, 64UL, 100UL}) {
    for (const bool decay : {true, false}) {
      std::vector<double> param(n), m(n), v(n), grad(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Parameters on the scale of one step (biases start at zero):
        // on O(1) values the step's last-bit rounding would vanish in
        // the subtraction and hide a wrongly associated update.
        param[i] = i % 3 == 0 ? 0.0 : 1e-3 * d(rng);
        m[i] = 0.1 * d(rng);
        v[i] = std::abs(0.01 * d(rng));
        grad[i] = i % 5 == 0 ? 0.0 : 30.0 * d(rng);
      }
      kn::AdamStep s;
      s.bc1 = 1.0 - std::pow(s.beta1, 7.0);
      s.bc2 = 1.0 - std::pow(s.beta2, 7.0);
      s.learning_rate = 3e-3;
      s.weight_decay = 1e-4;
      s.batch_n = 37.0;
      auto p_s = param, m_s = m, v_s = v;
      auto p_v = param, m_v = m, v_v = v;
      {
        ScopedKernels tier("scalar");
        kn::adam_step(p_s.data(), m_s.data(), v_s.data(), grad.data(), n, s,
                      decay);
      }
      {
        ScopedKernels tier("avx2");
        kn::adam_step(p_v.data(), m_v.data(), v_v.data(), grad.data(), n, s,
                      decay);
      }
      const std::string what =
          "n=" + std::to_string(n) + (decay ? " decay" : " bias");
      EXPECT_TRUE(same_bits(p_s, p_v)) << what;
      EXPECT_TRUE(same_bits(m_s, m_v)) << what;
      EXPECT_TRUE(same_bits(v_s, v_v)) << what;
      EXPECT_FALSE(same_bits(p_s, param)) << what;  // it did update
    }
  }
}

// ---------------------------------------------------------------------
// Model-level determinism matrix: IOTAX_KERNELS x IOTAX_THREADS must
// not change a single bit of fitted-model predictions.

data::Matrix random_matrix(std::mt19937& rng, std::size_t rows,
                           std::size_t cols) {
  data::Matrix x(rows, cols);
  std::lognormal_distribution<double> d(1.0, 1.5);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) x(r, c) = d(rng);
  }
  return x;
}

TEST(KernelsDeterminism, GbtMatrixBitIdentical) {
  std::mt19937 rng(47);
  const auto x = random_matrix(rng, 300, 7);
  std::vector<double> y(x.rows());
  std::normal_distribution<double> yd(10.0, 2.0);
  for (auto& v : y) v = yd(rng);

  std::vector<double> ref_pred;
  std::vector<double> ref_codes_pred;
  bool first = true;
  for (const char* policy : {"scalar", "avx2", "auto"}) {
    for (const long threads : {1L, 4L}) {
      ScopedKernels tier(policy);
      ScopedThreads tc(threads);
      ml::GbtParams params;
      params.n_estimators = 25;
      params.max_depth = 4;
      ml::GradientBoostedTrees model(params);
      model.fit(x, y);
      const auto pred = model.predict(x);
      const ml::BinnedMatrix binned(x, params.max_bins);
      const auto codes = binned.encode_all(x);
      const auto cpred = model.predict_codes(codes);
      if (first) {
        ref_pred = pred;
        ref_codes_pred = cpred;
        first = false;
        continue;
      }
      ASSERT_EQ(pred.size(), ref_pred.size());
      EXPECT_EQ(std::memcmp(pred.data(), ref_pred.data(),
                            pred.size() * sizeof(double)),
                0)
          << "policy=" << policy << " threads=" << threads;
      EXPECT_EQ(std::memcmp(cpred.data(), ref_codes_pred.data(),
                            cpred.size() * sizeof(double)),
                0)
          << "policy=" << policy << " threads=" << threads;
    }
  }
}

TEST(KernelsDeterminism, MlpMatrixBitIdentical) {
  std::mt19937 rng(53);
  const auto x = random_matrix(rng, 200, 6);
  std::vector<double> y(x.rows());
  std::normal_distribution<double> yd(5.0, 1.0);
  for (auto& v : y) v = yd(rng);

  // MSE head without dropout, and an NLL head with dropout (training
  // draws masks and backprops through them on every tier).
  for (const bool nll_dropout : {false, true}) {
    std::vector<double> ref_pred;
    std::vector<double> ref_var;
    bool first = true;
    for (const char* policy : {"scalar", "avx2", "auto"}) {
      for (const long threads : {1L, 4L}) {
        ScopedKernels tier(policy);
        ScopedThreads tc(threads);
        ml::MlpParams params;
        params.hidden = {16, 16};
        params.epochs = 3;
        if (nll_dropout) {
          params.nll_head = true;
          params.dropout = 0.15;
        }
        ml::Mlp model(params);
        model.fit(x, y);
        const auto pred = model.predict(x);
        const auto var = nll_dropout ? model.predict_dist(x).variance
                                     : std::vector<double>{};
        if (first) {
          ref_pred = pred;
          ref_var = var;
          first = false;
          continue;
        }
        ASSERT_EQ(pred.size(), ref_pred.size());
        EXPECT_EQ(std::memcmp(pred.data(), ref_pred.data(),
                              pred.size() * sizeof(double)),
                  0)
            << params.to_string() << " policy=" << policy
            << " threads=" << threads;
        EXPECT_TRUE(same_bits(var, ref_var))
            << params.to_string() << " policy=" << policy
            << " threads=" << threads;
      }
    }
  }
}

TEST(KernelsDeterminism, GbtSaveLoadPredictBitIdentical) {
  // A loaded model (no split bins) predicts through PackedForest value
  // traversal; it must reproduce the fit-time model's predict() bits
  // under every tier.
  std::mt19937 rng(59);
  const auto x = random_matrix(rng, 150, 5);
  std::vector<double> y(x.rows());
  std::normal_distribution<double> yd(0.0, 1.0);
  for (auto& v : y) v = yd(rng);
  ml::GbtParams params;
  params.n_estimators = 10;
  ml::GradientBoostedTrees model(params);
  model.fit(x, y);
  const auto expected = model.predict(x);
  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::GradientBoostedTrees::load(buf);
  for (const char* policy : {"scalar", "avx2"}) {
    ScopedKernels tier(policy);
    const auto got = loaded.predict(x);
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          got.size() * sizeof(double)),
              0)
        << "policy=" << policy;
  }
  std::vector<std::uint16_t> codes(x.cols(), 0);
  EXPECT_THROW(loaded.predict_codes(codes), std::logic_error);
}

TEST(KernelsDispatch, PolicyResolution) {
  {
    ScopedKernels tier("scalar");
    EXPECT_EQ(kn::active_tier(), kn::Tier::kScalar);
  }
  {
    ScopedKernels tier("avx2");
    if (avx2_active_possible()) {
      EXPECT_EQ(kn::active_tier(), kn::Tier::kAvx2);
    } else {
      EXPECT_EQ(kn::active_tier(), kn::Tier::kScalar);  // graceful fallback
    }
  }
  {
    ScopedKernels tier("auto");
    EXPECT_EQ(kn::active_tier(),
              avx2_active_possible() ? kn::Tier::kAvx2 : kn::Tier::kScalar);
  }
  EXPECT_FALSE(kn::describe().empty());
  EXPECT_STREQ(kn::tier_name(kn::Tier::kScalar), "scalar");
  EXPECT_STREQ(kn::tier_name(kn::Tier::kAvx2), "avx2");
}

}  // namespace
}  // namespace iotax
