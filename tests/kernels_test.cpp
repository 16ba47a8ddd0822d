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
// node_scan: scalar vs AVX2 bit-identity on randomized nodes.

// A tree node as node_scan sees it: feature-major code columns over
// `rows` base rows with per-feature bin counts, the node's live feature
// list, its rows and their gathered gradients.
struct NodeCase {
  std::size_t rows = 0;
  std::vector<std::uint16_t> codes;   // feature-major, one column per id
  std::vector<std::size_t> bins;      // per feature id
  std::vector<std::size_t> features;  // live list
  std::vector<std::size_t> order;     // node rows
  std::vector<double> grad;           // gathered per node row
  kn::NodeScanParams params;

  std::uint16_t* column(std::size_t f) { return codes.data() + f * rows; }
  const std::uint16_t* column(std::size_t f) const {
    return codes.data() + f * rows;
  }

  // Append a column of `bins` bins (codes all 0) to the live list.
  std::size_t add_feature(std::size_t n_bins) {
    codes.resize(codes.size() + rows, 0);
    bins.push_back(n_bins);
    features.push_back(bins.size() - 1);
    return bins.size() - 1;
  }

  // Totals and parent score from the gradients, under the given screen.
  void set_params(double min_child_weight, double min_split_gain) {
    double g_total = 0.0;
    for (const double g : grad) g_total += g;
    params.g_total = g_total;
    params.h_total = static_cast<double>(order.size());
    params.reg_lambda = 1.0;
    params.min_child_weight = min_child_weight;
    params.min_split_gain = min_split_gain;
    params.parent_score =
        g_total * g_total / (params.h_total + params.reg_lambda);
  }
};

// A node of `take` rows (a shuffled subset of `rows`, as build_tree's
// partitioning produces; 0 draws a random size) with normal gradients
// and no features yet.
NodeCase random_node(std::mt19937& rng, std::size_t rows,
                     std::size_t take = 0) {
  NodeCase c;
  c.rows = rows;
  std::vector<std::size_t> all(rows);
  for (std::size_t i = 0; i < rows; ++i) all[i] = i;
  std::shuffle(all.begin(), all.end(), rng);
  if (take == 0) take = rows == 0 ? 0 : 1 + rng() % rows;
  c.order.assign(all.begin(), all.begin() + static_cast<long>(take));
  std::normal_distribution<double> grad_dist(0.0, 3.0);
  for (std::size_t i = 0; i < take; ++i) c.grad.push_back(grad_dist(rng));
  c.set_params(1.0, 0.0);
  return c;
}

// Append a feature of `bins` bins with uniform random codes.
std::size_t add_uniform_feature(NodeCase& c, std::mt19937& rng,
                                std::size_t bins) {
  const std::size_t f = c.add_feature(bins);
  std::uniform_int_distribution<int> bin_dist(0, static_cast<int>(bins) - 1);
  std::uint16_t* col = c.column(f);
  for (std::size_t r = 0; r < c.rows; ++r) {
    col[r] = static_cast<std::uint16_t>(bin_dist(rng));
  }
  return f;
}

// A node with k uniform features of `bins` bins each.
NodeCase random_scan_case(std::mt19937& rng, std::size_t rows,
                          std::size_t bins, std::size_t k) {
  NodeCase c = random_node(rng, rows);
  for (std::size_t j = 0; j < k; ++j) add_uniform_feature(c, rng, bins);
  return c;
}

std::vector<kn::SplitScan> run_scan(const NodeCase& c, const char* policy) {
  ScopedKernels tier(policy);
  std::vector<kn::SplitScan> out(c.features.size());
  kn::node_scan({c.codes.data(), c.rows, c.bins.data()}, c.features.data(),
                c.features.size(), c.order.data(), c.order.size(),
                c.grad.data(), c.params, out.data());
  return out;
}

void expect_scan_identical(const NodeCase& c) {
  const auto s = run_scan(c, "scalar");
  const auto v = run_scan(c, "avx2");
  for (std::size_t j = 0; j < c.features.size(); ++j) {
    const std::size_t f = c.features[j];
    EXPECT_EQ(s[j].valid, v[j].valid) << "feature " << f;
    EXPECT_EQ(s[j].bin, v[j].bin) << "feature " << f;
    // Bit comparison, not EXPECT_DOUBLE_EQ: the contract is identity.
    EXPECT_EQ(std::memcmp(&s[j].gain, &v[j].gain, sizeof(double)), 0)
        << "feature " << f << " scalar=" << s[j].gain << " avx2=" << v[j].gain;
    // `constant` against a direct recount, not only tier against tier.
    const std::uint16_t* col = c.column(f);
    bool constant = true;
    for (const auto r : c.order) constant = constant && col[r] == col[c.order[0]];
    EXPECT_EQ(s[j].constant, constant) << "feature " << f;
    EXPECT_EQ(v[j].constant, constant) << "feature " << f;
  }
}

// A node as GradientBoostedTrees::build_tree scans it: n rows drawn
// from a larger column set, gradients with ties and -0.0, and a live
// list of k features in permuted id order (with ids left out of it).
// Each feature has a bin count from {1, 2, 3, 63, 64, 65, 2048} and is
// one of: one code holding about 60% of the rows (sometimes the last
// bin), every row on one random code, or every row in the last bin. Half
// the nodes screen with min_child_weight 0 and min_split_gain -1, where
// the all-empty bin-0 prefix posts a live gain of 0.
NodeCase tree_scan_case(std::mt19937& rng, std::size_t n, std::size_t k) {
  constexpr std::size_t kBinChoices[] = {1, 2, 3, 63, 64, 65, 2048};
  std::uniform_real_distribution<double> u(0.0, 1.0);
  NodeCase c = random_node(rng, 2 * n + 3, n);
  std::sort(c.order.begin(), c.order.end());
  std::normal_distribution<double> grad_dist(0.0, 3.0);
  for (auto& g : c.grad) {
    const double pick = u(rng);
    g = pick < 0.1 ? -0.0 : pick < 0.2 ? 1.5 : grad_dist(rng);
  }
  const std::size_t n_ids = k + rng() % 4;
  for (std::size_t f = 0; f < n_ids; ++f) {
    const std::size_t bins = kBinChoices[rng() % 7];
    c.add_feature(bins);
    std::uniform_int_distribution<int> bin_dist(0, static_cast<int>(bins) - 1);
    const double kind = u(rng);
    const bool all_same = kind < 0.15;
    const bool all_last = kind >= 0.15 && kind < 0.3;
    const auto dominant = static_cast<std::uint16_t>(
        all_last || u(rng) < 0.25 ? bins - 1
                                  : static_cast<std::size_t>(bin_dist(rng)));
    std::uint16_t* col = c.column(f);
    for (std::size_t r = 0; r < c.rows; ++r) {
      col[r] = all_same || all_last || u(rng) < 0.6
                   ? dominant
                   : static_cast<std::uint16_t>(bin_dist(rng));
    }
  }
  std::shuffle(c.features.begin(), c.features.end(), rng);
  c.features.resize(k);
  const bool loose = u(rng) < 0.5;
  c.set_params(loose ? 0.0 : 1.0, loose ? -1.0 : 0.0);
  return c;
}

TEST(KernelsHist, ScalarVsAvx2Randomized) {
  std::mt19937 rng(7);
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t rows = 1 + rng() % 400;
    const std::size_t bins = 2 + rng() % 60;
    expect_scan_identical(random_scan_case(rng, rows, bins, 1 + rng() % 9));
  }
  // Tree-shaped traffic: 11 node sizes x live lists of 1-9 features x 8
  // draws, so groups of four, short last groups of one to three and wide
  // features interleaved with them all occur.
  for (const std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 189}) {
    for (std::size_t k = 1; k <= 9; ++k) {
      for (int rep = 0; rep < 8; ++rep) {
        expect_scan_identical(tree_scan_case(rng, n, k));
      }
    }
  }
}

TEST(KernelsHist, MaxBinsEdge) {
  // Two features at the bin ceiling among narrow ones.
  std::mt19937 rng(11);
  NodeCase c = random_scan_case(rng, 1000, 64, 3);
  add_uniform_feature(c, rng, ml::kMaxBins);
  add_uniform_feature(c, rng, ml::kMaxBins);
  std::swap(c.features[0], c.features[3]);
  expect_scan_identical(c);
}

TEST(KernelsHist, SingleRow) {
  std::mt19937 rng(13);
  expect_scan_identical(random_scan_case(rng, 1, 2, 5));
}

TEST(KernelsHist, EmptyNode) {
  // n == 0: no rows reach this node. Both tiers must report no split,
  // on narrow and wide features alike.
  std::mt19937 rng(15);
  NodeCase c = random_scan_case(rng, 8, 4, 5);
  add_uniform_feature(c, rng, 300);
  c.order.clear();
  c.grad.clear();
  c.set_params(1.0, 0.0);
  expect_scan_identical(c);
  for (const auto& scan : run_scan(c, "avx2")) EXPECT_FALSE(scan.valid);
}

TEST(KernelsHist, EmptyFeature) {
  // All rows land in bin 0 (a constant feature): no valid split, and the
  // same for a feature binned into a single code, grouped with a
  // feature that can split.
  std::mt19937 rng(17);
  NodeCase c = random_node(rng, 64);
  c.add_feature(4);
  c.add_feature(1);
  add_uniform_feature(c, rng, 4);
  expect_scan_identical(c);
  for (const char* policy : {"scalar", "avx2"}) {
    const auto scans = run_scan(c, policy);
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_FALSE(scans[j].valid) << policy << " " << c.bins[j];
      EXPECT_TRUE(scans[j].constant) << policy << " " << c.bins[j];
    }
  }
}

TEST(KernelsHist, SparseOffsetBins) {
  // Codes confined to a narrow high window of a wide bin space: bin 0 is
  // untouched (the single all-empty-prefix evaluation), and the sweep
  // skips the untouched bins between and after the touched ones.
  std::mt19937 rng(29);
  for (int rep = 0; rep < 20; ++rep) {
    NodeCase c = random_scan_case(rng, 48, 256, 3);
    const std::uint16_t lo = static_cast<std::uint16_t>(96 + rng() % 32);
    for (auto& v : c.codes) v = static_cast<std::uint16_t>(lo + v % 24);
    expect_scan_identical(c);
  }
}

TEST(KernelsHist, AllRowsInLastBin) {
  // Every row in bin bins-1, which the sweep never evaluates: the result
  // must come from the all-empty-prefix evaluation alone.
  std::mt19937 rng(31);
  NodeCase c = random_scan_case(rng, 32, 8, 4);
  std::fill(c.codes.begin(), c.codes.end(), std::uint16_t{7});
  expect_scan_identical(c);
  for (const auto& scan : run_scan(c, "avx2")) EXPECT_FALSE(scan.valid);
}

TEST(KernelsHist, NegativeMinSplitGainZeroChildWeight) {
  // With min_split_gain < 0 and min_child_weight == 0 the all-empty
  // prefix's +0.0 gain is a live candidate at bin 0 — the touched-bin
  // sweep must still report exactly what the scalar loop reports.
  std::mt19937 rng(37);
  for (int rep = 0; rep < 20; ++rep) {
    NodeCase c = random_scan_case(rng, 24, 64, 5);
    for (auto& v : c.codes) {
      v = static_cast<std::uint16_t>(20 + v % 16);  // bin 0 untouched
    }
    c.set_params(0.0, -0.5);
    expect_scan_identical(c);
  }
}

TEST(KernelsHist, ScratchInvariantAcrossCalls) {
  // Full-range scans followed by narrow ones on the same thread: any
  // stale residue from the first scan's bins would corrupt the later
  // histograms if the exit re-zeroing missed a touched bin, in the wide
  // pass's scratch or the group pass's.
  std::mt19937 rng(41);
  NodeCase wide = random_scan_case(rng, 300, 128, 2);
  add_uniform_feature(wide, rng, 64);
  add_uniform_feature(wide, rng, 64);
  expect_scan_identical(wide);
  for (int rep = 0; rep < 10; ++rep) {
    NodeCase narrow = random_scan_case(rng, 16, 128, 1);
    add_uniform_feature(narrow, rng, 64);
    add_uniform_feature(narrow, rng, 64);
    for (auto& v : narrow.codes) v = static_cast<std::uint16_t>(v % 8);
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
      const auto codes = binned.encode_all_ooc(x);
      const auto cpred =
          model.predict_codes_prefix(codes.codes(), model.n_trees());
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
  const auto loaded_model = ml::Regressor::load(buf);
  const auto& loaded =
      dynamic_cast<const ml::GradientBoostedTrees&>(*loaded_model);
  for (const char* policy : {"scalar", "avx2"}) {
    ScopedKernels tier(policy);
    const auto got = loaded.predict(x);
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          got.size() * sizeof(double)),
              0)
        << "policy=" << policy;
  }
  std::vector<std::uint16_t> codes(x.cols(), 0);
  EXPECT_THROW(loaded.predict_codes_prefix(codes, loaded.n_trees()),
               std::logic_error);
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
