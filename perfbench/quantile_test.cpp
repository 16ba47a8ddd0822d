// Hand-computed cases for the benchmark's nearest-rank percentile:
// ties, samples smaller than 100, and ranks that fall exactly on a
// boundary. Exits non-zero on the first mismatch.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "perfbench/stats.hpp"

namespace {

int failures = 0;

void expect_eq(double got, double want, const char* what) {
  if (got != want) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

template <typename F>
void expect_throws(F&& f, const char* what) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return;
  }
  std::fprintf(stderr, "FAIL %s: no exception\n", what);
  ++failures;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

int main() {
  using perfbench::median;
  using perfbench::nearest_rank;

  // A single sample is every percentile.
  expect_eq(nearest_rank({7.5}, 0.5), 7.5, "n=1 p50");
  expect_eq(nearest_rank({7.5}, 0.999), 7.5, "n=1 p99.9");

  // n = 10, values 1..10 given in reverse: rank ceil(q*10).
  std::vector<double> ten = one_to(10);
  std::reverse(ten.begin(), ten.end());
  expect_eq(nearest_rank(ten, 0.1), 1.0, "n=10 p10 (rank 1)");
  expect_eq(nearest_rank(ten, 0.5), 5.0, "n=10 p50 (rank 5)");
  expect_eq(nearest_rank(ten, 0.9), 9.0, "n=10 p90 (rank 9, exact boundary)");
  expect_eq(nearest_rank(ten, 0.91), 10.0, "n=10 p91 (rank 10)");
  expect_eq(nearest_rank(ten, 0.99), 10.0, "n=10 p99 (rank 10)");
  expect_eq(nearest_rank(ten, 1.0), 10.0, "n=10 p100");

  // Odd n: the median is the middle sample; even n: the lower middle.
  expect_eq(median({3.0, 1.0, 2.0, 5.0, 4.0, 7.0, 6.0}), 4.0, "n=7 median");
  expect_eq(median({4.0, 1.0, 3.0, 2.0}), 2.0, "n=4 median (rank 2)");

  // Ties: sorted {1, 2, 2, 2, 3, 5}.
  const std::vector<double> ties = {3.0, 2.0, 5.0, 2.0, 1.0, 2.0};
  expect_eq(nearest_rank(ties, 0.2), 2.0, "ties p20 (rank 2)");
  expect_eq(nearest_rank(ties, 0.5), 2.0, "ties p50 (rank 3)");
  expect_eq(nearest_rank(ties, 0.66), 2.0, "ties p66 (rank 4)");
  expect_eq(nearest_rank(ties, 0.7), 3.0, "ties p70 (rank 5)");
  expect_eq(nearest_rank(ties, 0.9), 5.0, "ties p90 (rank 6)");
  expect_eq(nearest_rank({2.0, 2.0, 2.0}, 0.9), 2.0, "all equal");

  // n < 100: p99 is the maximum; n = 20 puts p90/p95 on exact ranks.
  expect_eq(nearest_rank(one_to(50), 0.99), 50.0, "n=50 p99 (rank 50)");
  expect_eq(nearest_rank(one_to(20), 0.9), 18.0, "n=20 p90 (rank 18)");
  expect_eq(nearest_rank(one_to(20), 0.95), 19.0, "n=20 p95 (rank 19)");
  expect_eq(nearest_rank(one_to(30), 0.9), 27.0, "n=30 p90 (rank 27)");
  expect_eq(nearest_rank(one_to(7), 0.9), 7.0, "n=7 p90 (rank 7)");

  // Exact boundaries at larger n.
  expect_eq(nearest_rank(one_to(100), 0.99), 99.0, "n=100 p99 (rank 99)");
  expect_eq(nearest_rank(one_to(100), 0.999), 100.0, "n=100 p99.9 (rank 100)");
  expect_eq(nearest_rank(one_to(1000), 0.999), 999.0, "n=1000 p99.9");
  expect_eq(nearest_rank(one_to(1001), 0.999), 1000.0, "n=1001 p99.9");
  expect_eq(nearest_rank(one_to(12000), 0.9), 10800.0, "n=12000 p90");

  expect_throws([] { nearest_rank({}, 0.5); }, "empty sample");
  expect_throws([] { nearest_rank({1.0}, 0.0); }, "q = 0");
  expect_throws([] { nearest_rank({1.0}, 1.5); }, "q > 1");

  if (failures != 0) {
    std::fprintf(stderr, "%d nearest-rank case(s) failed\n", failures);
    return 1;
  }
  std::printf("nearest-rank: all cases passed\n");
  return 0;
}
