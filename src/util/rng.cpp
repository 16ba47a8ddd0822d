#include "src/util/rng.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace iotax::util {

namespace {
std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : state_) s = sm.next();
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::fork(std::uint64_t stream) const {
  SplitMix64 sm(state_[0] ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return Rng(sm.next());
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  // In uint64: hi - lo overflows int64 for a range wider than INT64_MAX,
  // while the unsigned difference is exact; the result converts once.
  const auto ulo = static_cast<std::uint64_t>(lo);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - ulo + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full range
  // Lemire-style rejection to avoid modulo bias.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto l = static_cast<std::uint64_t>(m);
  if (l < range) {
    const std::uint64_t t = (0 - range) % range;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * range;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::int64_t>(ulo + static_cast<std::uint64_t>(m >> 64));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("exponential: rate must be > 0");
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::student_t(double df) {
  if (df <= 0.0) throw std::invalid_argument("student_t: df must be > 0");
  // t = Z / sqrt(ChiSq(df)/df); ChiSq(df) = Gamma(df/2, 2).
  const double z = normal();
  const double chi2 = gamma(df / 2.0, 2.0);
  return z / std::sqrt(chi2 / df);
}

double Rng::gamma(double shape, double scale) {
  if (shape <= 0.0 || scale <= 0.0) {
    throw std::invalid_argument("gamma: shape and scale must be > 0");
  }
  if (shape < 1.0) {
    // Boost to shape >= 1 and correct with a power of a uniform.
    const double u = std::max(uniform(), 1e-300);
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::int64_t Rng::poisson(double mean) {
  if (mean < 0.0) throw std::invalid_argument("poisson: mean must be >= 0");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    double prod = uniform();
    std::int64_t k = 0;
    while (prod > limit) {
      prod *= uniform();
      ++k;
    }
    return k;
  }
  // Normal approximation with continuity correction.
  const double v = normal(mean, std::sqrt(mean));
  return v < 0.0 ? 0 : static_cast<std::int64_t>(v + 0.5);
}

std::int64_t Rng::zipf(std::int64_t n, double s) {
  if (n <= 0) throw std::invalid_argument("zipf: n must be > 0");
  if (s < 0.0) throw std::invalid_argument("zipf: s must be >= 0");
  if (s == 0.0) return uniform_int(0, n - 1);
  // Rejection sampling against the bounding density (Devroye).
  const double b = std::pow(2.0, s - 1.0);
  for (;;) {
    const double u = std::max(uniform(), 1e-300);
    const double v = uniform();
    const double x = std::floor(std::pow(u, -1.0 / (s - 1.0 + 1e-12)));
    if (x < 1.0 || x > static_cast<double>(n)) continue;
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<std::int64_t>(x) - 1;
    }
  }
}

std::size_t Rng::categorical(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("categorical: negative weight");
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("categorical: weights sum to zero");
  }
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  // Partial Fisher-Yates over an index vector.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace iotax::util
