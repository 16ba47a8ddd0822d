#include "src/stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace iotax::stats {

namespace {
void require_nonempty(std::span<const double> xs, const char* who) {
  if (xs.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty input");
  }
}
}  // namespace

double sum(std::span<const double> xs) {
  // Kahan summation: datasets mix values spanning many orders of magnitude.
  double s = 0.0;
  double c = 0.0;
  for (double x : xs) {
    const double y = x - c;
    const double t = s + y;
    c = (t - s) - y;
    s = t;
  }
  return s;
}

double mean(std::span<const double> xs) {
  require_nonempty(xs, "mean");
  return sum(xs) / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) throw std::invalid_argument("variance: need n >= 2");
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double variance_population(std::span<const double> xs) {
  require_nonempty(xs, "variance_population");
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) {
  require_nonempty(xs, "min");
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  require_nonempty(xs, "max");
  return *std::max_element(xs.begin(), xs.end());
}

double quantile(std::span<const double> xs, double q) {
  require_nonempty(xs, "quantile");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q not in [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double mad(std::span<const double> xs) {
  require_nonempty(xs, "mad");
  const double med = median(xs);
  std::vector<double> dev(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) dev[i] = std::fabs(xs[i] - med);
  return median(dev);
}

double weighted_mean(std::span<const double> xs,
                     std::span<const double> weights) {
  if (xs.size() != weights.size()) {
    throw std::invalid_argument("weighted_mean: size mismatch");
  }
  require_nonempty(xs, "weighted_mean");
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (weights[i] < 0.0) {
      throw std::invalid_argument("weighted_mean: negative weight");
    }
    num += xs[i] * weights[i];
    den += weights[i];
  }
  if (den <= 0.0) throw std::invalid_argument("weighted_mean: zero weight sum");
  return num / den;
}

double weighted_quantile(std::span<const double> xs,
                         std::span<const double> weights, double q) {
  if (xs.size() != weights.size()) {
    throw std::invalid_argument("weighted_quantile: size mismatch");
  }
  require_nonempty(xs, "weighted_quantile");
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("weighted_quantile: q not in [0,1]");
  }
  std::vector<std::size_t> order(xs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&xs](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("weighted_quantile: negative weight");
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("weighted_quantile: zero weight sum");
  }
  double acc = 0.0;
  double last_positive = xs[order.back()];
  for (std::size_t i : order) {
    acc += weights[i];
    // Zero-weight samples carry no probability mass and are never the
    // quantile (matters at q == 0).
    if (weights[i] > 0.0) {
      last_positive = xs[i];
      if (acc >= q * total) return xs[i];
    }
  }
  return last_positive;
}

double correlation(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("correlation: size mismatch");
  }
  if (xs.size() < 2) throw std::invalid_argument("correlation: need n >= 2");
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  s.n = xs.size();
  s.mean = mean(xs);
  s.stddev = xs.size() >= 2 ? stddev(xs) : 0.0;
  s.min = min(xs);
  s.max = max(xs);
  s.median = median(xs);
  s.p05 = quantile(xs, 0.05);
  s.p25 = quantile(xs, 0.25);
  s.p75 = quantile(xs, 0.75);
  s.p95 = quantile(xs, 0.95);
  return s;
}

}  // namespace iotax::stats
