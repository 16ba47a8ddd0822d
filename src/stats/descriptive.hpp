// Descriptive statistics used throughout the litmus tests.
//
// The paper reports medians because the error distributions are heavy
// tailed (SC'22 §V), and applies Bessel's correction when estimating
// duplicate-set variance from small sets (§VI.A, §IX.A) — both live here.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace iotax::stats {

double sum(std::span<const double> xs);
double mean(std::span<const double> xs);

/// Sample variance with Bessel's correction (divides by n-1).
/// Requires xs.size() >= 2.
double variance(std::span<const double> xs);

/// Population variance (divides by n). Requires xs.size() >= 1.
double variance_population(std::span<const double> xs);

double stddev(std::span<const double> xs);

double min(std::span<const double> xs);
double max(std::span<const double> xs);

/// Quantile with linear interpolation between order statistics
/// (type-7, the numpy default). q in [0, 1].
double quantile(std::span<const double> xs, double q);

double median(std::span<const double> xs);

/// Median absolute deviation (around the median), unscaled.
double mad(std::span<const double> xs);

/// Weighted mean; weights must be non-negative with positive sum.
double weighted_mean(std::span<const double> xs,
                     std::span<const double> weights);

/// Weighted quantile (q in [0,1]) over non-negative weights.
double weighted_quantile(std::span<const double> xs,
                         std::span<const double> weights, double q);

/// Pearson correlation; requires equal sizes >= 2.
double correlation(std::span<const double> xs, std::span<const double> ys);

/// One-pass summary of a sample.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;  // Bessel-corrected; 0 if n < 2
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p05 = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
};

Summary summarize(std::span<const double> xs);

}  // namespace iotax::stats
