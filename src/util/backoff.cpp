#include "src/util/backoff.hpp"

#include <cmath>
#include <stdexcept>

namespace iotax::util {

void BackoffPolicy::validate() const {
  if (!(multiplier >= 1.0) || !std::isfinite(multiplier)) {
    throw std::invalid_argument("backoff: multiplier must be >= 1");
  }
  if (!(jitter >= 0.0 && jitter < 1.0)) {
    throw std::invalid_argument("backoff: jitter must be in [0, 1)");
  }
  if (initial_ms > max_ms) {
    throw std::invalid_argument("backoff: initial_ms must be <= max_ms");
  }
}

std::uint64_t backoff_delay_ms(const BackoffPolicy& policy,
                               std::size_t attempt, Rng& rng) {
  double base = static_cast<double>(policy.initial_ms);
  for (std::size_t k = 0; k < attempt; ++k) {
    base *= policy.multiplier;
    if (base >= static_cast<double>(policy.max_ms)) break;
  }
  if (base > static_cast<double>(policy.max_ms)) {
    base = static_cast<double>(policy.max_ms);
  }
  const double scale =
      policy.jitter > 0.0
          ? rng.uniform(1.0 - policy.jitter, 1.0 + policy.jitter)
          : 1.0;
  const double delay = base * scale;
  return delay <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(delay));
}

Deadline Deadline::after_ms(std::uint64_t ms) {
  Deadline d;
  if (ms == 0) {
    d.infinite_ = true;
    return d;
  }
  d.infinite_ = false;
  d.at_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  return d;
}

bool Deadline::expired() const {
  if (infinite_) return false;
  return std::chrono::steady_clock::now() >= at_;
}

std::uint64_t Deadline::remaining_ms() const {
  if (infinite_) return ~0ULL;
  const auto left = at_ - std::chrono::steady_clock::now();
  if (left <= std::chrono::steady_clock::duration::zero()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(left).count());
}

}  // namespace iotax::util
