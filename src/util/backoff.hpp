// Retry pacing primitives shared by the serving fleet: a jittered
// exponential backoff schedule and a monotonic deadline.
//
// Both are deterministic where it matters. backoff_delay_ms draws its
// jitter from a caller-owned Rng, so a seeded retry loop replays the
// exact same delay sequence run after run — which is what lets the
// chaos tests assert counter-exact ground truth instead of sleeping
// "long enough". Deadline is a thin wrapper over steady_clock that bounds
// one wait (a connect, a shard's startup) by a budget.
#pragma once

#include <chrono>
#include <cstdint>

#include "src/util/rng.hpp"

namespace iotax::util {

/// Exponential backoff schedule: attempt k (0-based) sleeps
/// min(initial_ms * multiplier^k, max_ms), scaled by a uniform jitter in
/// [1 - jitter, 1 + jitter]. jitter = 0 makes the schedule exact.
struct BackoffPolicy {
  std::uint64_t initial_ms = 1;
  std::uint64_t max_ms = 64;
  double multiplier = 2.0;
  double jitter = 0.5;

  /// Throws std::invalid_argument when multiplier < 1, jitter outside
  /// [0, 1), or initial_ms > max_ms.
  void validate() const;
};

/// Delay before retry attempt `attempt` (0-based). Never returns more
/// than policy.max_ms * (1 + jitter); returns 0 only when initial_ms
/// is 0.
std::uint64_t backoff_delay_ms(const BackoffPolicy& policy,
                               std::size_t attempt, Rng& rng);

/// A point in the future against steady_clock. `after_ms(0)` is the
/// infinite deadline (never expires, remaining_ms saturates).
class Deadline {
 public:
  static Deadline after_ms(std::uint64_t ms);
  static Deadline infinite() { return after_ms(0); }

  bool is_infinite() const { return infinite_; }
  bool expired() const;
  /// Milliseconds left, 0 when expired; ~0ULL when infinite.
  std::uint64_t remaining_ms() const;

 private:
  std::chrono::steady_clock::time_point at_{};
  bool infinite_ = true;
};

}  // namespace iotax::util
