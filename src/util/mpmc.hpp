// Bounded multi-producer / multi-consumer queue with explicit
// backpressure, built for the serve request path: the daemon's event
// loop (its one producer) try_push()es and treats a full queue as "shed
// this request", the batcher pop_batch()es whatever has arrived, up to a
// batch size (a non-zero hold keeps a short batch open for more), and
// close() starts a graceful drain — producers are refused, consumers
// keep popping until the queue is empty and only then see "done".
//
// All synchronisation is a mutex + two condition variables; no lock-free
// cleverness, so the type is trivially ThreadSanitizer-clean and the
// shutdown ordering is easy to reason about.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace iotax::util {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking push. False when the queue is full (backpressure: the
  /// caller sheds) or closed (drain: the caller refuses new work). Wakes
  /// a consumer only when one waits for any item or this push fills the
  /// batch being held open: no other push can end a wait.
  bool try_push(T v) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || q_.size() >= capacity_) return false;
      q_.push_back(std::move(v));
      wake = idle_ > 0 || q_.size() == gather_n_;
    }
    if (wake) nonempty_cv_.notify_one();
    return true;
  }

  /// Pop up to `max_n` items as one batch. Blocks, with no timeout,
  /// until at least one item is available (or the queue is closed), then
  /// takes everything queued up to `max_n`: a batch closes on what has
  /// already arrived. A non-zero `hold` keeps a batch short of `max_n`
  /// open for at most that long after its first item, to gather more. A
  /// zero hold never enters the timed wait, since a wait whose deadline
  /// has passed still sleeps out the kernel's timer slack. Returns an
  /// empty vector only when the queue is closed *and* drained — the
  /// consumer's signal to exit.
  std::vector<T> pop_batch(std::size_t max_n, std::chrono::microseconds hold) {
    std::unique_lock<std::mutex> lock(mu_);
    ++idle_;
    nonempty_cv_.wait(lock, [&] { return !q_.empty() || closed_; });
    --idle_;
    if (q_.empty()) return {};  // closed and drained
    if (hold.count() > 0 && q_.size() < max_n && !closed_) {
      gather_n_ = max_n;
      const auto deadline = std::chrono::steady_clock::now() + hold;
      nonempty_cv_.wait_until(lock, deadline, [&] {
        return q_.size() >= max_n || closed_;
      });
    }
    std::vector<T> batch;
    const std::size_t n = q_.size() < max_n ? q_.size() : max_n;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    return batch;
  }

  /// Refuse all future pushes and wake every blocked consumer. Items
  /// already queued stay poppable (drain-then-exit semantics).
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    nonempty_cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return q_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable nonempty_cv_;
  std::deque<T> q_;
  std::size_t idle_ = 0;      // consumers waiting for any item
  std::size_t gather_n_ = 0;  // batch size the consumer last held open for
  bool closed_ = false;
};

}  // namespace iotax::util
