// The iotax model-serving daemon: keeps saved Regressor checkpoints
// resident in a ModelRegistry and answers prediction requests over
// Unix-domain and/or TCP sockets using the framed binary protocol
// (serve/protocol.hpp).
//
//   event loop --> bounded MPMC queue --> batcher --> outbox --> event loop
//
// Two threads, whatever the number of connections. The event loop
// (loop.hpp, shared with the fleet router) accepts, decodes frames,
// answers pings and control verbs, and admits predicts into a
// BoundedQueue; past --max-inflight unanswered requests it sheds with a
// typed BUSY. The batcher wakes on the first queued request and takes
// everything that has arrived, up to --batch-size: a batch closes on what
// is queued, and only a non-zero --batch-wait-us holds one open for more.
// It runs the ordinary batch-predict kernels, so served answers are
// bit-identical to offline `iotax predict` at any IOTAX_THREADS and
// whatever the batch composition. Each batch's encoded replies go back
// through one mutex-guarded outbox and one eventfd wake; the queue and
// the outbox are the only state the two threads share. Replies carry
// the request id, so cross-request ordering is unconstrained.
//
// Failure model: frame defects map to the quarantine Reason vocabulary
// and get a typed error reply; they never kill the daemon. stop()
// drains: listeners close, sessions stop reading, every admitted request
// is answered, then threads join.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/ml/registry.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/loop.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/mpmc.hpp"
#include "src/util/quarantine.hpp"

namespace iotax::serve {

/// Batching and admission: the settings a daemon and every shard of a
/// fleet share, and the one place their defaults are written (the
/// `serve` and `fleet` verbs default their flags to these).
struct BatchConfig {
  /// Micro-batching: a batch closes on what has arrived. The batcher
  /// takes every queued request, up to `batch_size`, as soon as the
  /// first is there. A non-zero `batch_wait_us` holds a batch short of
  /// `batch_size` open for up to that long after its first request.
  std::size_t batch_size = 32;
  std::uint64_t batch_wait_us = 0;
  /// Admission control: requests beyond this many in flight get a typed
  /// BUSY reply instead of queueing (also the queue capacity).
  std::size_t max_inflight = 256;
};

/// One daemon: how it batches (BatchConfig: a batch closes on what has
/// arrived unless `batch_wait_us` holds it), what it loads and where it
/// listens.
struct ServeConfig : BatchConfig {
  /// Checkpoints to load; requests address them by index in this order.
  std::vector<std::string> model_files;
  /// Unix-domain listener path ("" disables). The path is unlinked on
  /// bind and again on shutdown.
  std::string unix_socket;
  /// TCP listener port on 127.0.0.1 (-1 disables, 0 picks an ephemeral
  /// port — read it back with Server::tcp_port()).
  int tcp_port = -1;
  /// Shadow deployment: a candidate checkpoint served beside production
  /// ("" disables). Requests flagged kFlagShadow get values =
  /// {production, shadow}; divergence between the two is accounted
  /// bit-exactly and gates promotion (ControlOp::kPromote publishes the
  /// shadow into `shadow_slot`).
  std::string shadow_file;
  /// Registry slot the shadow is a candidate for.
  std::size_t shadow_slot = 0;
};

/// Monotonic totals since start(); exact (plain atomics, not gated on
/// IOTAX_OBS). The obs counters serve.{requests,batches,shed,...}
/// mirror these when observability is enabled.
struct ServeStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;     // admitted predict requests
  std::uint64_t responses = 0;    // predict responses written
  std::uint64_t batches = 0;      // batches executed
  std::uint64_t shed = 0;         // BUSY replies (admission control)
  std::uint64_t errors = 0;       // typed error replies other than BUSY
  std::uint64_t quarantined = 0;  // frame/request defects recorded
  std::uint64_t shadow_requests = 0;  // rows also scored by the shadow
  std::uint64_t shadow_diverged = 0;  // rows whose two answers differ bitwise
  std::uint64_t promotions = 0;       // shadow publishes into the registry
  std::uint64_t rollbacks = 0;        // registry rollbacks applied
  double max_abs_divergence = 0.0;    // worst |production - shadow| seen
};

class Server : private EventLoop::Owner {
 public:
  explicit Server(ServeConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Load models, bind listeners, launch the loop and batcher threads.
  /// Throws std::runtime_error on any setup failure (bad checkpoint,
  /// unbindable socket); a failed start leaves no fd or socket file.
  void start();

  /// Graceful drain: stop accepting, answer everything already
  /// admitted, join all threads. Idempotent; blocks until done.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual TCP port after start() (useful with config tcp_port = 0);
  /// -1 when TCP is disabled.
  int tcp_port() const { return bound_tcp_port_; }

  const ml::ModelRegistry& registry() const { return registry_; }
  const ServeConfig& config() const { return config_; }

  /// Snapshot of the shadow candidate (nullptr when none is loaded or
  /// after a promotion consumed it).
  std::shared_ptr<const ml::ModelEntry> shadow() const;

  ServeStats stats() const;
  /// Snapshot of frame/request defects seen so far.
  util::QuarantineReport quarantine() const;

 private:
  struct Pending;
  /// One encoded reply from the batcher, for the session `session`.
  struct Reply {
    std::uint64_t session;
    std::string frame;
  };

  // EventLoop::Owner, on the loop thread.
  void on_request(Session& s, const util::FrameHeader& header,
                  std::span<const std::uint8_t> payload,
                  std::span<const std::uint8_t> frame) override;
  /// Move the outbox's replies onto their sessions.
  void on_wake() override;
  bool idle() const override { return unanswered_ == 0; }
  void count_connection() override {
    n_connections_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("serve.connections", 1);
  }
  void count_shed() override {
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("serve.shed", 1);
  }
  void count_error() override {
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("serve.errors", 1);
  }
  void note_quarantine(util::Reason reason,
                       const std::string& detail) override;

  /// Apply one administrative verb (promote / rollback / status) and
  /// reply with a ControlResponse on the requester's session.
  void handle_control(Session& s, const ControlRequest& req);
  /// Queue a typed error on `s`, counted as shed or as an error.
  void reply_error(Session& s, const ErrorResponse& err, bool shed = false);
  void batcher_loop();
  void run_batch(std::vector<Pending>&& batch);

  ServeConfig config_;
  ml::ModelRegistry registry_;

  int bound_tcp_port_ = -1;

  std::unique_ptr<util::BoundedQueue<Pending>> queue_;
  std::unique_ptr<EventLoop> loop_;
  std::thread loop_thread_;
  std::thread batcher_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// Replies the batcher finished and the loop has not yet picked up.
  std::mutex outbox_mu_;
  std::vector<Reply> outbox_;      // guarded by outbox_mu_
  std::vector<Reply> delivering_;  // loop thread only
  /// Admitted predicts whose reply has not reached the loop: what
  /// --max-inflight bounds (loop thread only).
  std::size_t unanswered_ = 0;

  mutable std::mutex quarantine_mu_;
  util::QuarantineReport quarantine_;  // guarded by quarantine_mu_

  std::atomic<std::uint64_t> n_connections_{0};
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_responses_{0};
  std::atomic<std::uint64_t> n_batches_{0};
  std::atomic<std::uint64_t> n_shed_{0};
  std::atomic<std::uint64_t> n_errors_{0};
  std::atomic<std::uint64_t> n_quarantined_{0};

  // Shadow deployment state. The candidate entry swaps out atomically on
  // promotion; divergence accounting is monotonic since start().
  mutable std::mutex shadow_mu_;
  std::shared_ptr<const ml::ModelEntry> shadow_;  // guarded by shadow_mu_
  double max_abs_divergence_ = 0.0;               // guarded by shadow_mu_
  std::atomic<std::uint64_t> n_shadow_requests_{0};
  std::atomic<std::uint64_t> n_shadow_diverged_{0};
  std::atomic<std::uint64_t> n_promotions_{0};
  std::atomic<std::uint64_t> n_rollbacks_{0};
};

}  // namespace iotax::serve
