// The iotax model-serving daemon: keeps saved Regressor checkpoints
// resident in a ModelRegistry and answers prediction requests over
// Unix-domain and/or TCP sockets using the framed binary protocol
// (serve/protocol.hpp).
//
// Request lifecycle:
//   session reader --> bounded MPMC queue --> batcher --> session socket
//
// One reader thread per connection decodes frames and admits requests
// into a BoundedQueue (capacity = --max-inflight). A single batcher
// thread gathers up to --batch-size requests within a --batch-wait-us
// window, assembles each model's rows into one Matrix, and runs the
// ordinary batch-predict kernels — the same thread-pool code offline
// `iotax predict` uses — so served answers are bit-identical to offline
// predictions at any IOTAX_THREADS. Responses are written back on the
// requester's socket under a per-session write lock (responses carry
// the request id, so cross-request ordering is unconstrained).
//
// Failure model: malformed or truncated frames map to the shared
// quarantine Reason vocabulary and produce a typed error reply; they
// never kill the daemon. Admission control sheds load with a typed BUSY
// reply once max-inflight requests are in the system, and a connection
// past the fd-derived session cap (listener.hpp) gets the same typed
// BUSY and is closed. stop() drains
// gracefully: listeners close, readers stop admitting, every already-
// admitted request is answered, then threads join.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/ml/registry.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/mpmc.hpp"
#include "src/util/quarantine.hpp"

namespace iotax::serve {

struct ServeConfig {
  /// Checkpoints to load; requests address them by index in this order.
  std::vector<std::string> model_files;
  /// Unix-domain listener path ("" disables). The path is unlinked on
  /// bind and again on shutdown.
  std::string unix_socket;
  /// TCP listener port on 127.0.0.1 (-1 disables, 0 picks an ephemeral
  /// port — read it back with Server::tcp_port()).
  int tcp_port = -1;
  /// Micro-batching: a batch closes at `batch_size` requests or
  /// `batch_wait_us` after its first request, whichever comes first.
  std::size_t batch_size = 32;
  std::uint64_t batch_wait_us = 200;
  /// Admission control: requests beyond this many in flight get a typed
  /// BUSY reply instead of queueing (also the queue capacity).
  std::size_t max_inflight = 256;
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

class Server {
 public:
  explicit Server(ServeConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Load models, bind listeners, launch the accept and batcher
  /// threads. Throws std::runtime_error on any setup failure (bad
  /// checkpoint, unbindable socket).
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
  struct Session;
  struct Pending;
  /// One session's reader thread. Finished readers are joined as new
  /// connections arrive, so retained threads track live sessions.
  struct Reader {
    std::thread thread;
    std::weak_ptr<Session> session;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  /// Join and drop readers whose session has ended.
  void reap_readers_locked();
  void session_loop(std::shared_ptr<Session> session);
  void batcher_loop();
  /// Handle one complete frame from `session`; returns false when the
  /// connection must close (unrecoverable framing defect).
  bool handle_frame(const std::shared_ptr<Session>& session,
                    const util::FrameHeader& header,
                    std::span<const std::uint8_t> payload);
  /// Apply one administrative verb (promote / rollback / status) and
  /// reply with a ControlResponse on the requester's session.
  void handle_control(const std::shared_ptr<Session>& session,
                      const ControlRequest& req);
  void run_batch(std::vector<Pending>&& batch);
  void send_error(const std::shared_ptr<Session>& session,
                  const ErrorResponse& err, bool count_as_error = true);
  void note_quarantine(util::Reason reason, const std::string& detail);
  static bool write_frame(Session& session, std::string_view bytes);

  ServeConfig config_;
  ml::ModelRegistry registry_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;

  std::unique_ptr<util::BoundedQueue<Pending>> queue_;
  std::atomic<std::size_t> inflight_{0};

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread accept_thread_;
  std::thread batcher_thread_;
  /// Live-session bound from the fd budget (listener.hpp), set in start().
  std::size_t max_sessions_ = 0;
  mutable std::mutex sessions_mu_;
  std::list<Reader> readers_;  // guarded by sessions_mu_

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
