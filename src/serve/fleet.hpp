// The serving fleet: a supervised pack of shard daemons behind one
// consistent-hashing router.
//
//   clients ==> Router (one epoll thread) ==> backhaul g<slot>r<k> ==> shard
//               sessions + pending table      (one per replica)   (iotax serve)
//                 ^  requests re-sent on failure / silence              ^
//                 |                                                     |
//                 +-- replies, client id restored        Supervisor (spawn,
//                                                        health ping, SIGKILL
//                                                        hung shards, restart
//                                                        w/ backoff budget)
//
// Topology: n_groups replica groups, n_replicas shards per group; every
// shard loads the same checkpoints, so the hash only decides *where* a
// request runs, never *what* it answers — which is why a mid-load
// `kill -9` of any shard is invisible to clients: the router re-sends
// the requests pending on the dead shard's backhaul to a sibling
// replica and the answer stays bit-identical to offline `iotax predict`.
//
// Failure model: shard death or hang is detected (waitpid / ping
// deadline), the shard is restarted under an exponential-backoff
// restart budget, and in the window before it returns the group's other
// replicas absorb the traffic. Only when an entire group stays
// unreachable past the request deadline does a client see an error —
// the typed kDegraded reply carrying the terminal transport Reason.
// Chaos (src/faults/chaos.hpp) drives all of this deterministically in
// tests: kill/hang events address shards through the supervisor, drop/
// delay events act inside the router, and plan ground truth is compared
// counter-exact against SupervisorStats / FleetStats.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/faults/chaos.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/util/backoff.hpp"
#include "src/util/quarantine.hpp"

namespace iotax::serve {

/// Where a shard listens. Stable across shard restarts (the supervisor
/// rebinds the same socket path / port), which is what makes failover +
/// reconnect converge back onto a freshly restarted replica.
struct Endpoint {
  enum class Kind : std::uint8_t { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // kUnix
  std::string host;  // kTcp
  std::uint16_t port = 0;

  static Endpoint unix_path(std::string p);
  static Endpoint tcp(std::string host, std::uint16_t port);
  std::string describe() const;
};

/// Which replica group serves a request: FNV-1a over the model index
/// and the feature doubles' bit patterns, mod n_groups. Pure function
/// of the request, so a replayed workload always routes identically.
std::size_t fleet_slot(const PredictRequest& req, std::size_t n_groups);

/// The BatchConfig settings pass through to each shard's ServeConfig.
struct SupervisorConfig : BatchConfig {
  /// The iotax binary to exec shards from (argv[0] of the parent, or
  /// an explicit --iotax-bin override in tests).
  std::string iotax_bin;
  /// Checkpoints every shard loads, in registry order.
  std::vector<std::string> model_files;
  /// Directory for shard unix sockets (g<g>r<r>.sock), ready files and
  /// log files. Must exist and be short enough for sun_path.
  std::string shard_dir;
  std::size_t n_groups = 1;
  std::size_t n_replicas = 2;
  /// Non-empty switches shards to TCP on 127.0.0.1; must hold exactly
  /// n_groups * n_replicas distinct ports (row-major by group).
  std::vector<int> shard_ports;
  /// Health loop: every interval, each live shard gets a ping that must
  /// answer within the timeout; silence means hung -> SIGKILL + restart.
  std::uint64_t health_interval_ms = 100;
  std::uint64_t health_timeout_ms = 1000;
  /// Restarts allowed per shard before the supervisor gives up on it.
  std::size_t restart_budget = 8;
  util::BackoffPolicy restart_backoff{/*initial_ms=*/20, /*max_ms=*/2000,
                                      /*multiplier=*/2.0, /*jitter=*/0.25};
  /// How long start() waits for every shard's ready file.
  std::uint64_t spawn_timeout_ms = 30000;
  /// Seeds the restart-backoff jitter streams (forked per shard).
  std::uint64_t seed = 0xf1ee7ULL;
};

/// Monotonic totals since start(); exact.
struct SupervisorStats {
  std::uint64_t spawns = 0;          // initial spawns + restarts
  std::uint64_t restarts = 0;        // respawns after a death/hang
  std::uint64_t exits_detected = 0;  // shard deaths seen by waitpid
  std::uint64_t hangs_detected = 0;  // ping deadlines -> SIGKILL
  std::uint64_t gave_up = 0;         // shards past their restart budget
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawn every shard, wait for all ready files, launch the health
  /// monitor. Throws when a shard exits before becoming ready or the
  /// spawn deadline passes — the fleet refuses to start degraded.
  void start();

  /// SIGTERM every shard, reap them, join the monitor. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  std::size_t n_groups() const { return config_.n_groups; }
  std::size_t n_replicas() const { return config_.n_replicas; }
  /// Replica endpoints for one group (stable across restarts).
  std::vector<Endpoint> group_endpoints(std::size_t group) const;

  /// Chaos hook: deliver `sig` (SIGKILL, SIGSTOP, ...) to one shard.
  /// Returns false when the shard has no live process right now.
  bool signal_shard(std::size_t group, std::size_t replica, int sig);

  /// Shards currently believed up (spawned, not known-dead).
  std::size_t live_shards() const;
  SupervisorStats stats() const;
  const SupervisorConfig& config() const { return config_; }

 private:
  enum class ShardState : std::uint8_t { kUp, kRestarting, kFailed };

  struct Shard {
    std::size_t group = 0;
    std::size_t replica = 0;
    Endpoint endpoint;
    std::string socket_path;  // unix mode; "" for TCP
    std::string ready_file;
    std::string log_file;
    pid_t pid = -1;
    ShardState state = ShardState::kUp;
    /// Ready file observed since the last (re)spawn; health pings are
    /// suppressed until then so startup never reads as a hang.
    bool ready_seen = false;
    std::size_t restarts_used = 0;
    std::size_t backoff_step = 0;
    std::chrono::steady_clock::time_point next_restart{};
    util::Rng rng{0};  // per-shard backoff jitter stream
  };

  /// fork/exec one shard (stdout+stderr -> its log file). Throws on
  /// fork failure; exec failure surfaces as an immediate child exit.
  void spawn(Shard& shard);
  void monitor_loop();
  /// Death/hang bookkeeping: schedule a restart or mark failed.
  void shard_down(Shard& shard, const char* why);
  /// SIGKILL and reap everything spawned so far (startup-failure path).
  void stop_spawned_locked();
  std::vector<std::string> shard_argv(const Shard& shard) const;

  SupervisorConfig config_;
  mutable std::mutex mu_;
  std::vector<Shard> shards_;  // guarded by mu_
  std::thread monitor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> n_spawns_{0};
  std::atomic<std::uint64_t> n_restarts_{0};
  std::atomic<std::uint64_t> n_exits_{0};
  std::atomic<std::uint64_t> n_hangs_{0};
  std::atomic<std::uint64_t> n_gave_up_{0};
};

struct RouterConfig {
  /// Front listeners, same semantics as ServeConfig.
  std::string unix_socket;
  int tcp_port = -1;
  /// Per-request budget, and how long a backhaul with requests pending
  /// may stay silent before it counts as failed (0 = no silence limit).
  std::uint64_t deadline_ms = 5000;
  std::uint64_t try_timeout_ms = 250;
  /// Paces BUSY retries and the ping probes that readmit a failed
  /// replica.
  util::BackoffPolicy retry_backoff{};
  std::uint64_t seed = 0xf1ee7ULL;
  /// Deterministic fault script; empty = no chaos. kill/hang events
  /// need a supervisor; drop/delay work with static groups too.
  faults::ChaosPlan chaos;
  /// Shard topology: exactly one of these. A supervisor owns real
  /// processes; static_groups points at externally managed listeners
  /// (how the unit tests route to in-process Servers).
  Supervisor* supervisor = nullptr;
  std::vector<std::vector<Endpoint>> static_groups;
};

/// Monotonic totals since start(); exact. Mirrored to obs counters
/// fleet.* when observability is on.
struct FleetStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;      // predict requests admitted
  std::uint64_t responses = 0;     // predict responses relayed
  std::uint64_t errors = 0;        // typed error replies relayed/created
  std::uint64_t shed = 0;          // BUSY at the front door (not admitted)
  std::uint64_t retries = 0;       // backhaul attempts after the first
  std::uint64_t failovers = 0;     // re-sends to a different replica
  std::uint64_t busy_retries = 0;  // BUSY replies absorbed by retry
  std::uint64_t degraded = 0;      // kDegraded replies (deadline spent)
  std::uint64_t chaos_kills = 0;
  std::uint64_t chaos_hangs = 0;
  std::uint64_t chaos_drops = 0;
  std::uint64_t chaos_delays = 0;
};

/// The front door. One thread runs the event loop the daemon also runs
/// on (loop.hpp: listeners, client sessions) plus one persistent
/// backhaul per replica (opened on first use). Each admitted predict is
/// forwarded at once under a router-assigned request id and tracked in
/// a pending table until its reply — relayed with the client's id
/// restored — or a typed error ends it; replies on one session may
/// therefore arrive out of order. See DESIGN.md "Fleet & failure model"
/// for the retry rules.
class Router {
 public:
  /// Predicts one session may have pending; past it the router answers
  /// a typed kBusy, as a shard does past its default --max-inflight.
  static constexpr std::size_t kMaxPendingPerSession = 256;

  explicit Router(RouterConfig config);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind front listeners and start the loop thread. The shard source
  /// (supervisor or static groups) must already be running; throws if
  /// neither or both are configured, or the chaos plan addresses shards
  /// outside the topology.
  void start();
  /// Stop reading, answer every admitted request (reply, verdict or
  /// degraded), close everything, join. Idempotent. Afterwards
  /// stats().requests == responses + errors.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  int tcp_port() const { return bound_tcp_port_; }
  std::size_t n_groups() const { return groups_.size(); }

  FleetStats stats() const;
  /// Transport-level defects the router absorbed or surfaced (degraded
  /// requests by terminal Reason, framing defects from clients).
  util::QuarantineReport quarantine() const;

 private:
  struct Loop;

  RouterConfig config_;
  std::vector<std::vector<Endpoint>> groups_;
  int bound_tcp_port_ = -1;

  std::unique_ptr<Loop> loop_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex quarantine_mu_;
  util::QuarantineReport quarantine_;  // guarded by quarantine_mu_

  std::atomic<std::uint64_t> n_connections_{0};
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_responses_{0};
  std::atomic<std::uint64_t> n_errors_{0};
  std::atomic<std::uint64_t> n_shed_{0};
  std::atomic<std::uint64_t> n_retries_{0};
  std::atomic<std::uint64_t> n_failovers_{0};
  std::atomic<std::uint64_t> n_busy_retries_{0};
  std::atomic<std::uint64_t> n_degraded_{0};
  std::atomic<std::uint64_t> n_chaos_kills_{0};
  std::atomic<std::uint64_t> n_chaos_hangs_{0};
  std::atomic<std::uint64_t> n_chaos_drops_{0};
  std::atomic<std::uint64_t> n_chaos_delays_{0};
};

}  // namespace iotax::serve
