#include "src/serve/fleet.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/serve/client.hpp"
#include "src/serve/loop.hpp"

namespace iotax::serve {

using util::Deadline;
using util::FrameDecode;
using util::FrameHeader;
using util::FrameType;
using util::Reason;

std::size_t fleet_slot(const PredictRequest& req, std::size_t n_groups) {
  if (n_groups <= 1) return 0;
  // FNV-1a over the request's routing identity: the model index and the
  // feature doubles' exact bit patterns. Bit patterns, not values, so
  // -0.0 and 0.0 route consistently with how the answer is computed.
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  mix(req.model_index);
  for (const double f : req.features) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    mix(bits);
  }
  return static_cast<std::size_t>(h % n_groups);
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

namespace {

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// One health probe: connect, ping, expect the matching pong, all
/// within `timeout_ms`. Any failure mode (refused, hung, garbage) is
/// simply "not healthy" — the caller decides whether that means dead
/// or hung by asking the process itself.
bool ping_endpoint(const Endpoint& ep, std::uint64_t timeout_ms,
                   std::uint64_t request_id) {
  try {
    Client conn = ep.kind == Endpoint::Kind::kUnix
                      ? Client::connect_unix(ep.path, timeout_ms)
                      : Client::connect_tcp(ep.host, ep.port, timeout_ms);
    conn.set_recv_timeout_ms(timeout_ms);
    conn.send_ping(request_id);
    Client::Reply reply;
    if (!conn.read_reply(&reply)) return false;
    return reply.type == FrameType::kPong && reply.request_id == request_id;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig config) : config_(std::move(config)) {
  if (config_.n_groups == 0 || config_.n_replicas == 0) {
    throw std::invalid_argument("fleet: need >= 1 group and >= 1 replica");
  }
  if (config_.model_files.empty()) {
    throw std::invalid_argument("fleet: --models needs at least one file");
  }
  if (config_.shard_dir.empty()) {
    throw std::invalid_argument("fleet: shard_dir must be set");
  }
  if (config_.iotax_bin.empty()) {
    throw std::invalid_argument("fleet: iotax binary path must be set");
  }
  const std::size_t n_shards = config_.n_groups * config_.n_replicas;
  if (!config_.shard_ports.empty()) {
    if (config_.shard_ports.size() != n_shards) {
      throw std::invalid_argument(
          "fleet: got " + std::to_string(config_.shard_ports.size()) +
          " shard port(s) for " + std::to_string(n_shards) + " shard(s)");
    }
    std::set<int> distinct(config_.shard_ports.begin(),
                           config_.shard_ports.end());
    if (distinct.size() != config_.shard_ports.size()) {
      throw std::invalid_argument("fleet: duplicate shard ports");
    }
  }
  config_.restart_backoff.validate();
}

Supervisor::~Supervisor() { stop(); }

std::vector<Endpoint> Supervisor::group_endpoints(std::size_t group) const {
  std::vector<Endpoint> out;
  out.reserve(config_.n_replicas);
  for (std::size_t r = 0; r < config_.n_replicas; ++r) {
    if (config_.shard_ports.empty()) {
      out.push_back(Endpoint::unix_path(
          config_.shard_dir + "/g" + std::to_string(group) + "r" +
          std::to_string(r) + ".sock"));
    } else {
      out.push_back(Endpoint::tcp(
          "127.0.0.1",
          static_cast<std::uint16_t>(
              config_.shard_ports[group * config_.n_replicas + r])));
    }
  }
  return out;
}

std::vector<std::string> Supervisor::shard_argv(const Shard& shard) const {
  std::string models = config_.model_files[0];
  for (std::size_t i = 1; i < config_.model_files.size(); ++i) {
    models += "," + config_.model_files[i];
  }
  std::vector<std::string> argv = {config_.iotax_bin, "serve",
                                   "--models", models};
  if (shard.endpoint.kind == Endpoint::Kind::kUnix) {
    argv.push_back("--socket");
    argv.push_back(shard.endpoint.path);
  } else {
    argv.push_back("--port");
    argv.push_back(std::to_string(shard.endpoint.port));
  }
  argv.push_back("--batch-size");
  argv.push_back(std::to_string(config_.batch_size));
  argv.push_back("--batch-wait-us");
  argv.push_back(std::to_string(config_.batch_wait_us));
  argv.push_back("--max-inflight");
  argv.push_back(std::to_string(config_.max_inflight));
  argv.push_back("--ready-file");
  argv.push_back(shard.ready_file);
  return argv;
}

void Supervisor::spawn(Shard& shard) {
  ::unlink(shard.ready_file.c_str());
  const std::vector<std::string> argv = shard_argv(shard);
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fleet: fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // Child: async-signal-safe calls only until exec. Shards die with
    // the supervisor (PDEATHSIG) so a crashed parent cannot leak a
    // daemon pack; stdout/err go to the per-shard log for post-mortems.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log_fd = ::open(shard.log_file.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      if (log_fd > STDERR_FILENO) ::close(log_fd);
    }
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  shard.pid = pid;
  shard.state = ShardState::kUp;
  shard.ready_seen = false;
  n_spawns_.fetch_add(1, std::memory_order_relaxed);
  IOTAX_OBS_COUNT("fleet.spawns", 1);
}

void Supervisor::start() {
  if (running_.load(std::memory_order_acquire)) {
    throw std::logic_error("fleet: supervisor already running");
  }
  ::signal(SIGPIPE, SIG_IGN);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.clear();
    for (std::size_t g = 0; g < config_.n_groups; ++g) {
      const auto endpoints = group_endpoints(g);
      for (std::size_t r = 0; r < config_.n_replicas; ++r) {
        Shard shard;
        shard.group = g;
        shard.replica = r;
        shard.endpoint = endpoints[r];
        const std::string stem = config_.shard_dir + "/g" +
                                 std::to_string(g) + "r" + std::to_string(r);
        shard.ready_file = stem + ".ready";
        shard.log_file = stem + ".log";
        shard.rng = util::Rng(config_.seed).fork(g * config_.n_replicas + r);
        shards_.push_back(std::move(shard));
      }
    }
    for (auto& shard : shards_) spawn(shard);
  }
  // Startup is all-or-nothing: a shard that exits before its ready file
  // appears is a configuration error (bad checkpoint, unbindable
  // socket), not a runtime fault — refuse to run a degraded fleet.
  const Deadline deadline = Deadline::after_ms(config_.spawn_timeout_ms);
  while (true) {
    std::size_t ready = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& shard : shards_) {
        int status = 0;
        if (::waitpid(shard.pid, &status, WNOHANG) == shard.pid) {
          const pid_t pid = shard.pid;
          shard.pid = -1;
          stop_spawned_locked();
          throw std::runtime_error(
              "fleet: shard g" + std::to_string(shard.group) + "r" +
              std::to_string(shard.replica) + " (pid " + std::to_string(pid) +
              ") exited during startup; see " + shard.log_file);
        }
        if (!shard.ready_seen && file_exists(shard.ready_file)) {
          shard.ready_seen = true;
        }
        if (shard.ready_seen) ++ready;
      }
      if (ready == shards_.size()) break;
    }
    if (deadline.expired()) {
      std::lock_guard<std::mutex> lock(mu_);
      stop_spawned_locked();
      throw std::runtime_error(
          "fleet: not every shard became ready within " +
          std::to_string(config_.spawn_timeout_ms) + "ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  monitor_ = std::thread([this] { monitor_loop(); });
}

void Supervisor::stop_spawned_locked() {
  for (auto& shard : shards_) {
    if (shard.pid > 0) {
      ::kill(shard.pid, SIGKILL);
      ::waitpid(shard.pid, nullptr, 0);
      shard.pid = -1;
    }
    ::unlink(shard.ready_file.c_str());
  }
}

void Supervisor::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) {
    while (running_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return;
  }
  if (monitor_.joinable()) monitor_.join();
  std::lock_guard<std::mutex> lock(mu_);
  // Graceful first: SIGTERM lets each shard drain admitted requests.
  for (auto& shard : shards_) {
    if (shard.pid > 0) ::kill(shard.pid, SIGTERM);
  }
  const Deadline deadline = Deadline::after_ms(10000);
  for (auto& shard : shards_) {
    if (shard.pid <= 0) continue;
    while (::waitpid(shard.pid, nullptr, WNOHANG) == 0) {
      if (deadline.expired()) {
        // A shard that ignores SIGTERM (e.g. still SIGSTOPped) gets the
        // non-negotiable version.
        ::kill(shard.pid, SIGKILL);
        ::waitpid(shard.pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    shard.pid = -1;
    ::unlink(shard.ready_file.c_str());
  }
  running_.store(false, std::memory_order_release);
}

bool Supervisor::signal_shard(std::size_t group, std::size_t replica,
                              int sig) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& shard : shards_) {
    if (shard.group != group || shard.replica != replica) continue;
    if (shard.pid <= 0) return false;
    return ::kill(shard.pid, sig) == 0;
  }
  return false;
}

SupervisorStats Supervisor::stats() const {
  SupervisorStats s;
  s.spawns = n_spawns_.load(std::memory_order_relaxed);
  s.restarts = n_restarts_.load(std::memory_order_relaxed);
  s.exits_detected = n_exits_.load(std::memory_order_relaxed);
  s.hangs_detected = n_hangs_.load(std::memory_order_relaxed);
  s.gave_up = n_gave_up_.load(std::memory_order_relaxed);
  return s;
}

void Supervisor::shard_down(Shard& shard, const char* why) {
  shard.pid = -1;
  shard.ready_seen = false;
  if (shard.restarts_used >= config_.restart_budget) {
    shard.state = ShardState::kFailed;
    n_gave_up_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("fleet.gave_up", 1);
    return;
  }
  ++shard.restarts_used;
  const std::uint64_t delay = util::backoff_delay_ms(
      config_.restart_backoff, shard.backoff_step++, shard.rng);
  shard.next_restart =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(delay);
  shard.state = ShardState::kRestarting;
  (void)why;
}

void Supervisor::monitor_loop() {
  std::uint64_t ping_id = 0x91a6'0000'0000'0000ULL;
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.health_interval_ms));
    const std::size_t n_shards = [this] {
      std::lock_guard<std::mutex> lock(mu_);
      return shards_.size();
    }();
    for (std::size_t i = 0; i < n_shards; ++i) {
      if (stopping_.load(std::memory_order_acquire)) return;
      // Snapshot under the lock; the slow work (ping, reap) happens
      // outside it so chaos signals and stats reads never stall behind
      // a health probe. Only this thread mutates shard state, so the
      // snapshot cannot go stale in between.
      ShardState state;
      pid_t pid;
      Endpoint endpoint;
      bool ready_seen;
      std::string ready_file;
      std::chrono::steady_clock::time_point next_restart;
      {
        std::lock_guard<std::mutex> lock(mu_);
        Shard& s = shards_[i];
        state = s.state;
        pid = s.pid;
        endpoint = s.endpoint;
        ready_seen = s.ready_seen;
        ready_file = s.ready_file;
        next_restart = s.next_restart;
      }
      if (state == ShardState::kFailed) continue;
      if (state == ShardState::kRestarting) {
        if (std::chrono::steady_clock::now() >= next_restart) {
          std::lock_guard<std::mutex> lock(mu_);
          spawn(shards_[i]);
          n_restarts_.fetch_add(1, std::memory_order_relaxed);
          IOTAX_OBS_COUNT("fleet.restarts", 1);
        }
        continue;
      }
      // kUp: did it die on its own?
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        n_exits_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("fleet.exits", 1);
        std::lock_guard<std::mutex> lock(mu_);
        shard_down(shards_[i], "exited");
        continue;
      }
      if (!ready_seen) {
        // Freshly (re)spawned: no health verdict until the listeners
        // are up, or a crash-during-startup would read as a hang.
        if (file_exists(ready_file)) {
          std::lock_guard<std::mutex> lock(mu_);
          shards_[i].ready_seen = true;
          shards_[i].backoff_step = 0;  // it came back; restart the ladder
        }
        continue;
      }
      if (!ping_endpoint(endpoint, config_.health_timeout_ms, ++ping_id)) {
        // Alive but silent past the deadline: hung (e.g. SIGSTOP, dead-
        // locked). SIGKILL works even on a stopped process; the reap
        // below turns it into an ordinary restart.
        if (::kill(pid, 0) != 0) continue;  // raced an exit; next tick reaps
        n_hangs_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("fleet.hangs", 1);
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        std::lock_guard<std::mutex> lock(mu_);
        shard_down(shards_[i], "hung");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

Endpoint Endpoint::unix_path(std::string p) {
  Endpoint e;
  e.kind = Kind::kUnix;
  e.path = std::move(p);
  return e;
}

Endpoint Endpoint::tcp(std::string host, std::uint16_t port) {
  Endpoint e;
  e.kind = Kind::kTcp;
  e.host = std::move(host);
  e.port = port;
  return e;
}

std::string Endpoint::describe() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return host + ":" + std::to_string(port);
}

namespace {

/// Backhaul ids on the event loop carry a per-connection serial above
/// the backhaul index, so an event queued for a connection that has
/// since been replaced is recognised as stale.
constexpr int kSerialShift = 20;

/// A frame's wire bytes with the request id field replaced.
void append_with_id(std::string* out, std::span<const std::uint8_t> frame,
                    std::uint64_t id) {
  const char* bytes = reinterpret_cast<const char*>(frame.data());
  out->append(bytes, 8);
  util::put_u64(out, id);
  out->append(bytes + 16, frame.size() - 16);
}

/// Start a nonblocking connect. Returns 0 (connected), EINPROGRESS, or
/// the errno of an immediate failure; *fd is set unless it failed.
int start_connect(const Endpoint& ep, int* fd) {
  sockaddr_storage addr{};
  socklen_t len = 0;
  int family = AF_UNIX;
  if (ep.kind == Endpoint::Kind::kUnix) {
    auto* un = reinterpret_cast<sockaddr_un*>(&addr);
    if (ep.path.size() >= sizeof(un->sun_path)) return ENAMETOOLONG;
    un->sun_family = AF_UNIX;
    std::memcpy(un->sun_path, ep.path.c_str(), ep.path.size() + 1);
    len = sizeof(sockaddr_un);
  } else {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(ep.host.c_str(), std::to_string(ep.port).c_str(),
                      &hints, &res) != 0 ||
        res == nullptr) {
      return EHOSTUNREACH;
    }
    std::memcpy(&addr, res->ai_addr, res->ai_addrlen);
    len = res->ai_addrlen;
    family = res->ai_family;
    ::freeaddrinfo(res);
  }
  const int s = ::socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (s < 0) return errno;
  while (::connect(s, reinterpret_cast<const sockaddr*>(&addr), len) < 0) {
    if (errno == EINTR) continue;
    const int err = errno;
    if (err == EINPROGRESS) {
      *fd = s;
      return EINPROGRESS;
    }
    ::close(s);
    return err;  // unix EAGAIN (backlog full) counts as a failure too
  }
  *fd = s;
  return 0;
}

}  // namespace

/// What the router adds to the shared event loop (which owns the
/// listeners and the client sessions): the backhauls, the pending table,
/// chaos and timers. Only the loop thread touches any of it; Router's
/// atomics and quarantine report are the only state stats() and
/// quarantine() read.
struct Router::Loop final : EventLoop::Owner {
  struct Backhaul : Wire {
    std::size_t index = 0;  // position in backhauls
    std::size_t replica = 0;
    const Endpoint* endpoint = nullptr;
    std::uint64_t serial = 0;  // bumped per connection attempt
    bool connecting = false;
    bool draining = false;  // replied kShuttingDown: takes no new sends
    /// Failed: takes no requests until a fresh connection answers a ping.
    bool suspect = false;
    std::size_t in_flight = 0;  // requests, or the probe ping
    Clock::time_point quiet_since{};  // silence clock while in_flight > 0
    Clock::time_point retry_at{};     // no probe before then
    std::size_t backoff_step = 0;
    util::Rng rng{0};  // reconnect backoff jitter
    Reason failure = Reason::kConnectionReset;  // why it is suspect
    std::string failure_detail;
  };

  /// One admitted predict, from admission to its reply.
  struct Pending {
    std::uint64_t session = 0;
    std::uint64_t client_id = 0;
    std::string frame;  // the request as forwarded, carrying the router id
    std::size_t group = 0;
    std::size_t replica = 0;    // where the next attempt starts looking
    std::size_t attempted = 0;  // replica of the last attempt
    std::size_t attempts = 0;
    std::size_t backoff_step = 0;
    Clock::time_point deadline{};
    Backhaul* on = nullptr;  // in flight here; null while parked
    bool parked = false;     // waiting on a kSend timer
    Reason last_reason = Reason::kDeadlineExpired;
    std::string last_detail;
  };

  enum class TimerKind : std::uint8_t { kSend, kRead };
  struct Timer {
    TimerKind kind;
    std::uint64_t id;  // router id or session id
  };

  Loop(Router& router, std::size_t n_backhauls);
  ~Loop();

  // -- EventLoop::Owner
  void on_request(Session& s, const util::FrameHeader& header,
                  std::span<const std::uint8_t> payload,
                  std::span<const std::uint8_t> frame) override;
  void on_open(Session& s) override {
    s.rng = util::Rng(cfg.seed ^ cfg.chaos.seed).fork(s.id);
    if (cfg.chaos.accept_delay_ms > 0) {
      s.delayed = true;
      timers.emplace(
          Clock::now() + std::chrono::milliseconds(cfg.chaos.accept_delay_ms),
          Timer{TimerKind::kRead, s.id});
    }
  }
  void on_fd(std::uint64_t id, std::uint32_t events) override;
  void on_pass(Clock::time_point now) override;
  Clock::time_point next_timer() const override;
  bool idle() const override { return pending.empty(); }
  void count_connection() override {
    r.n_connections_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("fleet.connections", 1);
  }
  void count_shed() override {
    r.n_shed_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("fleet.shed", 1);
  }
  void count_error() override {
    r.n_errors_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("fleet.errors", 1);
  }
  void note_quarantine(Reason reason, const std::string& detail) override;

  // -- events
  void read_backhaul(Backhaul& bh);
  /// False when the reply broke the backhaul (it is closed by then).
  bool on_reply(Backhaul& bh, const util::FrameHeader& header,
                std::span<const std::uint8_t> payload,
                std::span<const std::uint8_t> frame);

  // -- the pending table
  Backhaul& backhaul(std::size_t group, std::size_t replica) {
    return backhauls[group_base[group] + replica];
  }
  bool usable(const Backhaul& bh) const { return !bh.suspect && !bh.draining; }
  void send_attempt(std::uint64_t id, Pending& p);
  void fail_over(std::uint64_t id, Pending& p, Reason reason,
                 std::string detail) {
    p.last_reason = reason;
    p.last_detail = std::move(detail);
    p.on = nullptr;
    p.replica = (p.attempted + 1) % r.groups_[p.group].size();
    send_attempt(id, p);
  }
  void park(std::uint64_t id, Pending& p, std::uint64_t delay_ms) {
    p.on = nullptr;
    p.parked = true;
    timers.emplace(Clock::now() + std::chrono::milliseconds(
                                      std::max<std::uint64_t>(delay_ms, 1)),
                   Timer{TimerKind::kSend, id});
  }
  void open_backhaul(Backhaul& bh);
  /// Reconnect a suspect replica and ping it; the pong clears it.
  void probe(Backhaul& bh) {
    bh.in_flight = 1;  // a silent replica fails the probe like a request
    bh.quiet_since = Clock::now();
    bh.out = encode_ping(0);
    mark_dirty(bh);
    open_backhaul(bh);
  }
  void fail_backhaul(Backhaul& bh, Reason reason, const std::string& detail);
  void degrade(std::map<std::uint64_t, Pending>::iterator it);
  /// Drop a finished request from the table and its session's count.
  void retire(std::map<std::uint64_t, Pending>::iterator it) {
    Session& s = *door.find(it->second.session);
    --s.pending;
    pending.erase(it);
    door.settle(s);
  }
  /// Fire every chaos event due at this admission count; returns the
  /// delay to apply to the triggering request.
  std::uint64_t apply_chaos(std::uint64_t count);

  // -- backhaul output
  void mark_dirty(Backhaul& bh) {
    if (!bh.dirty) dirty_backhauls.push_back(&bh);
    bh.dirty = true;
  }
  void flush_backhauls();
  static std::uint64_t tag(const Backhaul& bh) {
    return (bh.serial << kSerialShift) | bh.index;
  }
  void arm_backhaul(Backhaul& bh) {
    door.arm(bh, tag(bh),
             EPOLLIN | (bh.connecting || bh.blocked ? EPOLLOUT : 0u));
  }

  Router& r;
  const RouterConfig& cfg;
  std::vector<std::size_t> group_base;  // first backhaul of each group
  std::vector<Backhaul> backhauls;      // never resized: Pending::on points in
  /// Router id -> request. Ids grow with admission time and the deadline
  /// budget is fixed, so begin() always holds the earliest deadline.
  std::map<std::uint64_t, Pending> pending;
  std::multimap<Clock::time_point, Timer> timers;
  std::vector<Backhaul*> dirty_backhauls;
  std::uint64_t next_id = 0;
  std::size_t chaos_cursor = 0;
  EventLoop door;  // the front door: listeners and client sessions
};

Router::Loop::Loop(Router& router, std::size_t n_backhauls)
    : r(router),
      cfg(router.config_),
      door(*this, cfg.unix_socket, cfg.tcp_port, n_backhauls, "fleet") {
  backhauls.resize(n_backhauls);
  const util::Rng base(cfg.seed ^ cfg.chaos.seed);
  std::size_t index = 0;
  for (const auto& group : r.groups_) {
    group_base.push_back(index);
    for (std::size_t k = 0; k < group.size(); ++k, ++index) {
      Backhaul& bh = backhauls[index];
      bh.index = index;
      bh.replica = k;
      bh.endpoint = &group[k];
      // Session streams fork at small ids; backhaul streams count down
      // from the top so the two never share a stream.
      bh.rng = base.fork(~static_cast<std::uint64_t>(index));
    }
  }
}

Router::Loop::~Loop() {
  for (auto& bh : backhauls) {
    if (bh.fd >= 0) ::close(bh.fd);
  }
}

Clock::time_point Router::Loop::next_timer() const {
  Clock::time_point next = Clock::time_point::max();
  if (!pending.empty()) next = pending.begin()->second.deadline;
  if (!timers.empty()) next = std::min(next, timers.begin()->first);
  if (cfg.try_timeout_ms > 0) {
    for (const auto& bh : backhauls) {
      if (bh.fd >= 0 && bh.in_flight > 0) {
        next = std::min(next, bh.quiet_since + std::chrono::milliseconds(
                                                   cfg.try_timeout_ms));
      }
    }
  }
  return next;
}

void Router::Loop::on_pass(Clock::time_point now) {
  // Deadlines first: a request past its budget is answered kDegraded
  // whatever it was waiting for.
  while (!pending.empty() && pending.begin()->second.deadline <= now) {
    degrade(pending.begin());
  }
  if (cfg.try_timeout_ms > 0) {
    const auto silence = std::chrono::milliseconds(cfg.try_timeout_ms);
    for (auto& bh : backhauls) {
      if (bh.fd >= 0 && bh.in_flight > 0 && now >= bh.quiet_since + silence) {
        fail_backhaul(bh, Reason::kDeadlineExpired,
                      bh.endpoint->describe() + " silent for " +
                          std::to_string(cfg.try_timeout_ms) + "ms");
      }
    }
  }
  while (!timers.empty() && timers.begin()->first <= now) {
    const Timer timer = timers.begin()->second;
    timers.erase(timers.begin());
    if (timer.kind == TimerKind::kSend) {
      const auto it = pending.find(timer.id);
      if (it != pending.end() && it->second.parked) {
        it->second.parked = false;
        send_attempt(it->first, it->second);
      }
    } else if (Session* s = door.find(timer.id); s != nullptr) {
      s->delayed = false;
      door.arm_session(*s);
    }
  }
  flush_backhauls();
}

void Router::Loop::note_quarantine(Reason reason,
                                   const std::string& detail) {
  std::lock_guard<std::mutex> lock(r.quarantine_mu_);
  util::QuarantineEntry entry;
  entry.reason = reason;
  entry.detail = detail;
  r.quarantine_.add(std::move(entry));
}

void Router::Loop::on_request(Session& s, const FrameHeader& header,
                              std::span<const std::uint8_t> payload,
                              std::span<const std::uint8_t> frame) {
  ErrorResponse err;
  if (static_cast<FrameType>(header.type) == FrameType::kControlRequest) {
    // Promote/rollback address one registry, and the fleet has N of
    // them. Routing a mutation to a hash-picked shard would fork the
    // replicas' state; refuse loudly instead.
    err.request_id = header.request_id;
    err.status = ServeStatus::kBadRequest;
    err.detail = "control operations are not routed; address a shard directly";
    door.error_reply(s, err);
    return;
  }
  PredictRequest req;
  if (!decode_predict_request(header, payload, &req, &err)) {
    note_quarantine(*err.reason, err.detail);
    door.error_reply(s, err);
    return;
  }
  if (s.pending >= kMaxPendingPerSession) {
    err.status = ServeStatus::kBusy;
    err.reason.reset();
    err.detail = "router session has " +
                 std::to_string(kMaxPendingPerSession) + " requests pending";
    door.queue(s, encode_error_response(err));
    count_shed();
    return;
  }
  const std::uint64_t count =
      r.n_requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  IOTAX_OBS_COUNT("fleet.requests", 1);
  const std::uint64_t id = ++next_id;
  Pending& p = pending.emplace_hint(pending.end(), id, Pending{})->second;
  p.session = s.id;
  p.client_id = header.request_id;
  append_with_id(&p.frame, frame, id);
  p.group = fleet_slot(req, r.groups_.size());
  // Sessions spread over a group by ordinal instead of all camping on r0.
  p.replica = s.id % r.groups_[p.group].size();
  p.deadline = Clock::now() + std::chrono::milliseconds(cfg.deadline_ms);
  ++s.pending;
  const std::uint64_t delay_ms =
      cfg.chaos.events.empty() ? 0 : apply_chaos(count);
  if (delay_ms > 0) {
    park(id, p, delay_ms);
  } else {
    send_attempt(id, p);
  }
}

std::uint64_t Router::Loop::apply_chaos(std::uint64_t count) {
  std::uint64_t delay_ms = 0;
  const auto& events = cfg.chaos.events;
  while (chaos_cursor < events.size() &&
         events[chaos_cursor].at_request <= count) {
    const auto& event = events[chaos_cursor++];
    switch (event.action) {
      case faults::ChaosAction::kKill:
        cfg.supervisor->signal_shard(event.group, event.replica, SIGKILL);
        r.n_chaos_kills_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("fleet.chaos_kills", 1);
        break;
      case faults::ChaosAction::kHang:
        cfg.supervisor->signal_shard(event.group, event.replica, SIGSTOP);
        r.n_chaos_hangs_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("fleet.chaos_hangs", 1);
        break;
      case faults::ChaosAction::kDrop: {
        // Close the target's backhaul; whatever is pending on it goes the
        // transport-failure way.
        Backhaul& bh = backhaul(event.group, event.replica);
        if (bh.fd >= 0) {
          fail_backhaul(bh, Reason::kConnectionReset,
                        "chaos drop of " + bh.endpoint->describe());
        }
        r.n_chaos_drops_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("fleet.chaos_drops", 1);
        break;
      }
      case faults::ChaosAction::kDelay:
        delay_ms += event.delay_ms;
        r.n_chaos_delays_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("fleet.chaos_delays", 1);
        break;
    }
  }
  return delay_ms;
}

void Router::Loop::send_attempt(std::uint64_t id, Pending& p) {
  const auto now = Clock::now();
  const std::size_t n = r.groups_[p.group].size();
  Backhaul* bh = nullptr;
  for (std::size_t k = 0; k < n && bh == nullptr; ++k) {
    Backhaul& candidate = backhaul(p.group, (p.replica + k) % n);
    if (candidate.suspect && candidate.fd < 0 && now >= candidate.retry_at) {
      probe(candidate);
    }
    if (usable(candidate)) bh = &candidate;
  }
  if (bh == nullptr) {
    // The whole group failed recently; pace the retries like a BUSY. A
    // request no replica has seen yet reports why its replica is out.
    const Backhaul& preferred = backhaul(p.group, p.replica);
    if (p.attempts == 0 && preferred.suspect) {
      p.last_reason = preferred.failure;
      p.last_detail = preferred.failure_detail;
    }
    Session& s = *door.find(p.session);
    park(id, p,
         util::backoff_delay_ms(cfg.retry_backoff, p.backoff_step++, s.rng));
    return;
  }
  if (p.attempts > 0) {
    r.n_retries_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("fleet.retries", 1);
  }
  // One failover = one send to a replica other than the one this
  // request would have used: its previous attempt's, or for a first
  // attempt its session's preferred replica.
  if (bh->replica != (p.attempts > 0 ? p.attempted : p.replica)) {
    r.n_failovers_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("fleet.failovers", 1);
  }
  ++p.attempts;
  p.replica = p.attempted = bh->replica;
  p.on = bh;
  if (bh->in_flight++ == 0) bh->quiet_since = now;
  bh->out += p.frame;
  mark_dirty(*bh);
  // Last: a connect that fails at once re-dispatches p (and anything
  // else queued here) before returning.
  if (bh->fd < 0) open_backhaul(*bh);
}

void Router::Loop::open_backhaul(Backhaul& bh) {
  int fd = -1;
  const int rc = start_connect(*bh.endpoint, &fd);
  ++bh.serial;
  if (rc != 0 && rc != EINPROGRESS) {
    fail_backhaul(bh, Reason::kConnectionReset,
                  "cannot connect to " + bh.endpoint->describe() + ": " +
                      std::strerror(rc));
    return;
  }
  bh.fd = fd;
  bh.connecting = rc == EINPROGRESS;
  bh.blocked = false;
  bh.events = EPOLLIN | (bh.connecting ? EPOLLOUT : 0u);
  door.watch(fd, tag(bh), bh.events);
}

void Router::Loop::fail_backhaul(Backhaul& bh, Reason reason,
                                 const std::string& detail) {
  door.close_wire(bh);
  // Never reused: a reply still on its way cannot match a re-sent id.
  ++bh.serial;
  bh.in.clear();
  bh.in_start = 0;
  bh.out.clear();
  bh.connecting = false;
  bh.draining = false;
  // A connect that succeeds proves nothing (a stopped process still
  // completes it from its backlog): only an answered ping clears this.
  bh.suspect = true;
  bh.failure = reason;
  bh.failure_detail = detail;
  bh.in_flight = 0;
  bh.retry_at = Clock::now() + std::chrono::milliseconds(util::backoff_delay_ms(
                                   cfg.retry_backoff, bh.backoff_step++, bh.rng));
  std::vector<std::uint64_t> orphans;
  for (auto& [id, p] : pending) {
    if (p.on == &bh) {
      p.on = nullptr;
      orphans.push_back(id);
    }
  }
  for (const std::uint64_t id : orphans) {
    const auto it = pending.find(id);
    if (it != pending.end() && it->second.on == nullptr && !it->second.parked) {
      fail_over(id, it->second, reason, detail);
    }
  }
}

void Router::Loop::on_fd(std::uint64_t id, std::uint32_t events) {
  Backhaul& bh = backhauls[id & ((std::uint64_t{1} << kSerialShift) - 1)];
  if (bh.fd < 0 || bh.serial != id >> kSerialShift) return;  // stale
  if (bh.connecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(bh.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      fail_backhaul(bh, Reason::kConnectionReset,
                    "cannot connect to " + bh.endpoint->describe() + ": " +
                        std::strerror(err));
      return;
    }
    bh.connecting = false;
    events |= EPOLLOUT;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!EventLoop::flush(bh)) {
      fail_backhaul(bh, Reason::kConnectionReset,
                    "send to " + bh.endpoint->describe() + " failed: " +
                        std::strerror(errno));
      return;
    }
    arm_backhaul(bh);
  }
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) read_backhaul(bh);
}

void Router::Loop::read_backhaul(Backhaul& bh) {
  const std::uint64_t serial = bh.serial;
  const auto now = Clock::now();
  const auto end = door.read_frames(
      bh, std::numeric_limits<std::size_t>::max(),
      [&](const FrameDecode& dec, std::span<const std::uint8_t> payload,
          std::span<const std::uint8_t> frame) {
        if (dec.status == FrameDecode::Status::kBad) {
          fail_backhaul(bh, Reason::kConnectionReset,
                        "malformed reply frame from " +
                            bh.endpoint->describe() + ": " + dec.detail);
          return false;
        }
        bh.quiet_since = now;
        return on_reply(bh, dec.header, payload, frame) && bh.serial == serial;
      });
  if (end == EventLoop::ReadEnd::kEof) {
    // The shard is draining or just died.
    fail_backhaul(bh, Reason::kConnectionReset,
                  "connection closed by " + bh.endpoint->describe());
  } else if (end == EventLoop::ReadEnd::kError) {
    fail_backhaul(bh, Reason::kConnectionReset,
                  "recv from " + bh.endpoint->describe() + " failed: " +
                      std::strerror(errno));
  }
}

bool Router::Loop::on_reply(Backhaul& bh, const FrameHeader& header,
                            std::span<const std::uint8_t> payload,
                            std::span<const std::uint8_t> frame) {
  const auto type = static_cast<FrameType>(header.type);
  if (type == FrameType::kPong && bh.suspect) {
    // The probe came back: the replica takes requests again.
    bh.suspect = false;
    bh.in_flight = 0;
    bh.backoff_step = 0;
    return true;
  }
  PredictResponse resp;
  ErrorResponse err;
  const bool parsed =
      type == FrameType::kPredictResponse
          ? decode_predict_response(header, payload, &resp)
          : type == FrameType::kErrorResponse &&
                decode_error_response(header, payload, &err);
  if (!parsed) {
    fail_backhaul(bh, Reason::kConnectionReset,
                  "unexpected reply (frame type " +
                      std::to_string(header.type) + ") from " +
                      bh.endpoint->describe());
    return false;
  }
  const auto it = pending.find(header.request_id);
  // Not ours any more: the request was already answered kDegraded.
  if (it == pending.end() || it->second.on != &bh) return true;
  Pending& p = it->second;
  Session& s = *door.find(p.session);
  --bh.in_flight;
  if (type == FrameType::kErrorResponse) {
    if (err.status == ServeStatus::kBusy) {
      // Transient admission-control shed: same replica, after a
      // jittered pause (its queue needs a moment, not a failover).
      r.n_busy_retries_.fetch_add(1, std::memory_order_relaxed);
      IOTAX_OBS_COUNT("fleet.busy_retries", 1);
      p.replica = p.attempted;
      park(it->first, p,
           util::backoff_delay_ms(cfg.retry_backoff, p.backoff_step++, s.rng));
      return true;
    }
    if (err.status == ServeStatus::kShuttingDown) {
      bh.draining = true;
      fail_over(it->first, p, Reason::kConnectionReset,
                bh.endpoint->describe() + " shutting down");
      return true;
    }
    // Model-level verdicts (bad request, unknown model, internal) are
    // the answer, not a transport failure: relay them.
    r.n_errors_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("fleet.errors", 1);
  } else {
    r.n_responses_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("fleet.responses", 1);
  }
  if (s.fd >= 0) {
    append_with_id(&s.out, frame, p.client_id);
    door.mark_dirty(s);
  }
  retire(it);
  return true;
}

void Router::Loop::degrade(std::map<std::uint64_t, Pending>::iterator it) {
  Pending& p = it->second;
  ErrorResponse err;
  err.request_id = p.client_id;
  err.status = ServeStatus::kDegraded;
  if (p.on != nullptr) {
    // Still waiting on a connected replica: silence ate the budget.
    --p.on->in_flight;
    err.reason = Reason::kDeadlineExpired;
    p.last_detail = "no reply from " + p.on->endpoint->describe() +
                    " within the deadline";
  } else {
    err.reason = p.last_reason;
  }
  err.detail = "replica group unavailable after " +
               std::to_string(p.attempts) + " attempt(s): " +
               (p.last_detail.empty() ? "no attempt completed" : p.last_detail);
  r.n_degraded_.fetch_add(1, std::memory_order_relaxed);
  IOTAX_OBS_COUNT("fleet.degraded", 1);
  note_quarantine(*err.reason, err.detail);
  door.error_reply(*door.find(p.session), err);
  retire(it);
}

void Router::Loop::flush_backhauls() {
  // A backhaul failing here re-sends its requests elsewhere, which can
  // dirty more backhauls; loop until the pass is quiet.
  while (!dirty_backhauls.empty()) {
    std::vector<Backhaul*> bhs;
    bhs.swap(dirty_backhauls);
    for (Backhaul* bh : bhs) {
      bh->dirty = false;
      if (bh->fd < 0 || bh->connecting || bh->blocked) continue;
      if (!EventLoop::flush(*bh)) {
        fail_backhaul(*bh, Reason::kConnectionReset,
                      "send to " + bh->endpoint->describe() + " failed: " +
                          std::strerror(errno));
        continue;
      }
      arm_backhaul(*bh);
    }
  }
}

Router::Router(RouterConfig config) : config_(std::move(config)) {}

Router::~Router() { stop(); }

void Router::start() {
  if (running_.load(std::memory_order_acquire)) {
    throw std::logic_error("fleet: router already running");
  }
  const bool have_supervisor = config_.supervisor != nullptr;
  const bool have_static = !config_.static_groups.empty();
  if (have_supervisor == have_static) {
    throw std::invalid_argument(
        "fleet: router needs exactly one shard source "
        "(supervisor or static groups)");
  }
  groups_.clear();
  if (have_supervisor) {
    if (!config_.supervisor->running()) {
      throw std::runtime_error("fleet: supervisor is not running");
    }
    for (std::size_t g = 0; g < config_.supervisor->n_groups(); ++g) {
      groups_.push_back(config_.supervisor->group_endpoints(g));
    }
  } else {
    groups_ = config_.static_groups;
  }
  std::size_t n_backhauls = 0;
  for (const auto& group : groups_) {
    if (group.empty()) {
      throw std::invalid_argument("fleet: a replica group has no endpoints");
    }
    n_backhauls += group.size();
  }
  if (config_.deadline_ms == 0) {
    throw std::invalid_argument("fleet: deadline_ms must be > 0");
  }
  config_.retry_backoff.validate();
  for (const auto& event : config_.chaos.events) {
    if (event.group >= groups_.size() ||
        event.replica >= groups_[event.group].size()) {
      throw std::invalid_argument(
          "fleet: chaos event targets shard g" + std::to_string(event.group) +
          "r" + std::to_string(event.replica) + " outside the topology");
    }
    if ((event.action == faults::ChaosAction::kKill ||
         event.action == faults::ChaosAction::kHang) &&
        !have_supervisor) {
      throw std::invalid_argument(
          "fleet: kill/hang chaos events need a supervisor");
    }
  }
  config_.chaos.validate();

  loop_ = std::make_unique<Loop>(*this, n_backhauls);
  bound_tcp_port_ = loop_->door.tcp_port();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop_->door.run(); });
}

void Router::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) {
    while (running_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return;
  }
  loop_->door.request_stop();
  if (thread_.joinable()) thread_.join();
  loop_.reset();
  running_.store(false, std::memory_order_release);
}

FleetStats Router::stats() const {
  FleetStats s;
  s.connections = n_connections_.load(std::memory_order_relaxed);
  s.requests = n_requests_.load(std::memory_order_relaxed);
  s.responses = n_responses_.load(std::memory_order_relaxed);
  s.errors = n_errors_.load(std::memory_order_relaxed);
  s.shed = n_shed_.load(std::memory_order_relaxed);
  s.retries = n_retries_.load(std::memory_order_relaxed);
  s.failovers = n_failovers_.load(std::memory_order_relaxed);
  s.busy_retries = n_busy_retries_.load(std::memory_order_relaxed);
  s.degraded = n_degraded_.load(std::memory_order_relaxed);
  s.chaos_kills = n_chaos_kills_.load(std::memory_order_relaxed);
  s.chaos_hangs = n_chaos_hangs_.load(std::memory_order_relaxed);
  s.chaos_drops = n_chaos_drops_.load(std::memory_order_relaxed);
  s.chaos_delays = n_chaos_delays_.load(std::memory_order_relaxed);
  return s;
}

util::QuarantineReport Router::quarantine() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantine_;
}

}  // namespace iotax::serve
