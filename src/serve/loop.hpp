// The framed-connection core both front doors run on: the serving
// daemon (serve::Server) and the fleet router (serve::Router). One
// thread runs an epoll loop that owns the listeners, every client
// session and whatever descriptors its owner adds (router backhauls):
//
//   listener --accept--> Session --recv, decode_frame--> Owner::on_request
//   (past the fd cap:        |     ping: pong; defect: typed error
//    typed kBusy, close)     +<-- queue(): buffered nonblocking output
//
// A session whose unsent replies pass kMaxSessionOutput is not read
// until its peer reads them: a client that never reads stalls only
// itself. Drain: listeners close, sessions stop reading, the owner
// answers what it admitted, then peers get a fixed grace to read their
// last replies. Counts go through the owner (serve.* or fleet.*).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/serve/protocol.hpp"
#include "src/util/rng.hpp"

namespace iotax::serve {

using Clock = std::chrono::steady_clock;

/// Replies queued past this stop a session's reads until its peer reads
/// them.
inline constexpr std::size_t kMaxSessionOutput = std::size_t{1} << 20;

/// One nonblocking socket's framed input and buffered output.
struct Wire {
  int fd = -1;
  std::vector<std::uint8_t> in;
  std::size_t in_start = 0;
  std::string out;
  bool blocked = false;      // the last send could not take all of `out`
  bool dirty = false;        // queued on this pass's flush list
  std::uint32_t events = 0;  // epoll interest registered now
};

/// One client connection of a front door.
struct Session : Wire {
  std::uint64_t id = 0;     // accept order from 0; never reused
  std::size_t pending = 0;  // admitted requests the owner still owes
  bool reading = true;      // cleared by EOF, framing defects and drain
  bool delayed = false;     // the owner defers the first read
  util::Rng rng{0};         // the owner's per-session stream
};

class EventLoop {
 public:
  /// The front door running on the loop; called on the loop thread.
  class Owner {
   public:
    /// A well-framed predict or control request; `frame` is the whole
    /// frame. The loop answers pings and other frame types itself.
    virtual void on_request(Session& s, const util::FrameHeader& header,
                            std::span<const std::uint8_t> payload,
                            std::span<const std::uint8_t> frame) = 0;
    /// `s` was accepted; its first read is armed after this returns.
    virtual void on_open(Session& /*s*/) {}
    /// Events on a descriptor added with watch().
    virtual void on_fd(std::uint64_t /*id*/, std::uint32_t /*events*/) {}
    /// Someone called wake().
    virtual void on_wake() {}
    /// Once per pass, before sessions flush: due timers, owned fds.
    virtual void on_pass(Clock::time_point /*now*/) {}
    /// When on_pass next has work; time_point::max() for never.
    virtual Clock::time_point next_timer() const {
      return Clock::time_point::max();
    }
    /// Every admitted request has been answered.
    virtual bool idle() const = 0;
    virtual void count_connection() = 0;
    virtual void count_shed() = 0;
    virtual void count_error() = 0;
    virtual void note_quarantine(util::Reason reason,
                                 const std::string& detail) = 0;

   protected:
    ~Owner() = default;
  };

  /// Gets each decoded frame (payload and frame are empty for a framing
  /// defect); returns false to stop reading.
  using FrameFn = std::function<bool(const util::FrameDecode& dec,
                                     std::span<const std::uint8_t> payload,
                                     std::span<const std::uint8_t> frame)>;
  enum class ReadEnd : std::uint8_t { kAgain, kStopped, kEof, kError };

  /// Bind the configured listeners ("" / -1 disable one); `reserved_fds`
  /// are taken off the session cap. Throws std::runtime_error starting
  /// with `who` when none is configured or one cannot bind, leaving
  /// nothing open or bound.
  EventLoop(Owner& owner, const std::string& unix_socket, int tcp_port,
            std::size_t reserved_fds, const char* who);
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Bound TCP port, -1 when TCP is disabled.
  int tcp_port() const { return tcp_port_; }

  /// Serve until a requested stop has drained; closes every session.
  void run();
  // Any thread: make run() call Owner::on_wake() / begin the drain.
  void wake();
  void request_stop() {
    stop_.store(true, std::memory_order_release);
    wake();
  }
  bool stopping() const { return stop_.load(std::memory_order_acquire); }

  // -- loop thread only
  Session* find(std::uint64_t id) {
    const auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second.get();
  }
  /// Append to `s`'s output (dropped once it is closed).
  void queue(Session& s, std::string_view bytes);
  /// Queue a typed error reply, counted as an error.
  void error_reply(Session& s, const ErrorResponse& err);
  /// Flush `s` at the end of this pass (after appending to s.out).
  void mark_dirty(Session& s);
  void arm_session(Session& s);
  /// Close an idle session that reads no more; forget a closed one once
  /// nothing is pending on it. May erase `s`.
  void settle(Session& s);

  /// Register an owner descriptor; its events go to on_fd(id), which
  /// must fit in 56 bits. arm() changes its interest.
  void watch(int fd, std::uint64_t id, std::uint32_t events);
  void arm(Wire& w, std::uint64_t id, std::uint32_t want);
  /// Unregister and close w.fd.
  void close_wire(Wire& w);
  /// One send of w.out; false on a transport error.
  static bool flush(Wire& w);
  /// Read w.fd until it would block (or w.out reaches `out_cap`),
  /// handing every whole frame to `on_frame`; a framing defect ends
  /// reading after its callback.
  ReadEnd read_frames(Wire& w, std::size_t out_cap, const FrameFn& on_frame);

 private:
  /// Owns one descriptor; a unix listener's also unlinks its path.
  struct Fd {
    int fd = -1;
    std::string path;
    Fd() = default;
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;
    ~Fd() { reset(); }
    void reset();
  };

  void on_accept(int listen_fd);
  void on_session(Session& s, std::uint32_t events);
  void read_session(Session& s);
  void ctl(int op, int fd, std::uint64_t tag, std::uint32_t events);
  void arm_tag(Wire& w, std::uint64_t tag, std::uint32_t want);
  /// Watch (or, while out of fds, stop watching) both listeners.
  void listen(bool on);
  void close_session(Session& s);
  void flush_sessions();
  void begin_drain();
  int timeout_ms(Clock::time_point now) const;

  Owner& owner_;
  Fd epoll_;
  Fd wake_;
  Fd unix_;
  Fd tcp_;
  int tcp_port_ = -1;
  std::size_t max_sessions_ = 0;
  std::size_t open_sessions_ = 0;
  std::uint64_t next_session_ = 0;
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::vector<std::uint64_t> dirty_;
  std::vector<std::uint64_t> flushing_;
  std::atomic<bool> stop_{false};
  bool draining_ = false;
  Clock::time_point listen_resume_ = Clock::time_point::max();
  Clock::time_point grace_end_ = Clock::time_point::max();
  std::uint8_t chunk_[65536];
};

}  // namespace iotax::serve
