// Blocking client for the serve protocol, shared by the `iotax query`
// CLI, the serve robustness tests, bench_serve and the fleet
// supervisor's health probes. Thin by design: it connects, writes
// frames, and reads back framed replies; pipelining is the caller's
// loop (send k requests, then match replies by id).
//
// Failure model: connect and recv honour optional deadlines. A peer
// that is *slow* past the deadline raises the typed Timeout error
// (Reason::kDeadlineExpired) — distinct from a peer that *vanished*,
// which surfaces as a plain transport error — so retry loops can tell
// "hung, close and fail over" apart from "dead, reconnect".
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/serve/protocol.hpp"

namespace iotax::serve {

class Client {
 public:
  /// A connect or recv deadline passed without the peer answering.
  /// Carries Reason::kDeadlineExpired for quarantine-vocabulary mapping.
  class Timeout : public std::runtime_error {
   public:
    explicit Timeout(const std::string& what) : std::runtime_error(what) {}
    static constexpr util::Reason kReason = util::Reason::kDeadlineExpired;
  };

  Client() = default;
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to a Unix-domain / TCP serve listener. Throws
  /// std::runtime_error (with errno text) when the daemon is not there,
  /// Timeout when connect_timeout_ms > 0 elapses first (0 = block).
  static Client connect_unix(const std::string& path,
                             std::uint64_t connect_timeout_ms = 0);
  static Client connect_tcp(const std::string& host, std::uint16_t port,
                            std::uint64_t connect_timeout_ms = 0);

  void close();
  /// Half-close: signal end-of-requests while still reading replies —
  /// how the truncation tests hand the daemon a partial frame.
  void shutdown_write();

  /// Idle-receive deadline: read_reply throws Timeout when the daemon
  /// goes silent for longer than `ms` (SO_RCVTIMEO; 0 restores blocking
  /// forever). This is per recv gap, not a total-transfer budget.
  void set_recv_timeout_ms(std::uint64_t ms);
  std::uint64_t recv_timeout_ms() const { return recv_timeout_ms_; }

  /// Raw bytes on the wire (tests craft partial/corrupt frames with it).
  void send_raw(std::string_view bytes);
  void send_predict(const PredictRequest& req);
  void send_ping(std::uint64_t request_id);
  void send_control(const ControlRequest& req);

  struct Reply {
    util::FrameType type = util::FrameType::kPong;
    std::uint64_t request_id = 0;
    PredictResponse predict;  // valid when type == kPredictResponse
    ErrorResponse error;      // valid when type == kErrorResponse
    ControlResponse control;  // valid when type == kControlResponse
  };

  /// Block for the next reply frame. Returns false on clean EOF; throws
  /// Timeout past the recv deadline, std::runtime_error on transport
  /// errors or a reply the codec cannot parse.
  bool read_reply(Reply* out);

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buf_;
  std::size_t start_ = 0;
  std::uint64_t recv_timeout_ms_ = 0;
};

}  // namespace iotax::serve
