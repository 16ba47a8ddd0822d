#include "src/serve/loop.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace iotax::serve {

using util::FrameDecode;
using util::FrameHeader;
using util::FrameType;
using util::Reason;

namespace {

/// epoll_event.data tags: the kind in the top byte, an id below it.
enum class Tag : std::uint64_t { kListener = 1, kWake, kSession, kOwner };
constexpr int kTagShift = 56;

std::uint64_t make_tag(Tag kind, std::uint64_t id) {
  return (static_cast<std::uint64_t>(kind) << kTagShift) | id;
}

/// Once everything admitted is answered, how long peers still get to
/// read their last replies before drain closes their sessions.
constexpr auto kDrainGrace = std::chrono::seconds(1);

/// How long accept stays off after the process ran out of fds.
constexpr auto kAcceptPause = std::chrono::milliseconds(10);

/// fds a serving process needs besides its sessions and `reserved`:
/// stdio (3), two listeners, epoll + eventfd, a supervisor health probe,
/// ready/metrics/trace files, and slack for the C++ runtime.
constexpr std::size_t kHeadroomFds = 16;

/// Bind + listen `fd` (a fresh socket) on `addr`, or throw
/// "<who>: cannot listen on <what>: <errno text>".
void bind_listen(int fd, const sockaddr* addr, socklen_t len,
                 const std::string& what, const char* who) {
  const int one = 1;
  if (fd < 0 ||
      (addr->sa_family == AF_INET &&
       ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) ||
      ::bind(fd, addr, len) < 0 || ::listen(fd, 64) < 0) {
    throw std::runtime_error(std::string(who) + ": cannot listen on " + what +
                             ": " + std::strerror(errno));
  }
}

/// Sessions a process may hold: the RLIMIT_NOFILE soft limit minus
/// `reserved` fds (backhauls, model files) and kHeadroomFds. Never
/// below 1.
std::size_t connection_cap(std::size_t reserved) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0 || lim.rlim_cur == RLIM_INFINITY) {
    return static_cast<std::size_t>(-1) / 2;
  }
  const auto soft = static_cast<std::size_t>(lim.rlim_cur);
  const std::size_t need = kHeadroomFds + reserved;
  return soft > need ? soft - need : 1;
}

/// Refuse a just-accepted connection past the cap: a best-effort typed
/// kBusy frame (never blocks), then close(fd).
void refuse_busy(int fd, std::size_t cap) {
  ErrorResponse err;
  err.status = ServeStatus::kBusy;
  err.detail = "connection cap " + std::to_string(cap) + " reached";
  const std::string frame = encode_error_response(err);
  // A fresh socket's send buffer always holds one small frame; if the
  // peer is already gone the frame is simply lost with it.
  (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  // Closing over unread input makes TCP answer with a reset, which can
  // destroy the frame before the peer reads it: discard what is there.
  char sink[4096];
  for (int i = 0; i < 16 && ::recv(fd, sink, sizeof(sink), MSG_DONTWAIT) > 0;
       ++i) {
  }
  ::close(fd);
}

}  // namespace

void EventLoop::Fd::reset() {
  if (fd < 0) return;
  ::close(fd);
  if (!path.empty()) ::unlink(path.c_str());
  fd = -1;
}

EventLoop::EventLoop(Owner& owner, const std::string& unix_socket,
                     int tcp_port, std::size_t reserved_fds, const char* who)
    : owner_(owner) {
  // A peer that vanishes mid-reply costs an EPIPE, never a SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  epoll_.fd = ::epoll_create1(EPOLL_CLOEXEC);
  wake_.fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_.fd < 0 || wake_.fd < 0) {
    throw std::runtime_error(std::string(who) +
                             ": cannot create event loop: " +
                             std::strerror(errno));
  }
  constexpr int kListenFlags = SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC;
  if (!unix_socket.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_socket.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error(std::string(who) +
                               ": unix socket path too long: " + unix_socket);
    }
    std::memcpy(addr.sun_path, unix_socket.c_str(), unix_socket.size() + 1);
    ::unlink(unix_socket.c_str());  // stale socket from a previous run
    unix_.fd = ::socket(AF_UNIX, kListenFlags, 0);
    unix_.path = unix_socket;
    bind_listen(unix_.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr), "unix socket " + unix_socket, who);
  }
  if (tcp_port >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(tcp_port));
    tcp_.fd = ::socket(AF_INET, kListenFlags, 0);
    bind_listen(tcp_.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr), "TCP port " + std::to_string(tcp_port), who);
    socklen_t len = sizeof(addr);
    ::getsockname(tcp_.fd, reinterpret_cast<sockaddr*>(&addr), &len);
    tcp_port_ = ntohs(addr.sin_port);
  }
  if (unix_.fd < 0 && tcp_.fd < 0) {
    throw std::runtime_error(std::string(who) +
                             ": no listener configured "
                             "(need --socket and/or --port)");
  }
  // Edge-triggered wake: every write is a fresh edge, so the counter
  // never needs reading (it cannot reach its 2^64 - 2 limit).
  ctl(EPOLL_CTL_ADD, wake_.fd, make_tag(Tag::kWake, 0), EPOLLIN | EPOLLET);
  for (const Fd* l : {&unix_, &tcp_}) {
    if (l->fd < 0) continue;
    ctl(EPOLL_CTL_ADD, l->fd,
        make_tag(Tag::kListener, static_cast<std::uint64_t>(l->fd)), EPOLLIN);
  }
  max_sessions_ = connection_cap(reserved_fds);
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  (void)::write(wake_.fd, &one, sizeof(one));
}

void EventLoop::run() {
  epoll_event events[64];
  while (true) {
    const int n =
        ::epoll_wait(epoll_.fd, events, 64, timeout_ms(Clock::now()));
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint64_t id = tag & ((std::uint64_t{1} << kTagShift) - 1);
      const std::uint32_t ev = events[i].events;
      switch (static_cast<Tag>(tag >> kTagShift)) {
        case Tag::kListener:
          if (!draining_) on_accept(static_cast<int>(id));
          break;
        case Tag::kWake:
          owner_.on_wake();
          break;
        case Tag::kSession:
          if (Session* s = find(id); s != nullptr && s->fd >= 0) {
            on_session(*s, ev);
          }
          break;
        case Tag::kOwner:
          owner_.on_fd(id, ev);
          break;
      }
    }
    const auto now = Clock::now();
    if (!draining_ && stopping()) begin_drain();
    if (now >= listen_resume_) {
      listen_resume_ = Clock::time_point::max();
      listen(true);
    }
    owner_.on_pass(now);
    flush_sessions();
    if (draining_ && owner_.idle()) {
      if (grace_end_ == Clock::time_point::max()) {
        grace_end_ = Clock::now() + kDrainGrace;
      }
      if (sessions_.empty() || Clock::now() >= grace_end_) break;
    }
  }
  for (auto& [id, s] : sessions_) close_session(*s);
  sessions_.clear();
}

int EventLoop::timeout_ms(Clock::time_point now) const {
  const Clock::time_point next =
      std::min({owner_.next_timer(), listen_resume_, grace_end_});
  if (next == Clock::time_point::max()) return -1;
  if (next <= now) return 0;
  // Round up: waking a hair early would only spin until the expiry.
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(next - now).count();
  return static_cast<int>(std::min<long long>((us + 999) / 1000, 60000));
}

void EventLoop::begin_drain() {
  draining_ = true;
  unix_.reset();
  tcp_.reset();
  std::vector<std::uint64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    Session* s = find(id);
    if (s == nullptr) continue;
    // Requests already sent still get an answer (a draining daemon
    // refuses predicts), and the close that follows is not a reset.
    if (s->reading && !s->delayed) read_session(*s);
    s->reading = false;
    arm_session(*s);
    settle(*s);
  }
}

void EventLoop::ctl(int op, int fd, std::uint64_t tag, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  ::epoll_ctl(epoll_.fd, op, fd, &ev);
}

void EventLoop::listen(bool on) {
  for (const Fd* l : {&unix_, &tcp_}) {
    if (l->fd < 0) continue;
    ctl(EPOLL_CTL_MOD, l->fd,
        make_tag(Tag::kListener, static_cast<std::uint64_t>(l->fd)),
        on ? EPOLLIN : 0u);
  }
}

void EventLoop::on_accept(int listen_fd) {
  for (int k = 0; k < 64; ++k) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds despite the cap (something else holds them): stop
        // watching the listeners for a moment instead of spinning.
        listen(false);
        listen_resume_ = Clock::now() + kAcceptPause;
      }
      return;
    }
    if (open_sessions_ >= max_sessions_) {
      refuse_busy(fd, max_sessions_);
      owner_.count_shed();
      continue;
    }
    auto session = std::make_unique<Session>();
    Session& s = *session;
    s.fd = fd;
    s.id = next_session_++;
    owner_.count_connection();
    owner_.on_open(s);
    s.events = s.delayed ? 0u : EPOLLIN;
    ctl(EPOLL_CTL_ADD, fd, make_tag(Tag::kSession, s.id), s.events);
    ++open_sessions_;
    sessions_.emplace(s.id, std::move(session));
  }
}

void EventLoop::on_session(Session& s, std::uint32_t events) {
  if ((events & EPOLLOUT) != 0 && !flush(s)) {
    close_session(s);
  } else {
    if ((events & EPOLLOUT) != 0) arm_session(s);
    if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && s.reading &&
        !s.delayed) {
      read_session(s);
    }
    // HUP: both directions are gone, so nothing more can be delivered.
    if ((events & (EPOLLHUP | EPOLLERR)) != 0 && s.fd >= 0) close_session(s);
  }
  settle(s);
}

EventLoop::ReadEnd EventLoop::read_frames(Wire& w, std::size_t out_cap,
                                          const FrameFn& on_frame) {
  while (w.out.size() < out_cap) {
    const ssize_t n = ::recv(w.fd, chunk_, sizeof(chunk_), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK ? ReadEnd::kAgain
                                                     : ReadEnd::kError;
    }
    if (n == 0) return ReadEnd::kEof;
    w.in.insert(w.in.end(), chunk_, chunk_ + n);
    while (true) {
      const auto view = std::span<const std::uint8_t>(w.in).subspan(w.in_start);
      const FrameDecode dec = util::decode_frame(view);
      if (dec.status == FrameDecode::Status::kNeedMore) break;
      if (dec.status == FrameDecode::Status::kBad) {
        on_frame(dec, {}, {});
        return ReadEnd::kStopped;
      }
      if (!on_frame(dec,
                    view.subspan(FrameHeader::kWireSize,
                                 dec.header.payload_len),
                    view.first(dec.consumed))) {
        return ReadEnd::kStopped;
      }
      w.in_start += dec.consumed;
    }
    // Compact once the consumed prefix is everything or dominates.
    if (w.in_start == w.in.size() ||
        (w.in_start > 4096 && w.in_start * 2 > w.in.size())) {
      w.in.erase(w.in.begin(), w.in.begin() + static_cast<long>(w.in_start));
      w.in_start = 0;
    }
    if (static_cast<std::size_t>(n) < sizeof(chunk_)) break;  // drained
  }
  return ReadEnd::kAgain;
}

void EventLoop::read_session(Session& s) {
  const ReadEnd end = read_frames(
      s, kMaxSessionOutput,
      [this, &s](const FrameDecode& dec, std::span<const std::uint8_t> payload,
                 std::span<const std::uint8_t> frame) {
        if (dec.status == FrameDecode::Status::kBad) {
          // Framing is lost: reply with the typed defect, read no more,
          // and close once the replies already owed have gone out.
          owner_.note_quarantine(dec.reason, dec.detail);
          ErrorResponse err;
          err.status = ServeStatus::kBadFrame;
          err.reason = dec.reason;
          err.detail = dec.detail;
          error_reply(s, err);
          s.reading = false;
          return false;
        }
        switch (static_cast<FrameType>(dec.header.type)) {
          case FrameType::kPing:
            // "This front door is up"; a router's shards have their own
            // health probes.
            queue(s, encode_pong(dec.header.request_id));
            break;
          case FrameType::kPredictRequest:
          case FrameType::kControlRequest:
            owner_.on_request(s, dec.header, payload, frame);
            break;
          default: {
            // Well-framed but not something a client may send. The
            // frame boundary is intact, so the connection survives.
            owner_.note_quarantine(Reason::kMalformedHeader,
                                   "unexpected frame type " +
                                       std::to_string(dec.header.type));
            ErrorResponse err;
            err.request_id = dec.header.request_id;
            err.status = ServeStatus::kBadFrame;
            err.reason = Reason::kMalformedHeader;
            err.detail = "unexpected frame type";
            error_reply(s, err);
          }
        }
        return s.reading && s.fd >= 0;
      });
  if (end == ReadEnd::kEof) {
    // Anything left in the buffer is a frame the peer never finished;
    // the peer may still read the replies it is owed.
    if (s.in_start < s.in.size()) {
      owner_.note_quarantine(Reason::kTruncated,
                             "connection closed inside a frame (" +
                                 std::to_string(s.in.size() - s.in_start) +
                                 " byte(s) of partial frame)");
      ErrorResponse err;
      err.status = ServeStatus::kBadFrame;
      err.reason = Reason::kTruncated;
      err.detail = "truncated frame";
      error_reply(s, err);
    }
    s.reading = false;
  } else if (end == ReadEnd::kError) {
    close_session(s);
  }
  arm_session(s);
}

void EventLoop::queue(Session& s, std::string_view bytes) {
  if (s.fd < 0) return;
  s.out.append(bytes);
  mark_dirty(s);
}

void EventLoop::error_reply(Session& s, const ErrorResponse& err) {
  queue(s, encode_error_response(err));
  owner_.count_error();
}

void EventLoop::mark_dirty(Session& s) {
  if (s.dirty) return;
  s.dirty = true;
  dirty_.push_back(s.id);
}

void EventLoop::flush_sessions() {
  flushing_.swap(dirty_);
  for (const std::uint64_t id : flushing_) {
    Session* s = find(id);
    if (s == nullptr) continue;
    s->dirty = false;
    if (s->fd < 0 || s->blocked) continue;
    if (!flush(*s)) {
      close_session(*s);
    } else {
      arm_session(*s);
    }
    settle(*s);
  }
  flushing_.clear();
}

bool EventLoop::flush(Wire& w) {
  if (w.out.empty()) {
    w.blocked = false;
    return true;
  }
  ssize_t n;
  do {
    n = ::send(w.fd, w.out.data(), w.out.size(), MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    n = 0;
  }
  w.out.erase(0, static_cast<std::size_t>(n));
  w.blocked = !w.out.empty();
  return true;
}

void EventLoop::arm_tag(Wire& w, std::uint64_t tag, std::uint32_t want) {
  if (w.fd < 0 || want == w.events) return;
  ctl(EPOLL_CTL_MOD, w.fd, tag, want);
  w.events = want;
}

void EventLoop::arm_session(Session& s) {
  const bool read = s.reading && !s.delayed && s.out.size() < kMaxSessionOutput;
  arm_tag(s, make_tag(Tag::kSession, s.id),
          (read ? EPOLLIN : 0u) | (s.blocked ? EPOLLOUT : 0u));
}

void EventLoop::watch(int fd, std::uint64_t id, std::uint32_t events) {
  ctl(EPOLL_CTL_ADD, fd, make_tag(Tag::kOwner, id), events);
}

void EventLoop::arm(Wire& w, std::uint64_t id, std::uint32_t want) {
  arm_tag(w, make_tag(Tag::kOwner, id), want);
}

void EventLoop::close_wire(Wire& w) {
  if (w.fd < 0) return;
  ::epoll_ctl(epoll_.fd, EPOLL_CTL_DEL, w.fd, nullptr);
  ::close(w.fd);
  w.fd = -1;
  w.events = 0;
}

void EventLoop::close_session(Session& s) {
  if (s.fd < 0) return;
  close_wire(s);
  s.reading = false;
  s.out.clear();
  s.in.clear();
  --open_sessions_;
}

void EventLoop::settle(Session& s) {
  if (s.fd >= 0 && !s.reading && s.pending == 0 && s.out.empty()) {
    close_session(s);
  }
  // Kept while requests are pending: the owner still answers into it.
  if (s.fd < 0 && s.pending == 0) sessions_.erase(s.id);
}

}  // namespace iotax::serve
