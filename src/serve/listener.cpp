#include "src/serve/listener.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "src/serve/protocol.hpp"

namespace iotax::serve {

namespace {

/// fds a serving process needs besides its sessions and `reserved`:
/// stdio (3), two listeners, epoll + eventfd, a supervisor health probe,
/// ready/metrics/trace files, and slack for the C++ runtime.
constexpr std::size_t kHeadroomFds = 16;

}  // namespace

int listen_unix(const std::string& path, const char* who) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error(std::string(who) +
                             ": unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string(who) + ": socket(AF_UNIX) failed");
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string(who) +
                             ": cannot listen on unix socket " + path + ": " +
                             std::strerror(err));
  }
  return fd;
}

int listen_tcp(int port, int* bound_port, const char* who) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string(who) + ": socket(AF_INET) failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string(who) + ": cannot listen on TCP port " +
                             std::to_string(port) + ": " + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

std::size_t connection_cap(std::size_t reserved) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0 || lim.rlim_cur == RLIM_INFINITY) {
    return static_cast<std::size_t>(-1) / 2;
  }
  const auto soft = static_cast<std::size_t>(lim.rlim_cur);
  const std::size_t need = kHeadroomFds + reserved;
  return soft > need ? soft - need : 1;
}

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

}  // namespace iotax::serve
