// Connection-cap probe for conn_cap_smoke: open N connections to a serve
// daemon or fleet router, hold them, and check the cap from outside.
//
//   iotax_conn_flood <unix-socket> <connections> <daemon-pid>
//
// Every connection must end up either held (accepted, silent) or refused
// (one typed kBusy error frame, then EOF), with at least one of each, and
// the daemon must stay idle while the connections are held: under
// 0.1 s of CPU over one second. Exits 0 when all of that holds; prints
// the counts either way. Closing the connections is left to process
// exit, after which the caller checks that a fresh client is served.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/protocol.hpp"
#include "src/util/frame.hpp"

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0) {
    std::perror("conn_flood: connect");
    std::exit(1);
  }
  return fd;
}

/// utime + stime of `pid` in seconds (/proc/<pid>/stat fields 14, 15).
double cpu_seconds(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name, which may hold spaces.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

enum class Fate { kHeld, kRefused, kOther };

/// Held: nothing to read. Refused: exactly one kBusy frame, then EOF.
Fate classify(int fd) {
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return buf.empty() ? Fate::kHeld : Fate::kOther;
      }
      return Fate::kOther;
    }
    if (n == 0) break;
    buf.insert(buf.end(), chunk, chunk + n);
  }
  const auto dec = iotax::util::decode_frame(buf);
  if (dec.status != iotax::util::FrameDecode::Status::kOk ||
      dec.consumed != buf.size() ||
      dec.header.type !=
          static_cast<std::uint8_t>(iotax::util::FrameType::kErrorResponse)) {
    return Fate::kOther;
  }
  iotax::serve::ErrorResponse err;
  const auto payload = std::span<const std::uint8_t>(buf).subspan(
      iotax::util::FrameHeader::kWireSize, dec.header.payload_len);
  if (!iotax::serve::decode_error_response(dec.header, payload, &err) ||
      err.status != iotax::serve::ServeStatus::kBusy) {
    return Fate::kOther;
  }
  return Fate::kRefused;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: iotax_conn_flood <unix-socket> <connections> <pid>\n");
    return 2;
  }
  const std::string path = argv[1];
  const int n = std::atoi(argv[2]);
  const long pid = std::atol(argv[3]);
  std::vector<int> fds;
  for (int i = 0; i < n; ++i) fds.push_back(connect_unix(path));
  // Refusals are written at accept time; give the daemon a moment to
  // work through the backlog.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  int held = 0, refused = 0, other = 0;
  for (const int fd : fds) {
    switch (classify(fd)) {
      case Fate::kHeld: ++held; break;
      case Fate::kRefused: ++refused; break;
      case Fate::kOther: ++other; break;
    }
  }
  const double cpu0 = cpu_seconds(pid);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double cpu = cpu_seconds(pid) - cpu0;
  std::printf("conn_flood: %d connection(s): %d held, %d refused with kBusy, "
              "%d other; daemon cpu %.3f s over 1 s\n",
              n, held, refused, other, cpu);
  bool ok = true;
  if (other != 0 || held == 0 || refused == 0) {
    std::printf("conn_flood: FAIL: expected only held and kBusy-refused "
                "connections, and some of each\n");
    ok = false;
  }
  if (cpu >= 0.1) {
    std::printf("conn_flood: FAIL: daemon busy while idle-held\n");
    ok = false;
  }
  for (const int fd : fds) ::close(fd);
  return ok ? 0 : 1;
}
