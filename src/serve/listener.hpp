// Front-door plumbing shared by the serving daemon and the fleet router:
// the Unix-domain / TCP listeners and the connection cap.
//
// The cap keeps a process inside its descriptor budget. Every live
// session holds one fd (and, in the daemon, one reader thread), so the
// cap is derived from the RLIMIT_NOFILE soft limit minus the fds the
// process needs for everything else. A connection past the cap is
// accepted, told `kBusy` in a typed error frame and closed at once —
// the peer learns why, and the listener never stays readable with a
// full fd table (which would make accept() spin on EMFILE).
#pragma once

#include <cstddef>
#include <string>

namespace iotax::serve {

/// Bind + listen on a Unix-domain path (a stale socket file is unlinked
/// first). Throws std::runtime_error whose message starts with `who`.
int listen_unix(const std::string& path, const char* who);

/// Bind + listen on 127.0.0.1:`port` (0 = ephemeral); *bound_port gets
/// the port actually bound. Throws like listen_unix.
int listen_tcp(int port, int* bound_port, const char* who);

/// Sessions a process may hold: the RLIMIT_NOFILE soft limit minus
/// `reserved` fds (backhauls, model files) and a fixed headroom for
/// stdio, listeners, the event loop, health probes and output files.
/// Never below 1.
std::size_t connection_cap(std::size_t reserved);

/// Refuse a just-accepted connection past the cap: a best-effort typed
/// kBusy frame (never blocks), then close(fd).
void refuse_busy(int fd, std::size_t cap);

}  // namespace iotax::serve
