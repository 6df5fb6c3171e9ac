// Shared POSIX socket helpers for everything in the tree that speaks TCP:
// the obs::StatusServer HTTP endpoints and the cluster worker protocol.
//
// The recurring bugs these helpers exist to kill, once:
//   - partial reads/writes: send()/recv() on a TCP socket may move fewer
//     bytes than asked (large /metrics responses tripped this in the status
//     server); read_full()/write_full() loop until done or a hard error;
//   - EINTR: every loop restarts interrupted syscalls instead of treating a
//     signal as a connection failure (the cluster coordinator SIGCHLDs and
//     SIGKILLs freely while sockets are in flight);
//   - SIGPIPE: write_full() sends with MSG_NOSIGNAL, so a peer that died
//     mid-write surfaces as EPIPE, not a process-killing signal;
//   - fd leakage into forked children: the coordinator fork/execs workers,
//     so every listening and accepted socket must be FD_CLOEXEC or each
//     worker would inherit (and hold open) its siblings' connections.
//
// Header-only so both wk_obs and wk_util (which links wk_obs) can use it
// without a library cycle. All functions operate on plain fds; ownership
// stays with the caller (wrap in util::net::UniqueFd for scope-bound close).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#define WEAKKEYS_HAVE_NET 1
#endif

namespace weakkeys::util::net {

/// RAII fd: closes on destruction, movable, non-copyable.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset(int fd = -1) {
#if defined(WEAKKEYS_HAVE_NET)
    // POSIX leaves the fd state unspecified after EINTR from close();
    // retrying double-closes on Linux, so close once and move on.
    if (fd_ >= 0) ::close(fd_);
#endif
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

#if defined(WEAKKEYS_HAVE_NET)

namespace detail {

using NetClock = std::chrono::steady_clock;

/// Remaining milliseconds until `deadline`, clamped to >= 0.
inline int remaining_ms(NetClock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - NetClock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

inline bool parse_addr(const std::string& address, std::uint16_t port,
                       sockaddr_in* out) {
  *out = sockaddr_in{};
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  return ::inet_pton(AF_INET, address.c_str(), &out->sin_addr) == 1;
}

}  // namespace detail

/// Sets FD_CLOEXEC so the fd does not leak across fork/exec. Returns false
/// (errno set) on failure; callers treat the fd as unusable then.
inline bool set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) == 0;
}

/// Sets TCP_NODELAY. Every protocol here writes whole messages with one
/// call and then waits for a reply, so Nagle's algorithm only adds a
/// delayed-ACK round trip (~40 ms) per exchange. Returns false (errno set)
/// on failure; the socket still works without it.
inline bool set_nodelay(int fd) {
  const int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

/// Flips O_NONBLOCK on or off. Returns false (errno set) on failure.
inline bool set_nonblocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0) return false;
  const int next = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, next) == 0;
}

/// Reads exactly `size` bytes, restarting on EINTR. Returns false on EOF
/// or any hard error (the caller cannot distinguish — for a framed
/// protocol both mean "this connection is over").
inline bool read_full(int fd, void* data, std::size_t size) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::recv(fd, p, size, 0);
    if (n > 0) {
      p += n;
      size -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF (n == 0) or hard error
  }
  return true;
}

/// Writes exactly `size` bytes, restarting on EINTR and resuming partial
/// writes; sends with MSG_NOSIGNAL so a dead peer yields EPIPE, not
/// SIGPIPE. Returns false on any hard error.
inline bool write_full(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n > 0) {
      p += n;
      size -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Blocks until the fd is readable or `timeout` elapses (negative = wait
/// forever). Returns true when readable (or the peer hung up — the next
/// read reports it), false on timeout or error; restarts on EINTR with
/// the remaining time.
inline bool wait_readable(int fd, std::chrono::milliseconds timeout) {
  const bool bounded = timeout.count() >= 0;
  const auto deadline = detail::NetClock::now() + timeout;
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int wait = bounded ? detail::remaining_ms(deadline) : -1;
    const int ready = ::poll(&pfd, 1, wait);
    if (ready > 0) return (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    if (ready == 0) return false;  // timeout
    if (errno != EINTR) return false;
  }
}

/// The port a bound socket actually listens on (-1 on error). Useful after
/// binding port 0.
inline int local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return -1;
  return ntohs(addr.sin_port);
}

/// Creates a CLOEXEC TCP listener bound to `address:port` (port 0 = kernel
/// ephemeral). Returns the fd, or -1 with errno set. On success
/// `*bound_port` (if non-null) receives the actually bound port.
inline int listen_tcp(const std::string& address, std::uint16_t port,
                      int backlog = 16, int* bound_port = nullptr) {
  sockaddr_in addr{};
  if (!detail::parse_addr(address, port, &addr)) {
    errno = EINVAL;
    return -1;
  }
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return -1;
  set_cloexec(fd.get());
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    return -1;
  if (::listen(fd.get(), backlog) != 0) return -1;
  if (bound_port != nullptr) *bound_port = local_port(fd.get());
  return fd.release();
}

/// Ignores SIGPIPE process-wide (idempotent). write_full() already sends
/// with MSG_NOSIGNAL, but third-party code and raw writes on cluster
/// sockets can still raise it; both cluster endpoints call this once at
/// startup so a peer vanishing mid-write is always an EPIPE error return,
/// never process death. Deliberately does not clobber a handler the
/// application installed itself.
inline void ignore_sigpipe() {
  struct sigaction current {};
  if (::sigaction(SIGPIPE, nullptr, &current) == 0 &&
      current.sa_handler != SIG_DFL) {
    return;  // the application installed something; leave it alone
  }
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  ::sigemptyset(&ignore.sa_mask);
  ::sigaction(SIGPIPE, &ignore, nullptr);
}

/// Arms TCP keepalive probing on a connected socket so a remote peer that
/// vanishes without a FIN (cable pull, NAT expiry) is eventually detected
/// at the transport layer too — the protocol's ping deadline fires first,
/// keepalive is the backstop for idle links. Returns false on any
/// setsockopt failure (the socket still works without it).
inline bool enable_keepalive(int fd, int idle_s = 30, int interval_s = 10,
                             int count = 3) {
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one)) != 0)
    return false;
  bool ok = true;
#if defined(TCP_KEEPIDLE)
  ok &= ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &idle_s, sizeof(idle_s)) ==
        0;
#endif
#if defined(TCP_KEEPINTVL)
  ok &= ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &interval_s,
                     sizeof(interval_s)) == 0;
#endif
#if defined(TCP_KEEPCNT)
  ok &= ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &count, sizeof(count)) == 0;
#endif
  return ok;
}

/// Accepts one connection from a listener, marking it CLOEXEC and
/// TCP_NODELAY. Returns -1 on error; restarts on EINTR.
inline int accept_cloexec(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      set_cloexec(fd);
      set_nodelay(fd);
      return fd;
    }
    if (errno != EINTR) return -1;
  }
}

/// Nonblocking connect to `address:port` bounded by `timeout` (negative =
/// wait forever): the socket is created CLOEXEC, connected with O_NONBLOCK
/// + poll, then returned in blocking mode with TCP_NODELAY set. Returns the
/// fd, or -1 with errno set (ETIMEDOUT when the deadline passed first).
inline int connect_tcp(const std::string& address, std::uint16_t port,
                       std::chrono::milliseconds timeout) {
  sockaddr_in addr{};
  if (!detail::parse_addr(address, port, &addr)) {
    errno = EINVAL;
    return -1;
  }
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return -1;
  set_cloexec(fd.get());
  if (!set_nonblocking(fd.get(), true)) return -1;

  const int rc =
      ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) return -1;
    const bool bounded = timeout.count() >= 0;
    const auto deadline = detail::NetClock::now() + timeout;
    for (;;) {
      pollfd pfd{fd.get(), POLLOUT, 0};
      const int wait = bounded ? detail::remaining_ms(deadline) : -1;
      const int ready = ::poll(&pfd, 1, wait);
      if (ready > 0) break;
      if (ready == 0) {
        errno = ETIMEDOUT;
        return -1;
      }
      if (errno != EINTR) return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0)
      return -1;
    if (err != 0) {
      errno = err;
      return -1;
    }
  }
  if (!set_nonblocking(fd.get(), false)) return -1;
  set_nodelay(fd.get());
  return fd.release();
}

#endif  // WEAKKEYS_HAVE_NET

}  // namespace weakkeys::util::net
