#ifndef DPJL_NET_SOCKET_H_
#define DPJL_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/common/status.h"

namespace dpjl {
namespace net {

/// Thin RAII + error-model layer over POSIX TCP sockets — the only file in
/// the networking subsystem that touches file descriptors, so the frame,
/// server, client and router layers stay testable byte-level code.
///
/// Error mapping: every peer-side failure (connect refused, timeout,
/// connection reset, mid-message EOF) comes back as `kUnavailable` —
/// transient by definition, the signal the router's replica failover keys
/// on. Local misuse (bad address, invalid fd) is `kInvalidArgument` /
/// `kInternal`.
///
/// Thread safety: a Socket is an owned fd; distinct sockets are safe to
/// use from distinct threads. One socket must not be shared by concurrent
/// readers/writers without external synchronization (the client pool
/// checks sockets out exclusively; the server gives each connection its
/// own thread).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Closes the descriptor; idempotent.
  void Close();

  /// Half-closes both directions without releasing the fd — wakes a thread
  /// blocked in recv/accept on this socket (the shutdown path the server
  /// uses to stop its readers). Safe on an invalid socket.
  void ShutdownBoth() const;

 private:
  int fd_ = -1;
};

/// Binds and listens on `host:port`. Port 0 binds an ephemeral port; the
/// actually bound port is written to `*bound_port` (never null). Only
/// numeric IPv4 addresses plus the name "localhost" are accepted — serving
/// processes address each other by explicit address, not resolver state.
Result<Socket> ListenOn(const std::string& host, int port, int* bound_port);

/// Blocking accept. A signal or a connection aborted before it was
/// accepted is retried here; kResourceExhausted when the process or system
/// is out of descriptors (transient: retry once some are freed);
/// kUnavailable when the listener was shut down or closed (the server's
/// stop signal).
Result<Socket> AcceptConnection(const Socket& listener);

/// Blocking connect with a bounded wait; kUnavailable on refusal or
/// timeout.
Result<Socket> ConnectTo(const std::string& host, int port,
                         int64_t timeout_ms);

/// Bounds every subsequent blocking read on the socket (0 = wait forever).
Status SetRecvTimeout(const Socket& socket, int64_t timeout_ms);

/// Writes all of `bytes`; kUnavailable if the peer went away mid-write.
Status SendAll(const Socket& socket, std::string_view bytes);

/// Reads exactly `n` bytes into `*out` (replacing its contents);
/// kUnavailable on EOF, timeout or reset before `n` bytes arrived.
Status RecvExact(const Socket& socket, size_t n, std::string* out);

}  // namespace net
}  // namespace dpjl

#endif  // DPJL_NET_SOCKET_H_
