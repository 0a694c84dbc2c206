#ifndef DPJL_NET_SERVER_H_
#define DPJL_NET_SERVER_H_

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/annotated_mutex.h"
#include "src/common/result.h"
#include "src/core/engine.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace dpjl {
namespace net {

/// Server configuration. The defaults bind an ephemeral loopback port —
/// the shape every test and the tool's `serve` subcommand use, with the
/// resolved port printed for the client/router to pick up.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; Server::port() reports the resolved one.
  int port = 0;
};

/// Blocking-socket serving front over an `Engine`: one accept loop, one
/// reader thread per connection. Each reader decodes request frames and
/// feeds the engine's Submit* lanes with the RequestOptions carried in the
/// frame header (priority, tenant, deadline), waits on the future, and
/// writes the typed response — or a kErrorResponse frame carrying the
/// failure Status, so the engine's whole error model (deadline misses,
/// quota/rate refusals, cancellations, kNotFound) crosses the wire intact.
///
/// Responses on one connection are answered in request order (the reader
/// blocks per request); concurrency comes from many connections — each
/// client pool checkout is its own connection — which the engine's lanes
/// schedule against each other exactly like in-process submitters.
///
/// The server does not own the engine: whoever built the engine (and
/// attached its partitions) keeps it alive for the server's lifetime.
///
/// Thread safety: Start/Stop/port are safe from any thread; Stop is
/// idempotent and joins every connection thread before returning.
class Server {
 public:
  /// Binds, listens, and starts the accept loop. `engine` must outlive the
  /// returned server.
  static Result<std::unique_ptr<Server>> Start(Engine* engine,
                                               const ServerOptions& options);

  /// Stops accepting, shuts down every live connection, joins all threads.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The resolved listening port (the ephemeral pick when options.port
  /// was 0).
  int port() const { return port_; }
  const std::string& host() const { return host_; }

  /// Idempotent shutdown: shuts the listener down (unblocking the accept
  /// loop), half-closes every live connection (unblocking its reader),
  /// joins all threads, then closes every descriptor.
  void Stop();

 private:
  /// One accepted connection and the reader thread serving it. `finished`
  /// is raised by the reader as its last step, so the accept loop can
  /// join the thread and close the fd.
  struct Connection {
    explicit Connection(Socket accepted) : socket(std::move(accepted)) {}
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    Socket socket;
    std::thread reader;
    bool finished = false;
  };

  Server(Engine* engine, std::string host);

  /// Accepts until Stop(). Each turn first reaps finished connections, and
  /// running out of descriptors backs off instead of ending the loop, so
  /// connection churn neither leaks fds nor leaves the server deaf.
  void AcceptLoop();
  void ServeConnection(Socket* connection);

  /// Removes the finished connections from `connections_` and returns
  /// them for the caller to join outside the lock.
  std::vector<std::unique_ptr<Connection>> TakeFinishedLocked()
      REQUIRES(mutex_);

  /// Decodes `frame`, runs it through the engine, and returns the response
  /// frame to send (type + payload). Any failure becomes a kErrorResponse.
  std::pair<MessageType, std::string> Dispatch(const Frame& frame);

  Engine* const engine_;
  const std::string host_;
  int port_ = 0;
  Socket listener_;
  std::thread acceptor_;

  Mutex mutex_;
  bool stopping_ GUARDED_BY(mutex_) = false;
  /// Live connections behind stable pointers (the accept loop grows and
  /// reaps this vector while readers use their entries). A Connection is
  /// destroyed, closing its fd, only after its reader was joined. Stop()
  /// additionally calls ShutdownBoth on each socket while its reader may be
  /// blocked in recv — that pairing is the one deliberate cross-thread
  /// socket touch, and it is lock-protected here while readers hold only
  /// their stable Socket*.
  std::vector<std::unique_ptr<Connection>> connections_ GUARDED_BY(mutex_);
};

}  // namespace net
}  // namespace dpjl

#endif  // DPJL_NET_SERVER_H_
