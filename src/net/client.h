#ifndef DPJL_NET_CLIENT_H_
#define DPJL_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/annotated_mutex.h"
#include "src/common/request_queue.h"
#include "src/common/result.h"
#include "src/core/sketch.h"
#include "src/core/sketch_index.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace dpjl {
namespace net {

/// Client-side connection behavior.
struct ClientOptions {
  /// Bound on the blocking connect.
  int64_t connect_timeout_ms = 2000;
  /// Default per-call response wait when the request carries no deadline
  /// of its own (0 = wait forever). A request's own positive deadline_ms
  /// takes precedence — the same budget bounds the server-side queue wait
  /// and the client-side socket wait.
  int64_t call_timeout_ms = 5000;
};

/// Typed RPC client for one serving endpoint, with connection pooling and
/// per-call deadlines. Each call checks a pooled connection out
/// exclusively (connecting a fresh one when the pool is empty), performs
/// one request/response exchange, and returns the connection to the pool
/// on success. On any transport failure the connection is discarded — the
/// next call starts clean — and the call reports `kUnavailable`, the
/// signal the router's replica failover keys on. Server-reported failures
/// come back as the server's own Status (codes survive the wire).
///
/// Thread safety: all calls are safe concurrently; each borrows its own
/// connection, so N concurrent calls use N connections.
class Client {
 public:
  Client(std::string host, int port, ClientOptions options = {});

  const std::string& host() const { return host_; }
  int port() const { return port_; }

  /// The request's scheduling metadata (priority lane, tenant, deadline)
  /// travels in the frame header; RequestOptions::kDefaultDeadline falls
  /// back to the server engine's configured default.
  Result<std::vector<SketchIndex::Neighbor>> NearestNeighbors(
      const PrivateSketch& query, int64_t top_n,
      const RequestOptions& request = {});

  Result<std::vector<SketchIndex::Neighbor>> RangeQuery(
      const PrivateSketch& query, double radius_sq,
      const RequestOptions& request = {});

  Result<double> SquaredDistance(const std::string& id_a,
                                 const std::string& id_b,
                                 const RequestOptions& request = {});

  /// result[i] corresponds to queries[i], byte-identical to N single
  /// NearestNeighbors calls.
  Result<std::vector<std::vector<SketchIndex::Neighbor>>> BatchQuery(
      const std::vector<PrivateSketch>& queries, int64_t top_n,
      const RequestOptions& request = {});

  Status Insert(const std::string& id, const PrivateSketch& sketch,
                const RequestOptions& request = {});

  /// The server engine's Stats().ToString() rendering.
  Result<std::string> Stats(const RequestOptions& request = {});

  /// Fetches a stored sketch by id (kNotFound if the server doesn't hold
  /// it) — the router's cross-shard distance building block.
  Result<PrivateSketch> GetSketch(const std::string& id,
                                  const RequestOptions& request = {});

  /// Liveness probe: one empty round-trip.
  Status Ping(const RequestOptions& request = {});

  /// Closes every pooled connection (in-flight calls keep their borrowed
  /// connections and discard them on return).
  void CloseConnections();

 private:
  /// One exchange: borrow/establish a connection, send `type` + `payload`
  /// with the request metadata in the header, read one response frame,
  /// return the connection to the pool. kErrorResponse frames decode into
  /// their carried Status; an unexpected response type is kDataLoss.
  Result<Frame> Call(MessageType type, std::string payload,
                     const RequestOptions& request,
                     MessageType expected_response);

  /// A pooled connection when one is idle, else a fresh one; `*pooled`
  /// says which, decided under the same lock that took it from the pool.
  Result<Socket> BorrowConnection(bool* pooled);
  void ReturnConnection(Socket connection);

  const std::string host_;
  const int port_;
  const ClientOptions options_;

  Mutex mutex_;
  std::vector<Socket> pool_ GUARDED_BY(mutex_);
};

}  // namespace net
}  // namespace dpjl

#endif  // DPJL_NET_CLIENT_H_
