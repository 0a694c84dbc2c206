#include "src/net/client.h"

#include <utility>

namespace dpjl {
namespace net {

Client::Client(std::string host, int port, ClientOptions options)
    : host_(std::move(host)), port_(port), options_(options) {}

Result<Socket> Client::BorrowConnection(bool* pooled) {
  {
    MutexLock lock(mutex_);
    *pooled = !pool_.empty();
    if (*pooled) {
      Socket connection = std::move(pool_.back());
      pool_.pop_back();
      return connection;
    }
  }
  return ConnectTo(host_, port_, options_.connect_timeout_ms);
}

void Client::ReturnConnection(Socket connection) {
  MutexLock lock(mutex_);
  if (static_cast<int64_t>(pool_.size()) < options_.max_pooled_connections) {
    pool_.push_back(std::move(connection));
  }
  // else: connection destructs (closes) here — the pool is full.
}

void Client::CloseConnections() {
  MutexLock lock(mutex_);
  pool_.clear();
}

Result<Frame> Client::Call(MessageType type, std::string payload,
                           const RequestOptions& request,
                           MessageType expected_response) {
  FrameHeader header;
  header.type = type;
  header.priority = request.priority;
  header.tenant = request.tenant;
  header.deadline_ms = request.deadline_ms;
  // One budget, both sides: a positive per-request deadline bounds the
  // socket wait too; otherwise the client default applies.
  const int64_t wait_ms =
      request.deadline_ms > 0 ? request.deadline_ms : options_.call_timeout_ms;

  const auto exchange = [&](const Socket& connection) -> Result<Frame> {
    DPJL_RETURN_IF_ERROR(SetRecvTimeout(connection, wait_ms));
    DPJL_RETURN_IF_ERROR(SendFrame(connection, header, payload));
    return RecvFrame(connection);
  };

  // A pooled connection can be stale (server restarted, idle reset): one
  // transparent retry on a fresh connection keeps that from surfacing as a
  // spurious kUnavailable. A fresh connection gets no retry — its failure
  // is the real signal replica failover keys on.
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool reused = false;
    DPJL_ASSIGN_OR_RETURN(Socket connection, BorrowConnection(&reused));
    Result<Frame> response = exchange(connection);
    if (!response.ok()) {
      // Discard: after any failure the stream position is unknowable.
      if (response.status().code() == StatusCode::kUnavailable && reused &&
          attempt == 0) {
        continue;
      }
      return response.status();
    }
    ReturnConnection(std::move(connection));
    if (response->header.type == MessageType::kErrorResponse) {
      DPJL_ASSIGN_OR_RETURN(const WireStatus carried,
                            DecodeErrorStatus(response->payload));
      if (carried.code == StatusCode::kOk) {
        return Status::DataLoss("error response frame carried an OK status");
      }
      return carried.ToStatus();
    }
    if (response->header.type != expected_response) {
      return Status::DataLoss(
          "unexpected response type '" +
          std::string(MessageTypeName(response->header.type)) + "' (wanted '" +
          std::string(MessageTypeName(expected_response)) + "')");
    }
    return response;
  }
  return Status::Unavailable("server " + host_ + ":" + std::to_string(port_) +
                             " dropped the connection");
}

Result<std::vector<SketchIndex::Neighbor>> Client::NearestNeighbors(
    const PrivateSketch& query, int64_t top_n, const RequestOptions& request) {
  NearestNeighborsRequest req;
  req.sketch = query.Serialize();
  req.top_n = top_n;
  DPJL_ASSIGN_OR_RETURN(
      const Frame response,
      Call(MessageType::kNearestNeighborsRequest,
           EncodeNearestNeighborsRequest(req), request,
           MessageType::kNeighborsResponse));
  return DecodeNeighbors(response.payload);
}

Result<std::vector<SketchIndex::Neighbor>> Client::RangeQuery(
    const PrivateSketch& query, double radius_sq,
    const RequestOptions& request) {
  RangeQueryRequest req;
  req.sketch = query.Serialize();
  req.radius_sq = radius_sq;
  DPJL_ASSIGN_OR_RETURN(
      const Frame response,
      Call(MessageType::kRangeQueryRequest, EncodeRangeQueryRequest(req),
           request, MessageType::kNeighborsResponse));
  return DecodeNeighbors(response.payload);
}

Result<double> Client::SquaredDistance(const std::string& id_a,
                                       const std::string& id_b,
                                       const RequestOptions& request) {
  SquaredDistanceRequest req;
  req.id_a = id_a;
  req.id_b = id_b;
  DPJL_ASSIGN_OR_RETURN(
      const Frame response,
      Call(MessageType::kSquaredDistanceRequest,
           EncodeSquaredDistanceRequest(req), request,
           MessageType::kDistanceResponse));
  return DecodeDistance(response.payload);
}

Result<std::vector<std::vector<SketchIndex::Neighbor>>> Client::BatchQuery(
    const std::vector<PrivateSketch>& queries, int64_t top_n,
    const RequestOptions& request) {
  BatchQueryRequest req;
  req.sketches.reserve(queries.size());
  for (const PrivateSketch& query : queries) {
    req.sketches.push_back(query.Serialize());
  }
  req.top_n = top_n;
  DPJL_ASSIGN_OR_RETURN(
      const Frame response,
      Call(MessageType::kBatchQueryRequest, EncodeBatchQueryRequest(req),
           request, MessageType::kBatchNeighborsResponse));
  return DecodeBatchNeighbors(response.payload);
}

Status Client::Insert(const std::string& id, const PrivateSketch& sketch,
                      const RequestOptions& request) {
  InsertRequest req;
  req.id = id;
  req.sketch = sketch.Serialize();
  return Call(MessageType::kInsertRequest, EncodeInsertRequest(req), request,
              MessageType::kAckResponse)
      .status();
}

Result<std::string> Client::Stats(const RequestOptions& request) {
  DPJL_ASSIGN_OR_RETURN(const Frame response,
                        Call(MessageType::kStatsRequest, std::string(),
                             request, MessageType::kStatsResponse));
  return response.payload;
}

Result<PrivateSketch> Client::GetSketch(const std::string& id,
                                        const RequestOptions& request) {
  DPJL_ASSIGN_OR_RETURN(
      const Frame response,
      Call(MessageType::kGetSketchRequest, EncodeIdPayload(id), request,
           MessageType::kSketchResponse));
  return PrivateSketch::Deserialize(response.payload);
}

Status Client::Ping(const RequestOptions& request) {
  return Call(MessageType::kPingRequest, std::string(), request,
              MessageType::kPingResponse)
      .status();
}

}  // namespace net
}  // namespace dpjl
