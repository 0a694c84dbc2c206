#include "src/net/frame.h"

#include <utility>

#include "src/common/bytes.h"
#include "src/core/snapshot.h"
#include "src/net/socket.h"

namespace dpjl {
namespace net {

namespace {

/// Differs from both snapshot magics after 4 bytes, so a frame can never be
/// mistaken for an on-disk artifact (or vice versa).
constexpr std::string_view kWireMagic = "DPJLWIRE";

/// The checksum covers header bytes [8, 40) — every field between the magic
/// and the checksum itself — plus the tenant and payload bytes.
constexpr size_t kCoveredHeaderBytes = 32;

/// Every field of the fixed header, as read from its 48 bytes.
struct FixedHeader {
  uint32_t version = 0;
  uint32_t type = 0;
  uint32_t priority = 0;
  FrameSizes sizes;
  int64_t deadline_ms = 0;
  uint64_t checksum = 0;
};

/// Stage 1 of every frame decode: magic, version and the sanity caps over
/// exactly kFrameHeaderBytes bytes.
Result<FixedHeader> DecodeFixedHeader(std::string_view bytes) {
  if (bytes.size() != kFrameHeaderBytes) {
    return Status::DataLoss("wire frame header must be exactly " +
                            std::to_string(kFrameHeaderBytes) + " bytes, got " +
                            std::to_string(bytes.size()));
  }
  ByteReader in(bytes);
  if (!in.Magic(kWireMagic)) {
    return Status::DataLoss("bad wire magic (not a dpjl wire frame)");
  }
  FixedHeader header;
  in.Pod(&header.version);
  in.Pod(&header.type);
  in.Pod(&header.priority);
  in.Pod(&header.sizes.tenant_size);
  in.Pod(&header.deadline_ms);
  in.Pod(&header.sizes.payload_size);
  in.Pod(&header.checksum);  // exactly the 48 bytes checked above
  if (header.version != kWireVersion) {
    return Status::DataLoss("unsupported wire frame version " +
                            std::to_string(header.version) +
                            " (this peer speaks version " +
                            std::to_string(kWireVersion) + ")");
  }
  if (header.sizes.tenant_size > kMaxFrameTenantBytes) {
    return Status::DataLoss("wire frame tenant length " +
                            std::to_string(header.sizes.tenant_size) +
                            " exceeds the cap of " +
                            std::to_string(kMaxFrameTenantBytes));
  }
  if (header.sizes.payload_size > kMaxFramePayloadBytes) {
    return Status::DataLoss("wire frame payload length " +
                            std::to_string(header.sizes.payload_size) +
                            " exceeds the cap of " +
                            std::to_string(kMaxFramePayloadBytes));
  }
  return header;
}

}  // namespace

std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kNearestNeighborsRequest:
      return "nearest-neighbors-request";
    case MessageType::kRangeQueryRequest:
      return "range-query-request";
    case MessageType::kSquaredDistanceRequest:
      return "squared-distance-request";
    case MessageType::kBatchQueryRequest:
      return "batch-query-request";
    case MessageType::kInsertRequest:
      return "insert-request";
    case MessageType::kStatsRequest:
      return "stats-request";
    case MessageType::kGetSketchRequest:
      return "get-sketch-request";
    case MessageType::kPingRequest:
      return "ping-request";
    case MessageType::kNeighborsResponse:
      return "neighbors-response";
    case MessageType::kDistanceResponse:
      return "distance-response";
    case MessageType::kBatchNeighborsResponse:
      return "batch-neighbors-response";
    case MessageType::kAckResponse:
      return "ack-response";
    case MessageType::kStatsResponse:
      return "stats-response";
    case MessageType::kSketchResponse:
      return "sketch-response";
    case MessageType::kErrorResponse:
      return "error-response";
    case MessageType::kPingResponse:
      return "ping-response";
  }
  return "unknown";
}

Result<MessageType> MessageTypeFromInt(uint32_t value) {
  const MessageType type = static_cast<MessageType>(value);
  switch (type) {
    case MessageType::kNearestNeighborsRequest:
    case MessageType::kRangeQueryRequest:
    case MessageType::kSquaredDistanceRequest:
    case MessageType::kBatchQueryRequest:
    case MessageType::kInsertRequest:
    case MessageType::kStatsRequest:
    case MessageType::kGetSketchRequest:
    case MessageType::kPingRequest:
    case MessageType::kNeighborsResponse:
    case MessageType::kDistanceResponse:
    case MessageType::kBatchNeighborsResponse:
    case MessageType::kAckResponse:
    case MessageType::kStatsResponse:
    case MessageType::kSketchResponse:
    case MessageType::kErrorResponse:
    case MessageType::kPingResponse:
      return type;
  }
  return Status::DataLoss("unknown wire message type " +
                          std::to_string(value));
}

std::string EncodeFrame(const FrameHeader& header, std::string payload) {
  ByteWriter out;
  out.Reserve(kFrameHeaderBytes + header.tenant.size() + payload.size());
  out.Raw(kWireMagic);
  out.Pod(kWireVersion);
  out.Pod(static_cast<uint32_t>(header.type));
  out.Pod(static_cast<uint32_t>(header.priority));
  out.Pod(static_cast<uint32_t>(header.tenant.size()));
  out.Pod(header.deadline_ms);
  out.Pod(static_cast<uint64_t>(payload.size()));
  // Checksum everything after the magic: the covered header span, then the
  // tenant and payload as one continued FNV-1a stream. Appended last in the
  // header but computed over bytes [8, 40) first, so decoders can verify
  // before trusting any field.
  uint64_t checksum = SnapshotChecksum(out.view().substr(kWireMagic.size()));
  checksum = SnapshotChecksum(header.tenant, checksum);
  checksum = SnapshotChecksum(payload, checksum);
  out.Pod(checksum);
  out.Raw(header.tenant);
  out.Raw(payload);
  return std::move(out).Take();
}

Result<FrameSizes> DecodeFrameSizes(std::string_view fixed_header) {
  DPJL_ASSIGN_OR_RETURN(const FixedHeader header,
                        DecodeFixedHeader(fixed_header));
  return header.sizes;
}

Result<Frame> DecodeFrame(const std::string& bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    return Status::DataLoss("wire frame shorter than its fixed header");
  }
  const std::string_view view(bytes);
  DPJL_ASSIGN_OR_RETURN(const FixedHeader header,
                        DecodeFixedHeader(view.substr(0, kFrameHeaderBytes)));
  ByteReader body(view.substr(kFrameHeaderBytes));
  const uint64_t body_size =
      static_cast<uint64_t>(header.sizes.tenant_size) +
      header.sizes.payload_size;
  if (body.remaining() != body_size) {
    return Status::DataLoss(
        "wire frame length mismatch: header declares " +
        std::to_string(body_size) + " body bytes, buffer carries " +
        std::to_string(body.remaining()));
  }
  // Verify the checksum before interpreting any remaining field: the
  // covered span is header bytes [8, 40) plus the whole body, so any
  // single flipped byte outside the magic fails here (or at the
  // version/size gates above — either way, a clean kDataLoss).
  uint64_t checksum =
      SnapshotChecksum(view.substr(kWireMagic.size(), kCoveredHeaderBytes));
  checksum = SnapshotChecksum(view.substr(kFrameHeaderBytes), checksum);
  if (checksum != header.checksum) {
    return Status::DataLoss(
        "wire frame checksum mismatch (corrupted in transit)");
  }
  Frame frame;
  DPJL_ASSIGN_OR_RETURN(frame.header.type, MessageTypeFromInt(header.type));
  if (header.priority >= static_cast<uint32_t>(kNumPriorityLanes)) {
    return Status::DataLoss("wire frame priority lane " +
                            std::to_string(header.priority) +
                            " is out of range");
  }
  frame.header.priority = static_cast<Priority>(header.priority);
  frame.header.deadline_ms = header.deadline_ms;
  std::string_view tenant;
  std::string_view payload;
  body.Raw(header.sizes.tenant_size, &tenant);
  body.Raw(header.sizes.payload_size, &payload);
  frame.header.tenant.assign(tenant);
  frame.payload.assign(payload);
  return frame;
}

std::string EncodeNearestNeighborsRequest(const NearestNeighborsRequest& req) {
  ByteWriter out;
  out.Pod(req.top_n);
  out.String(req.sketch);
  return std::move(out).Take();
}

Result<NearestNeighborsRequest> DecodeNearestNeighborsRequest(
    const std::string& payload) {
  NearestNeighborsRequest req;
  ByteReader in(payload);
  in.Pod(&req.top_n);
  in.String(&req.sketch);
  DPJL_RETURN_IF_ERROR(in.Finish("nearest-neighbors request payload"));
  return req;
}

std::string EncodeRangeQueryRequest(const RangeQueryRequest& req) {
  ByteWriter out;
  out.Pod(req.radius_sq);
  out.String(req.sketch);
  return std::move(out).Take();
}

Result<RangeQueryRequest> DecodeRangeQueryRequest(const std::string& payload) {
  RangeQueryRequest req;
  ByteReader in(payload);
  in.Pod(&req.radius_sq);
  in.String(&req.sketch);
  DPJL_RETURN_IF_ERROR(in.Finish("range-query request payload"));
  return req;
}

std::string EncodeSquaredDistanceRequest(const SquaredDistanceRequest& req) {
  ByteWriter out;
  out.String(req.id_a);
  out.String(req.id_b);
  return std::move(out).Take();
}

Result<SquaredDistanceRequest> DecodeSquaredDistanceRequest(
    const std::string& payload) {
  SquaredDistanceRequest req;
  ByteReader in(payload);
  in.String(&req.id_a);
  in.String(&req.id_b);
  DPJL_RETURN_IF_ERROR(in.Finish("squared-distance request payload"));
  return req;
}

std::string EncodeBatchQueryRequest(const BatchQueryRequest& req) {
  ByteWriter out;
  out.Pod(req.top_n);
  out.Pod(static_cast<uint64_t>(req.sketches.size()));
  for (const std::string& sketch : req.sketches) out.String(sketch);
  return std::move(out).Take();
}

Result<BatchQueryRequest> DecodeBatchQueryRequest(const std::string& payload) {
  BatchQueryRequest req;
  ByteReader in(payload);
  uint64_t count = 0;
  in.Pod(&req.top_n);
  // Each sketch record carries at least its length prefix.
  in.Count(&count, sizeof(uint64_t));
  req.sketches.resize(count);
  for (std::string& sketch : req.sketches) in.String(&sketch);
  DPJL_RETURN_IF_ERROR(in.Finish("batch-query request payload"));
  return req;
}

std::string EncodeInsertRequest(const InsertRequest& req) {
  ByteWriter out;
  out.String(req.id);
  out.String(req.sketch);
  return std::move(out).Take();
}

Result<InsertRequest> DecodeInsertRequest(const std::string& payload) {
  InsertRequest req;
  ByteReader in(payload);
  in.String(&req.id);
  in.String(&req.sketch);
  DPJL_RETURN_IF_ERROR(in.Finish("insert request payload"));
  return req;
}

std::string EncodeIdPayload(const std::string& id) {
  ByteWriter out;
  out.String(id);
  return std::move(out).Take();
}

Result<std::string> DecodeIdPayload(const std::string& payload) {
  std::string id;
  ByteReader in(payload);
  in.String(&id);
  DPJL_RETURN_IF_ERROR(in.Finish("id payload"));
  return id;
}

std::string EncodeNeighbors(const std::vector<SketchIndex::Neighbor>& list) {
  ByteWriter out;
  out.Pod(static_cast<uint64_t>(list.size()));
  for (const SketchIndex::Neighbor& neighbor : list) {
    out.String(neighbor.id);
    out.Pod(neighbor.squared_distance);
  }
  return std::move(out).Take();
}

Result<std::vector<SketchIndex::Neighbor>> DecodeNeighbors(
    const std::string& payload) {
  ByteReader in(payload);
  uint64_t count = 0;
  // Each neighbor is at least its id length prefix and its distance.
  in.Count(&count, sizeof(uint64_t) + sizeof(double));
  std::vector<SketchIndex::Neighbor> list(count);
  for (SketchIndex::Neighbor& neighbor : list) {
    in.String(&neighbor.id);
    in.Pod(&neighbor.squared_distance);
  }
  DPJL_RETURN_IF_ERROR(in.Finish("neighbors payload"));
  return list;
}

std::string EncodeBatchNeighbors(
    const std::vector<std::vector<SketchIndex::Neighbor>>& lists) {
  ByteWriter out;
  out.Pod(static_cast<uint64_t>(lists.size()));
  for (const auto& list : lists) out.String(EncodeNeighbors(list));
  return std::move(out).Take();
}

Result<std::vector<std::vector<SketchIndex::Neighbor>>> DecodeBatchNeighbors(
    const std::string& payload) {
  ByteReader in(payload);
  uint64_t count = 0;
  // Each list is at least its length prefix.
  in.Count(&count, sizeof(uint64_t));
  std::vector<std::vector<SketchIndex::Neighbor>> lists;
  lists.reserve(count);
  std::string nested;
  for (uint64_t i = 0; i < count && in.String(&nested); ++i) {
    DPJL_ASSIGN_OR_RETURN(auto list, DecodeNeighbors(nested));
    lists.push_back(std::move(list));
  }
  DPJL_RETURN_IF_ERROR(in.Finish("batch neighbors payload"));
  return lists;
}

std::string EncodeDistance(double value) {
  ByteWriter out;
  out.Pod(value);
  return std::move(out).Take();
}

Result<double> DecodeDistance(const std::string& payload) {
  double value = 0.0;
  ByteReader in(payload);
  in.Pod(&value);
  DPJL_RETURN_IF_ERROR(in.Finish("distance payload"));
  return value;
}

std::string EncodeErrorStatus(const Status& status) {
  ByteWriter out;
  out.Pod(static_cast<int32_t>(status.code()));
  out.String(status.message());
  return std::move(out).Take();
}

Result<WireStatus> DecodeErrorStatus(const std::string& payload) {
  int32_t code = 0;
  WireStatus carried;
  ByteReader in(payload);
  in.Pod(&code);
  in.String(&carried.message);
  DPJL_RETURN_IF_ERROR(in.Finish("error status payload"));
  DPJL_ASSIGN_OR_RETURN(carried.code, StatusCodeFromInt(code));
  return carried;
}

Status SendFrame(const Socket& socket, const FrameHeader& header,
                 std::string payload) {
  return SendAll(socket, EncodeFrame(header, std::move(payload)));
}

Result<Frame> RecvFrame(const Socket& socket) {
  std::string fixed;
  DPJL_RETURN_IF_ERROR(RecvExact(socket, kFrameHeaderBytes, &fixed));
  DPJL_ASSIGN_OR_RETURN(const FrameSizes sizes, DecodeFrameSizes(fixed));
  std::string body;
  DPJL_RETURN_IF_ERROR(RecvExact(
      socket, static_cast<size_t>(sizes.tenant_size + sizes.payload_size),
      &body));
  fixed.append(body);
  return DecodeFrame(fixed);
}

}  // namespace net
}  // namespace dpjl
