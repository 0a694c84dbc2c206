#include "src/core/snapshot.h"

#include "src/common/bytes.h"

namespace dpjl {

namespace {

/// Byte 4 differs from the legacy index magic "DPJLIX01", so a v0 blob can
/// never be mistaken for an envelope (or vice versa) after reading 8 bytes.
constexpr std::string_view kSnapshotMagic = "DPJLSNAP";

}  // namespace

uint64_t SnapshotChecksum(std::string_view bytes, uint64_t state) {
  // FNV-1a 64: simple, fast, and with a fixed published basis/prime so the
  // on-disk format is reproducible from the spec alone.
  for (const char c : bytes) {
    state ^= static_cast<uint8_t>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

std::string EncodeSnapshot(SnapshotKind kind, std::string payload) {
  ByteWriter out;
  out.Reserve(kSnapshotMagic.size() + 24 + payload.size());
  out.Raw(kSnapshotMagic);
  out.Pod(kSnapshotVersion);
  out.Pod(static_cast<uint32_t>(kind));
  out.Pod(static_cast<uint64_t>(payload.size()));
  out.Pod(SnapshotChecksum(payload));
  out.Raw(payload);
  return std::move(out).Take();
}

bool HasSnapshotMagic(const std::string& bytes) {
  return ByteReader(bytes).Magic(kSnapshotMagic);
}

Result<SnapshotEnvelope> DecodeSnapshot(const std::string& bytes) {
  ByteReader in(bytes);
  if (!in.Magic(kSnapshotMagic)) {
    return Status::DataLoss("bad snapshot magic (not a dpjl snapshot file)");
  }
  SnapshotEnvelope envelope;
  uint32_t kind = 0;
  uint64_t payload_size = 0;
  in.Pod(&envelope.version);
  in.Pod(&kind);
  in.Pod(&payload_size);
  if (!in.Pod(&envelope.checksum)) {
    return Status::DataLoss("truncated snapshot header");
  }
  if (envelope.version != kSnapshotVersion) {
    return Status::DataLoss("unsupported snapshot format version " +
                            std::to_string(envelope.version) +
                            " (this reader understands version " +
                            std::to_string(kSnapshotVersion) + ")");
  }
  if (kind != static_cast<uint32_t>(SnapshotKind::kIndex) &&
      kind != static_cast<uint32_t>(SnapshotKind::kManifest)) {
    return Status::DataLoss("unknown snapshot payload kind " +
                            std::to_string(kind));
  }
  envelope.kind = static_cast<SnapshotKind>(kind);
  if (in.remaining() != payload_size) {
    return Status::DataLoss(
        "snapshot payload size mismatch: header declares " +
        std::to_string(payload_size) + " bytes, file carries " +
        std::to_string(in.remaining()));
  }
  std::string_view payload;
  in.Raw(payload_size, &payload);
  if (SnapshotChecksum(payload) != envelope.checksum) {
    return Status::DataLoss(
        "snapshot payload checksum mismatch (corrupted or tampered file)");
  }
  envelope.payload.assign(payload);
  return envelope;
}

uint64_t CompatibilityFingerprint(const SketchMetadata& metadata) {
  // Hash exactly the fields CompatibleWith compares, in a fixed order, via
  // the same FNV-1a the envelope uses. Fold the transform enum through its
  // stable int value so enum reordering can never change fingerprints
  // silently — the serialized enum values are already frozen on disk.
  ByteWriter key;
  key.Pod(static_cast<int64_t>(metadata.transform));
  key.Pod(metadata.input_dim);
  key.Pod(metadata.output_dim);
  key.Pod(metadata.sparsity);
  key.Pod(metadata.projection_seed);
  const uint64_t fingerprint = SnapshotChecksum(key.view());
  // Zero means "no constraint"; remap the (astronomically unlikely) real
  // collision onto a fixed non-zero value.
  return fingerprint == 0 ? 1 : fingerprint;
}

std::string ShardManifest::Serialize() const {
  ByteWriter payload;
  payload.Pod(total_count);
  payload.Pod(fingerprint);
  payload.Pod(static_cast<uint64_t>(partitions.size()));
  for (const Partition& partition : partitions) {
    payload.Pod(partition.count);
    payload.String(partition.first_id);
    payload.String(partition.last_id);
    payload.Pod(partition.checksum);
  }
  return EncodeSnapshot(SnapshotKind::kManifest, std::move(payload).Take());
}

Result<ShardManifest> ShardManifest::Deserialize(const std::string& bytes) {
  DPJL_ASSIGN_OR_RETURN(const SnapshotEnvelope envelope, DecodeSnapshot(bytes));
  if (envelope.kind != SnapshotKind::kManifest) {
    return Status::DataLoss(
        "snapshot is not a shard manifest (payload kind mismatch)");
  }
  ByteReader in(envelope.payload);
  ShardManifest manifest;
  uint64_t partition_count = 0;
  in.Pod(&manifest.total_count);
  in.Pod(&manifest.fingerprint);
  // A partition record is at least its count, two id lengths and checksum.
  in.Count(&partition_count, 4 * sizeof(uint64_t));
  int64_t recomputed_total = 0;
  manifest.partitions.reserve(partition_count);
  for (uint64_t i = 0; i < partition_count; ++i) {
    Partition partition;
    in.Pod(&partition.count);
    in.String(&partition.first_id);
    in.String(&partition.last_id);
    if (!in.Pod(&partition.checksum)) break;
    if (partition.count < 0) {
      return Status::DataLoss("negative partition count in shard manifest");
    }
    // Overflow-checked accumulation: the counts are untrusted, and two
    // huge claims must come back as corruption, not signed-overflow UB.
    if (__builtin_add_overflow(recomputed_total, partition.count,
                               &recomputed_total)) {
      return Status::DataLoss("shard manifest partition counts overflow");
    }
    manifest.partitions.push_back(std::move(partition));
  }
  DPJL_RETURN_IF_ERROR(in.Finish("shard manifest payload"));
  if (recomputed_total != manifest.total_count) {
    return Status::DataLoss(
        "shard manifest total count disagrees with its partition counts");
  }
  return manifest;
}

}  // namespace dpjl
