#include "src/core/sketch_index.h"

#include <algorithm>
#include <cstring>

#include "src/common/top_k.h"
#include "src/core/estimators.h"
#include "src/jl/transform.h"

namespace dpjl {

namespace {

/// Arena blocks (of kSketchBlockWidth sketches) per pool task in
/// pool-parallel scans: a fixed grain, so task boundaries depend on the
/// corpus alone, never on the pool.
constexpr int64_t kScanGrainBlocks = 16;

using TopK = BoundedTopK<SketchIndex::Neighbor,
                         bool (*)(const SketchIndex::Neighbor&,
                                  const SketchIndex::Neighbor&)>;

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU64(const std::string& in, size_t* offset, uint64_t* v) {
  if (in.size() - *offset < sizeof(*v)) return false;
  std::memcpy(v, in.data() + *offset, sizeof(*v));
  *offset += sizeof(*v);
  return true;
}

/// True iff `len` more bytes fit; written to be immune to the
/// offset + len overflow a crafted huge length field would cause.
bool Fits(const std::string& in, size_t offset, uint64_t len) {
  return len <= in.size() - offset;
}

}  // namespace

bool SketchIndex::NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.squared_distance != b.squared_distance) {
    return a.squared_distance < b.squared_distance;
  }
  return a.id < b.id;
}

Status SketchIndex::Add(std::string id, const PrivateSketch& sketch) {
  if (Contains(id)) {
    return Status::InvalidArgument("duplicate sketch id: " + id);
  }
  if (!metadata_.empty() &&
      !metadata_.front().CompatibleWith(sketch.metadata())) {
    return Status::FailedPrecondition(
        "sketch is incompatible with the index's projection");
  }
  AppendEntry(std::move(id), sketch);
  return Status::OK();
}

void SketchIndex::SketchArena::Append(const PrivateSketch& sketch) {
  const std::vector<double>& v = sketch.values();
  if (count == 0) dim = static_cast<int64_t>(v.size());
  DPJL_CHECK(static_cast<int64_t>(v.size()) == dim,
             "arena append requires a compatibility-checked sketch");
  const int64_t lane = count % kSketchBlockWidth;
  if (lane == 0) {
    // New tail block, zero-padded: unfilled lanes scan as the zero vector
    // and their garbage distances are discarded by the width bound.
    values.resize(values.size() +
                      static_cast<size_t>(dim) * kSketchBlockWidth,
                  0.0);
  }
  double* block =
      values.data() +
      (count / kSketchBlockWidth) * dim * kSketchBlockWidth;
  for (int64_t j = 0; j < dim; ++j) {
    block[j * kSketchBlockWidth + lane] = v[static_cast<size_t>(j)];
  }
  raw_norms.push_back(sketch.RawSquaredNorm());
  noise_centers.push_back(sketch.metadata().noise_center);
  ++count;
}

int64_t SketchIndex::SketchArena::blocks() const {
  return (count + kSketchBlockWidth - 1) / kSketchBlockWidth;
}

const double* SketchIndex::SketchArena::BlockAt(int64_t block) const {
  return values.data() + block * dim * kSketchBlockWidth;
}

void SketchIndex::SketchArena::CopyLane(int64_t ordinal, double* out) const {
  const double* lane =
      BlockAt(ordinal / kSketchBlockWidth) + ordinal % kSketchBlockWidth;
  for (int64_t j = 0; j < dim; ++j) out[j] = lane[j * kSketchBlockWidth];
}

PrivateSketch SketchIndex::SketchAt(size_t ordinal) const {
  std::vector<double> values(static_cast<size_t>(arena_.dim));
  arena_.CopyLane(static_cast<int64_t>(ordinal), values.data());
  return PrivateSketch(std::move(values), metadata_[ordinal]);
}

void SketchIndex::AppendEntry(std::string id, const PrivateSketch& sketch) {
  ordinals_.emplace(id, ids_.size());
  ids_.push_back(std::move(id));
  arena_.Append(sketch);
  metadata_.push_back(sketch.metadata());
}

Status SketchIndex::AddBatch(
    std::vector<std::pair<std::string, PrivateSketch>> items) {
  if (items.empty()) return Status::OK();
  // One reference metadata for the whole batch: the projection already
  // stored, or the batch's own first sketch on an empty index. Every item
  // checks against it once — no per-insert rescan of the stored state.
  const SketchMetadata& reference = metadata_.empty()
                                        ? items.front().second.metadata()
                                        : metadata_.front();
  std::unordered_map<std::string, size_t> batch_ids;
  batch_ids.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const std::string& id = items[i].first;
    if (!batch_ids.emplace(id, i).second) {
      return Status::InvalidArgument("duplicate sketch id in batch: " + id);
    }
    if (Contains(id)) {
      return Status::InvalidArgument("duplicate sketch id: " + id);
    }
    if (!reference.CompatibleWith(items[i].second.metadata())) {
      return Status::FailedPrecondition(
          "batch item '" + id +
          "' is incompatible with the index's projection");
    }
  }
  // Validated: commit the whole batch (no fallible step below).
  ids_.reserve(ids_.size() + items.size());
  for (auto& item : items) {
    AppendEntry(std::move(item.first), item.second);
  }
  return Status::OK();
}

std::optional<PrivateSketch> SketchIndex::Find(const std::string& id) const {
  auto it = ordinals_.find(id);
  if (it == ordinals_.end()) return std::nullopt;
  return SketchAt(it->second);
}

uint64_t SketchIndex::Fingerprint() const {
  return metadata_.empty() ? 0 : CompatibilityFingerprint(metadata_.front());
}

Result<double> SketchIndex::SquaredDistance(const std::string& id_a,
                                            const std::string& id_b) const {
  auto a = ordinals_.find(id_a);
  auto b = ordinals_.find(id_b);
  if (a == ordinals_.end() || b == ordinals_.end()) {
    return Status::NotFound("unknown sketch id");
  }
  return EstimateSquaredDistance(SketchAt(a->second), SketchAt(b->second));
}

Status SketchIndex::CheckQueryCompatible(const PrivateSketch& query) const {
  if (metadata_.empty()) return Status::OK();
  if (!metadata_.front().CompatibleWith(query.metadata())) {
    // The exact message the per-pair estimator returns: one up-front check
    // replaces its per-entry checks without changing the error surface
    // (stored sketches are mutually compatible by the Add invariant).
    return Status::FailedPrecondition(
        "sketches come from different projections and cannot be compared");
  }
  return Status::OK();
}

template <typename Visit>
void SketchIndex::ScanBlocks(const PrivateSketch& query, int64_t block_begin,
                             int64_t block_end, Visit&& visit) const {
  const double* q = query.values().data();
  const double query_center = query.metadata().noise_center;
  double dist[kSketchBlockWidth];
  for (int64_t b = block_begin; b < block_end; ++b) {
    const int64_t base = b * kSketchBlockWidth;
    const int64_t width =
        std::min<int64_t>(kSketchBlockWidth, arena_.count - base);
    EstimateSquaredDistanceBlock(q, arena_.dim, query_center,
                                 arena_.BlockAt(b),
                                 arena_.noise_centers.data() + base, width,
                                 dist);
    for (int64_t t = 0; t < width; ++t) {
      visit(static_cast<size_t>(base + t), dist[t]);
    }
  }
}

std::vector<SketchIndex::Neighbor> SketchIndex::ScanTopK(
    const PrivateSketch& query, int64_t top_n, int64_t block_begin,
    int64_t block_end) const {
  TopK topk(top_n, NeighborLess);
  topk.Reserve((block_end - block_begin) * kSketchBlockWidth);
  ScanBlocks(query, block_begin, block_end, [&](size_t ordinal, double dist) {
    const std::string& id = ids_[ordinal];
    if (topk.Full()) {
      // Reject without copying the id unless the candidate NeighborLess-
      // beats the current worst survivor.
      const Neighbor& worst = topk.Worst();
      if (dist > worst.squared_distance ||
          (dist == worst.squared_distance && id >= worst.id)) {
        return;
      }
    }
    topk.Push(Neighbor{id, dist});
  });
  return topk.TakeSorted();
}

Result<std::vector<SketchIndex::Neighbor>> SketchIndex::NearestNeighbors(
    const PrivateSketch& query, int64_t top_n, ThreadPool* pool) const {
  if (top_n < 1) {
    return Status::InvalidArgument("top_n must be >= 1");
  }
  DPJL_RETURN_IF_ERROR(CheckQueryCompatible(query));
  const int64_t blocks = arena_.blocks();
  if (pool == nullptr || blocks <= kScanGrainBlocks) {
    return ScanTopK(query, top_n, 0, blocks);
  }
  // Each fixed-grain block range keeps its own bounded top_n. The global
  // top_n is contained in their union, and the merge imposes the
  // deterministic (distance, id) total order, so neither the pool nor the
  // scheduling can show through in the result.
  std::vector<std::vector<Neighbor>> partial(static_cast<size_t>(
      (blocks + kScanGrainBlocks - 1) / kScanGrainBlocks));
  ThreadPool::Run(pool, 0, blocks, kScanGrainBlocks,
                  [&](int64_t begin, int64_t end) {
                    partial[static_cast<size_t>(begin / kScanGrainBlocks)] =
                        ScanTopK(query, top_n, begin, end);
                  });
  TopK merged(top_n, NeighborLess);
  for (std::vector<Neighbor>& part : partial) {
    for (Neighbor& neighbor : part) merged.Push(std::move(neighbor));
  }
  return merged.TakeSorted();
}

Result<std::vector<SketchIndex::Neighbor>> SketchIndex::RangeQuery(
    const PrivateSketch& query, double radius_sq, ThreadPool* pool) const {
  if (!(radius_sq >= 0)) {
    return Status::InvalidArgument("radius must be non-negative");
  }
  DPJL_RETURN_IF_ERROR(CheckQueryCompatible(query));
  // Hits per fixed-grain block range, concatenated in range order and then
  // sorted: with or without a pool the sort sees the same multiset.
  const int64_t blocks = arena_.blocks();
  std::vector<std::vector<Neighbor>> partial(static_cast<size_t>(
      (blocks + kScanGrainBlocks - 1) / kScanGrainBlocks));
  ThreadPool::Run(
      pool, 0, blocks, kScanGrainBlocks, [&](int64_t begin, int64_t end) {
        std::vector<Neighbor>& hits =
            partial[static_cast<size_t>(begin / kScanGrainBlocks)];
        ScanBlocks(query, begin, end, [&](size_t ordinal, double dist) {
          if (dist <= radius_sq) hits.push_back(Neighbor{ids_[ordinal], dist});
        });
      });
  std::vector<Neighbor> hits;
  for (std::vector<Neighbor>& part : partial) {
    hits.insert(hits.end(), std::make_move_iterator(part.begin()),
                std::make_move_iterator(part.end()));
  }
  std::sort(hits.begin(), hits.end(), NeighborLess);
  return hits;
}

std::vector<double> SketchIndex::SquaredNormEstimates() const {
  std::vector<double> estimates(static_cast<size_t>(arena_.count));
  for (size_t i = 0; i < estimates.size(); ++i) {
    estimates[i] = arena_.raw_norms[i] - arena_.noise_centers[i];
  }
  return estimates;
}

Result<SketchIndex::DistanceMatrix> SketchIndex::AllPairsDistances(
    ThreadPool* pool) const {
  return AllPairsAcross({this}, pool);
}

Result<SketchIndex::DistanceMatrix> SketchIndex::AllPairsAcross(
    const std::vector<const SketchIndex*>& segments, ThreadPool* pool) {
  // Segment s holds corpus positions [offsets[s], offsets[s + 1]). Each
  // segment is internally compatible (the Add invariant) and compatibility
  // is five-field equality, so one check per segment against the first
  // non-empty one decides exactly as a per-pair check would.
  std::vector<int64_t> offsets{0};
  const SketchMetadata* reference = nullptr;
  DistanceMatrix matrix;
  for (const SketchIndex* segment : segments) {
    if (!segment->metadata_.empty()) {
      const SketchMetadata& first = segment->metadata_.front();
      if (reference == nullptr) {
        reference = &first;
      } else if (!reference->CompatibleWith(first)) {
        return Status::FailedPrecondition(
            "sketches come from different projections and cannot be "
            "compared");
      }
    }
    offsets.push_back(offsets.back() + segment->size());
    matrix.ids.insert(matrix.ids.end(), segment->ids_.begin(),
                      segment->ids_.end());
  }
  const int64_t n = offsets.back();
  matrix.values.assign(static_cast<size_t>(n * n), 0.0);
  if (n == 0) return matrix;
  const int64_t k = reference->output_dim;

  // Row i owns every pair (i, j), j > i, and mirrors it into (j, i); each
  // cell is written by exactly one row task, so rows parallelize freely.
  // Tiles of kSketchBlockWidth rows, gathered out of their arena lanes
  // into one contiguous buffer, walk each segment's arena blocks
  // outer-loop first, so one block (k*8 doubles) stays cache-hot across
  // the whole row tile. The kernels never mix lanes, so a cell's value
  // depends only on its row and column sketches — not on the tiling, the
  // segment seams, or which other columns share its block.
  ThreadPool::Run(pool, 0, n, kSketchBlockWidth, [&](int64_t begin,
                                                     int64_t end) {
    std::vector<double> rows(static_cast<size_t>(kSketchBlockWidth * k));
    double row_centers[kSketchBlockWidth];
    for (int64_t i = begin; i < end; ++i) {
      const size_t s = static_cast<size_t>(
          std::upper_bound(offsets.begin(), offsets.end(), i) -
          offsets.begin() - 1);
      const SketchArena& arena = segments[s]->arena_;
      arena.CopyLane(i - offsets[s], rows.data() + (i - begin) * k);
      row_centers[i - begin] =
          arena.noise_centers[static_cast<size_t>(i - offsets[s])];
    }
    double dist[kSketchBlockWidth];
    for (size_t s = 0; s < segments.size(); ++s) {
      const SketchArena& arena = segments[s]->arena_;
      const int64_t first_block =
          std::max<int64_t>(0, begin + 1 - offsets[s]) / kSketchBlockWidth;
      for (int64_t b = first_block; b < arena.blocks(); ++b) {
        const int64_t col_base = offsets[s] + b * kSketchBlockWidth;
        const int64_t col_width = std::min<int64_t>(
            kSketchBlockWidth, arena.count - b * kSketchBlockWidth);
        const double* centers =
            arena.noise_centers.data() + b * kSketchBlockWidth;
        for (int64_t i = begin; i < end; ++i) {
          if (i + 1 >= col_base + col_width) continue;  // no j > i here
          EstimateSquaredDistanceBlock(rows.data() + (i - begin) * k, k,
                                       row_centers[i - begin],
                                       arena.BlockAt(b), centers, col_width,
                                       dist);
          for (int64_t j = std::max(col_base, i + 1);
               j < col_base + col_width; ++j) {
            matrix.values[static_cast<size_t>(i * n + j)] = dist[j - col_base];
            matrix.values[static_cast<size_t>(j * n + i)] = dist[j - col_base];
          }
        }
      }
    }
  });
  return matrix;
}

std::string SketchIndex::SerializeRange(size_t begin, size_t end) const {
  std::string out;
  AppendU64(&out, static_cast<uint64_t>(end - begin));
  for (size_t i = begin; i < end; ++i) {
    const std::string& id = ids_[i];
    const std::string blob = SketchAt(i).Serialize();
    AppendU64(&out, id.size());
    out.append(id);
    AppendU64(&out, blob.size());
    out.append(blob);
  }
  return out;
}

std::string SketchIndex::Serialize() const {
  return EncodeSnapshot(SnapshotKind::kIndex,
                        SerializeRange(0, ids_.size()));
}

Result<SketchIndex> SketchIndex::Deserialize(const std::string& bytes) {
  DPJL_ASSIGN_OR_RETURN(const SnapshotEnvelope envelope, DecodeSnapshot(bytes));
  if (envelope.kind != SnapshotKind::kIndex) {
    return Status::DataLoss(
        "snapshot is not a sketch index (payload kind mismatch)");
  }
  return DecodeRecords(envelope.payload);
}

Result<SketchIndex> SketchIndex::DecodeRecords(const std::string& bytes) {
  size_t offset = 0;
  uint64_t count = 0;
  if (!ReadU64(bytes, &offset, &count)) {
    return Status::DataLoss("truncated index header");
  }
  // Each record needs at least its two length fields; anything claiming
  // more records than could fit is corrupt, not worth looping over.
  if (count > (bytes.size() - offset) / (2 * sizeof(uint64_t))) {
    return Status::DataLoss("index record count exceeds payload size");
  }
  SketchIndex index;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id_len = 0;
    if (!ReadU64(bytes, &offset, &id_len) || !Fits(bytes, offset, id_len)) {
      return Status::DataLoss("truncated index id");
    }
    std::string id = bytes.substr(offset, id_len);
    offset += id_len;
    uint64_t blob_len = 0;
    if (!ReadU64(bytes, &offset, &blob_len) ||
        !Fits(bytes, offset, blob_len)) {
      return Status::DataLoss("truncated index sketch blob");
    }
    DPJL_ASSIGN_OR_RETURN(PrivateSketch sketch, PrivateSketch::Deserialize(
                                                    bytes.substr(offset, blob_len)));
    offset += blob_len;
    DPJL_RETURN_IF_ERROR(index.Add(std::move(id), sketch));
  }
  if (offset != bytes.size()) {
    return Status::DataLoss("trailing bytes after index payload");
  }
  return index;
}

Result<SketchIndex::PartitionedSnapshot> SketchIndex::ExportPartitions(
    int num_partitions) const {
  if (num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  const size_t n = ids_.size();
  const size_t k = static_cast<size_t>(num_partitions);
  PartitionedSnapshot snapshot;
  snapshot.manifest.total_count = static_cast<int64_t>(n);
  snapshot.manifest.fingerprint = Fingerprint();
  snapshot.manifest.partitions.reserve(k);
  snapshot.partitions.reserve(k);
  for (size_t p = 0; p < k; ++p) {
    // Balanced contiguous insertion-order ranges: partition p owns
    // [n*p/k, n*(p+1)/k). Trailing partitions are empty when k > n.
    const size_t begin = n * p / k;
    const size_t end = n * (p + 1) / k;
    std::string blob =
        EncodeSnapshot(SnapshotKind::kIndex, SerializeRange(begin, end));
    ShardManifest::Partition entry;
    entry.count = static_cast<int64_t>(end - begin);
    if (begin < end) {
      entry.first_id = ids_[begin];
      entry.last_id = ids_[end - 1];
    }
    entry.checksum = SnapshotChecksum(blob);
    snapshot.manifest.partitions.push_back(std::move(entry));
    snapshot.partitions.push_back(std::move(blob));
  }
  return snapshot;
}

Result<SketchIndex> SketchIndex::FromPartitions(
    const ShardManifest& manifest,
    const std::vector<std::string>& partitions) {
  if (partitions.size() != manifest.partitions.size()) {
    return Status::DataLoss(
        "manifest/partition count disagreement: manifest describes " +
        std::to_string(manifest.partitions.size()) + " partitions, " +
        std::to_string(partitions.size()) + " were provided");
  }
  // No allocation is sized from the manifest: its counts are untrusted
  // until each partition blob has decoded and matched them.
  SketchIndex merged;
  for (size_t p = 0; p < partitions.size(); ++p) {
    const ShardManifest::Partition& expected = manifest.partitions[p];
    // Checksum first: a blob that doesn't match its manifest entry is
    // rejected before any decoding work (or decode-time surprises).
    if (SnapshotChecksum(partitions[p]) != expected.checksum) {
      return Status::DataLoss("partition " + std::to_string(p) +
                              " checksum disagrees with the manifest");
    }
    DPJL_ASSIGN_OR_RETURN(SketchIndex part, Deserialize(partitions[p]));
    if (part.size() != expected.count) {
      return Status::DataLoss(
          "partition " + std::to_string(p) + " holds " +
          std::to_string(part.size()) + " sketches, manifest declares " +
          std::to_string(expected.count));
    }
    if (part.size() > 0) {
      if (part.ids_.front() != expected.first_id ||
          part.ids_.back() != expected.last_id) {
        return Status::DataLoss("partition " + std::to_string(p) +
                                " id range disagrees with the manifest");
      }
      // One fingerprint comparison vouches for the whole partition: its
      // own Deserialize already proved internal compatibility, so no
      // sketch metadata is re-scanned here.
      if (part.Fingerprint() != manifest.fingerprint) {
        return Status::FailedPrecondition(
            "partition " + std::to_string(p) +
            " was built under a different projection than the manifest's "
            "compatibility fingerprint");
      }
    }
    for (size_t i = 0; i < part.ids_.size(); ++i) {
      if (merged.Contains(part.ids_[i])) {
        return Status::InvalidArgument(
            "duplicate sketch id across partitions: " + part.ids_[i]);
      }
      merged.AppendEntry(std::move(part.ids_[i]), part.SketchAt(i));
    }
  }
  if (merged.size() != manifest.total_count) {
    return Status::DataLoss(
        "merged corpus holds " + std::to_string(merged.size()) +
        " sketches, manifest declares " +
        std::to_string(manifest.total_count));
  }
  return merged;
}

}  // namespace dpjl
