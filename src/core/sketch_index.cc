#include "src/core/sketch_index.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/top_k.h"
#include "src/core/estimators.h"
#include "src/jl/transform.h"
#include "src/linalg/kernels.h"

namespace dpjl {

namespace {

/// Arena blocks (of kSketchBlockWidth sketches) per pool task in
/// pool-parallel scans: a fixed grain, so task boundaries depend on the
/// corpus alone, never on the pool.
constexpr int64_t kScanGrainBlocks = 16;

using TopK = BoundedTopK<SketchIndex::Neighbor,
                         bool (*)(const SketchIndex::Neighbor&,
                                  const SketchIndex::Neighbor&)>;

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
void SketchIndex::ScanBlocks(const PrivateSketch* const* probes,
                             int64_t num_probes, int64_t block_begin,
                             int64_t block_end, Visit&& visit) const {
  DPJL_CHECK(num_probes <= kScanTileProbes,
             "a scan tile holds at most kScanTileProbes probes");
  const double* q[kScanTileProbes];
  double probe_centers[kScanTileProbes];
  for (int64_t p = 0; p < num_probes; ++p) {
    q[p] = probes[p]->values().data();
    probe_centers[p] = probes[p]->metadata().noise_center;
  }
  double dist[kScanTileProbes * kSketchBlockWidth];
  for (int64_t b = block_begin; b < block_end; ++b) {
    const int64_t base = b * kSketchBlockWidth;
    const int64_t width =
        std::min<int64_t>(kSketchBlockWidth, arena_.count - base);
    EstimateSquaredDistanceTile(q, probe_centers, num_probes, arena_.dim,
                                arena_.BlockAt(b),
                                arena_.noise_centers.data() + base, width,
                                dist);
    for (int64_t p = 0; p < num_probes; ++p) {
      for (int64_t t = 0; t < width; ++t) {
        visit(p, static_cast<size_t>(base + t),
              dist[p * kSketchBlockWidth + t]);
      }
    }
  }
}

std::vector<std::vector<SketchIndex::Neighbor>> SketchIndex::ScanTopK(
    const PrivateSketch* const* probes, int64_t num_probes, int64_t top_n,
    int64_t block_begin, int64_t block_end) const {
  std::vector<TopK> topks(static_cast<size_t>(num_probes),
                          TopK(top_n, NeighborLess));
  for (TopK& topk : topks) {
    topk.Reserve((block_end - block_begin) * kSketchBlockWidth);
  }
  ScanBlocks(probes, num_probes, block_begin, block_end,
             [&](int64_t p, size_t ordinal, double dist) {
               TopK& topk = topks[static_cast<size_t>(p)];
               const std::string& id = ids_[ordinal];
               if (topk.Full()) {
                 // Reject without copying the id unless the candidate
                 // NeighborLess-beats the current worst survivor.
                 const Neighbor& worst = topk.Worst();
                 if (dist > worst.squared_distance ||
                     (dist == worst.squared_distance && id >= worst.id)) {
                   return;
                 }
               }
               topk.Push(Neighbor{id, dist});
             });
  std::vector<std::vector<Neighbor>> best;
  best.reserve(topks.size());
  for (TopK& topk : topks) best.push_back(topk.TakeSorted());
  return best;
}

Result<std::vector<SketchIndex::Neighbor>> SketchIndex::NearestNeighbors(
    const PrivateSketch& query, int64_t top_n, ThreadPool* pool) const {
  DPJL_ASSIGN_OR_RETURN(std::vector<std::vector<Neighbor>> lists,
                        NearestNeighborsBatch({&query}, top_n, pool));
  return std::move(lists.front());
}

Result<std::vector<std::vector<SketchIndex::Neighbor>>>
SketchIndex::NearestNeighborsBatch(
    const std::vector<const PrivateSketch*>& probes, int64_t top_n,
    ThreadPool* pool) const {
  if (top_n < 1) {
    return Status::InvalidArgument("top_n must be >= 1");
  }
  for (const PrivateSketch* probe : probes) {
    DPJL_RETURN_IF_ERROR(CheckQueryCompatible(*probe));
  }
  const int64_t num_probes = static_cast<int64_t>(probes.size());
  const int64_t blocks = arena_.blocks();
  const size_t num_ranges =
      static_cast<size_t>((blocks + kScanGrainBlocks - 1) / kScanGrainBlocks);
  std::vector<std::vector<Neighbor>> results;
  results.reserve(probes.size());
  for (int64_t first = 0; first < num_probes; first += kScanTileProbes) {
    const PrivateSketch* const* tile = probes.data() + first;
    const int64_t tile_size =
        std::min<int64_t>(kScanTileProbes, num_probes - first);
    if (pool == nullptr || blocks <= kScanGrainBlocks) {
      for (std::vector<Neighbor>& best :
           ScanTopK(tile, tile_size, top_n, 0, blocks)) {
        results.push_back(std::move(best));
      }
      continue;
    }
    // Each fixed-grain block range keeps its own bounded top_n per probe.
    // A probe's global top_n is contained in the union of its ranges'
    // lists, and the merge imposes the deterministic (distance, id) total
    // order, so neither the pool nor the scheduling can show through in
    // the result.
    std::vector<std::vector<std::vector<Neighbor>>> partial(num_ranges);
    ThreadPool::Run(pool, 0, blocks, kScanGrainBlocks,
                    [&](int64_t begin, int64_t end) {
                      partial[static_cast<size_t>(begin / kScanGrainBlocks)] =
                          ScanTopK(tile, tile_size, top_n, begin, end);
                    });
    for (int64_t p = 0; p < tile_size; ++p) {
      TopK merged(top_n, NeighborLess);
      for (std::vector<std::vector<Neighbor>>& range : partial) {
        for (Neighbor& neighbor : range[static_cast<size_t>(p)]) {
          merged.Push(std::move(neighbor));
        }
      }
      results.push_back(merged.TakeSorted());
    }
  }
  return results;
}

Result<std::vector<SketchIndex::Neighbor>> SketchIndex::RangeQuery(
    const PrivateSketch& query, double radius_sq, ThreadPool* pool) const {
  if (!(radius_sq >= 0)) {
    return Status::InvalidArgument("radius must be non-negative");
  }
  DPJL_RETURN_IF_ERROR(CheckQueryCompatible(query));
  // Hits per fixed-grain block range, concatenated in range order and then
  // sorted: with or without a pool the sort sees the same multiset.
  const PrivateSketch* const probe = &query;
  const int64_t blocks = arena_.blocks();
  std::vector<std::vector<Neighbor>> partial(static_cast<size_t>(
      (blocks + kScanGrainBlocks - 1) / kScanGrainBlocks));
  ThreadPool::Run(
      pool, 0, blocks, kScanGrainBlocks, [&](int64_t begin, int64_t end) {
        std::vector<Neighbor>& hits =
            partial[static_cast<size_t>(begin / kScanGrainBlocks)];
        ScanBlocks(&probe, 1, begin, end,
                   [&](int64_t, size_t ordinal, double dist) {
                     if (dist <= radius_sq) {
                       hits.push_back(Neighbor{ids_[ordinal], dist});
                     }
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
  // outer-loop first; one squared_distance_tile call scores every row of
  // the tile that still has a j > i in the block, so each block (k*8
  // doubles) streams once per row tile. The kernels never mix lanes or
  // probes, so a cell's value depends only on its row and column sketches
  // — not on the tiling, the segment seams, or which other rows and
  // columns share its tile.
  static_assert(kSketchBlockWidth <= kScanTileProbes,
                "an all-pairs row tile must fit one kernel tile");
  ThreadPool::Run(pool, 0, n, kSketchBlockWidth, [&](int64_t begin,
                                                     int64_t end) {
    std::vector<double> rows(static_cast<size_t>(kSketchBlockWidth * k));
    const double* row_ptrs[kSketchBlockWidth];
    double row_centers[kSketchBlockWidth];
    for (int64_t i = begin; i < end; ++i) {
      const size_t s = static_cast<size_t>(
          std::upper_bound(offsets.begin(), offsets.end(), i) -
          offsets.begin() - 1);
      const SketchArena& arena = segments[s]->arena_;
      row_ptrs[i - begin] = rows.data() + (i - begin) * k;
      arena.CopyLane(i - offsets[s], rows.data() + (i - begin) * k);
      row_centers[i - begin] =
          arena.noise_centers[static_cast<size_t>(i - offsets[s])];
    }
    double dist[kSketchBlockWidth * kSketchBlockWidth];
    for (size_t s = 0; s < segments.size(); ++s) {
      const SketchArena& arena = segments[s]->arena_;
      const int64_t first_block =
          std::max<int64_t>(0, begin + 1 - offsets[s]) / kSketchBlockWidth;
      for (int64_t b = first_block; b < arena.blocks(); ++b) {
        const int64_t col_base = offsets[s] + b * kSketchBlockWidth;
        const int64_t col_width = std::min<int64_t>(
            kSketchBlockWidth, arena.count - b * kSketchBlockWidth);
        // Rows i < col_base + col_width - 1 still have a j > i here; they
        // are a prefix of the row tile, empty when the whole block lies at
        // or before the tile's first row.
        const int64_t live_rows =
            std::min(end, col_base + col_width - 1) - begin;
        if (live_rows <= 0) continue;
        EstimateSquaredDistanceTile(
            row_ptrs, row_centers, live_rows, k, arena.BlockAt(b),
            arena.noise_centers.data() + b * kSketchBlockWidth, col_width,
            dist);
        for (int64_t r = 0; r < live_rows; ++r) {
          const int64_t i = begin + r;
          for (int64_t j = std::max(col_base, i + 1);
               j < col_base + col_width; ++j) {
            const double value = dist[r * kSketchBlockWidth + j - col_base];
            matrix.values[static_cast<size_t>(i * n + j)] = value;
            matrix.values[static_cast<size_t>(j * n + i)] = value;
          }
        }
      }
    }
  });
  return matrix;
}

std::string SketchIndex::SerializeRange(size_t begin, size_t end) const {
  ByteWriter out;
  out.Pod(static_cast<uint64_t>(end - begin));
  for (size_t i = begin; i < end; ++i) {
    out.String(ids_[i]);
    out.String(SketchAt(i).Serialize());
  }
  return std::move(out).Take();
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
  ByteReader in(bytes);
  uint64_t count = 0;
  // Each record needs at least its two length fields.
  in.Count(&count, 2 * sizeof(uint64_t));
  SketchIndex index;
  std::string id;
  std::string blob;
  for (uint64_t i = 0; i < count; ++i) {
    in.String(&id);
    if (!in.String(&blob)) break;
    DPJL_ASSIGN_OR_RETURN(PrivateSketch sketch, PrivateSketch::Deserialize(blob));
    DPJL_RETURN_IF_ERROR(index.Add(std::move(id), sketch));
  }
  DPJL_RETURN_IF_ERROR(in.Finish("index payload"));
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
