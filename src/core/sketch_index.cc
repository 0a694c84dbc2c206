#include "src/core/sketch_index.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "src/common/bytes.h"
#include "src/common/top_k.h"
#include "src/core/estimators.h"
#include "src/jl/transform.h"
#include "src/linalg/kernels.h"

namespace dpjl {

namespace {

/// Arena blocks (of kSketchBlockWidth sketches) per scan-plan unit: a
/// fixed grain, so unit boundaries depend on the corpus alone, never on
/// the pool.
constexpr int64_t kScanGrainBlocks = 16;

/// One unit of a scan plan: arena blocks [block_begin, block_end) of
/// `segment`.
struct ScanUnit {
  const SketchIndex* segment;
  int64_t block_begin;
  int64_t block_end;
};

/// The scan plan over `segments`: each segment's arena blocks in
/// kScanGrainBlocks ranges, segments in order — the same units with or
/// without a pool.
std::vector<ScanUnit> PlanScan(const std::vector<const SketchIndex*>& segments) {
  std::vector<ScanUnit> plan;
  for (const SketchIndex* segment : segments) {
    const int64_t blocks =
        (segment->size() + kSketchBlockWidth - 1) / kSketchBlockWidth;
    for (int64_t begin = 0; begin < blocks; begin += kScanGrainBlocks) {
      plan.push_back(ScanUnit{segment, begin,
                              std::min(blocks, begin + kScanGrainBlocks)});
    }
  }
  return plan;
}

/// Runs `scan(u)` for every unit index u of `plan` through one
/// ThreadPool::Run (serially on the caller when `pool` is null). Each unit
/// polls `cancel` first and skips its scan once the token is raised; a
/// raised token never falls back, so it still shows after the run.
template <typename Scan>
Status RunPlan(const std::vector<ScanUnit>& plan, ThreadPool* pool,
               const CancelToken& cancel, Scan&& scan) {
  ThreadPool::Run(pool, 0, static_cast<int64_t>(plan.size()), 1,
                  [&](int64_t begin, int64_t end) {
                    for (int64_t u = begin; u < end; ++u) {
                      if (!cancel.Cancelled()) scan(static_cast<size_t>(u));
                    }
                  });
  if (cancel.Cancelled()) return Status::Cancelled("query cancelled mid scan");
  return Status::OK();
}

/// The per-pair estimator's incompatibility message: one up-front check
/// per segment and probe replaces its per-entry checks without changing
/// the error surface.
constexpr char kIncompatible[] =
    "sketches come from different projections and cannot be compared";

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

Result<const SketchMetadata*> SketchIndex::CorpusReference(
    const std::vector<const SketchIndex*>& segments,
    const std::vector<const PrivateSketch*>& probes) {
  const SketchMetadata* reference = nullptr;
  for (const SketchIndex* segment : segments) {
    if (segment->metadata_.empty()) continue;
    const SketchMetadata& first = segment->metadata_.front();
    if (reference == nullptr) {
      reference = &first;
    } else if (!reference->CompatibleWith(first)) {
      return Status::FailedPrecondition(kIncompatible);
    }
  }
  for (const PrivateSketch* probe : probes) {
    if (reference != nullptr && !reference->CompatibleWith(probe->metadata())) {
      return Status::FailedPrecondition(kIncompatible);
    }
  }
  return reference;
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
    int64_t block_begin, int64_t block_end,
    std::atomic<double>* bounds) const {
  // Candidates are (distance, ordinal) pairs until they survive: ordinals
  // order like their ids within one index, so this is the NeighborLess
  // order, and the heap churn of a short block range copies no id.
  struct Candidate {
    double distance;
    size_t ordinal;
  };
  const auto less = [this](const Candidate& a, const Candidate& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return ids_[a.ordinal] < ids_[b.ordinal];
  };
  using CandidateTopK = BoundedTopK<Candidate, decltype(less)>;
  std::vector<CandidateTopK> topks(static_cast<size_t>(num_probes),
                                   CandidateTopK(top_n, less));
  for (CandidateTopK& topk : topks) {
    topk.Reserve((block_end - block_begin) * kSketchBlockWidth);
  }
  // A candidate strictly farther than some range's top_n-th distance is
  // beaten by top_n others, so it cannot be in the merged top_n: dropping
  // it leaves the result exact, and the scan order or pool only changes
  // how many candidates are dropped. Every value stored in `bounds` is
  // such a distance, so a racing store that loosens a bound is harmless.
  double bound[kScanTileProbes];
  for (int64_t p = 0; p < num_probes; ++p) {
    bound[p] = bounds[p].load(std::memory_order_relaxed);
  }
  ScanBlocks(probes, num_probes, block_begin, block_end,
             [&](int64_t p, size_t ordinal, double dist) {
               if (dist > bound[p]) return;
               topks[static_cast<size_t>(p)].Push(Candidate{dist, ordinal});
             });
  std::vector<std::vector<Neighbor>> best(topks.size());
  for (size_t p = 0; p < topks.size(); ++p) {
    if (topks[p].Full() && topks[p].Worst().distance <
                               bounds[p].load(std::memory_order_relaxed)) {
      bounds[p].store(topks[p].Worst().distance, std::memory_order_relaxed);
    }
    for (const Candidate& c : topks[p].TakeSorted()) {
      best[p].push_back(Neighbor{ids_[c.ordinal], c.distance});
    }
  }
  return best;
}

Result<std::vector<SketchIndex::Neighbor>> SketchIndex::NearestNeighbors(
    const PrivateSketch& query, int64_t top_n, ThreadPool* pool) const {
  DPJL_ASSIGN_OR_RETURN(std::vector<std::vector<Neighbor>> lists,
                        NearestNeighborsAcross({this}, {&query}, top_n, pool));
  return std::move(lists.front());
}

Result<std::vector<std::vector<SketchIndex::Neighbor>>>
SketchIndex::NearestNeighborsBatch(
    const std::vector<const PrivateSketch*>& probes, int64_t top_n,
    ThreadPool* pool) const {
  return NearestNeighborsAcross({this}, probes, top_n, pool);
}

Result<std::vector<SketchIndex::Neighbor>> SketchIndex::RangeQuery(
    const PrivateSketch& query, double radius_sq, ThreadPool* pool) const {
  return RangeQueryAcross({this}, query, radius_sq, pool);
}

Result<std::vector<std::vector<SketchIndex::Neighbor>>>
SketchIndex::NearestNeighborsAcross(
    const std::vector<const SketchIndex*>& segments,
    const std::vector<const PrivateSketch*>& probes, int64_t top_n,
    ThreadPool* pool, const CancelToken& cancel) {
  if (top_n < 1) {
    return Status::InvalidArgument("top_n must be >= 1");
  }
  DPJL_RETURN_IF_ERROR(CorpusReference(segments, probes).status());
  const std::vector<ScanUnit> plan = PlanScan(segments);
  const int64_t num_probes = static_cast<int64_t>(probes.size());
  std::vector<std::vector<Neighbor>> results;
  results.reserve(probes.size());
  // partial[u][p]: unit u's share of probe p's top_n, ascending.
  std::vector<std::vector<std::vector<Neighbor>>> partial(plan.size());
  for (int64_t first = 0; first < num_probes; first += kScanTileProbes) {
    const PrivateSketch* const* tile = probes.data() + first;
    const int64_t tile_size =
        std::min<int64_t>(kScanTileProbes, num_probes - first);
    std::atomic<double> bounds[kScanTileProbes];
    for (std::atomic<double>& bound : bounds) {
      bound.store(std::numeric_limits<double>::infinity());
    }
    DPJL_RETURN_IF_ERROR(RunPlan(plan, pool, cancel, [&](size_t u) {
      const ScanUnit& unit = plan[u];
      partial[u] =
          unit.segment->ScanTopK(tile, tile_size, top_n, unit.block_begin,
                                 unit.block_end, bounds);
    }));
    for (int64_t p = 0; p < tile_size; ++p) {
      TopK merged(top_n, NeighborLess);
      for (std::vector<std::vector<Neighbor>>& lists : partial) {
        for (Neighbor& neighbor : lists[static_cast<size_t>(p)]) {
          merged.Push(std::move(neighbor));
        }
      }
      results.push_back(merged.TakeSorted());
    }
  }
  return results;
}

Result<std::vector<SketchIndex::Neighbor>> SketchIndex::RangeQueryAcross(
    const std::vector<const SketchIndex*>& segments,
    const PrivateSketch& query, double radius_sq, ThreadPool* pool,
    const CancelToken& cancel) {
  if (!(radius_sq >= 0)) {
    return Status::InvalidArgument("radius must be non-negative");
  }
  DPJL_RETURN_IF_ERROR(CorpusReference(segments, {&query}).status());
  // Hits per unit, concatenated in plan order and then sorted: with or
  // without a pool the sort sees the same multiset.
  const std::vector<ScanUnit> plan = PlanScan(segments);
  const PrivateSketch* const probe = &query;
  std::vector<std::vector<Neighbor>> partial(plan.size());
  DPJL_RETURN_IF_ERROR(RunPlan(plan, pool, cancel, [&](size_t u) {
    const ScanUnit& unit = plan[u];
    std::vector<Neighbor>& hits = partial[u];
    unit.segment->ScanBlocks(&probe, 1, unit.block_begin, unit.block_end,
                             [&](int64_t, size_t ordinal, double dist) {
                               if (dist <= radius_sq) {
                                 hits.push_back(Neighbor{
                                     unit.segment->ids_[ordinal], dist});
                               }
                             });
  }));
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
  DPJL_ASSIGN_OR_RETURN(const SketchMetadata* const reference,
                        CorpusReference(segments));
  // Segment s holds corpus positions [offsets[s], offsets[s + 1]).
  std::vector<int64_t> offsets{0};
  DistanceMatrix matrix;
  for (const SketchIndex* segment : segments) {
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
