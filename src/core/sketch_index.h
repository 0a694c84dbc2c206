#ifndef DPJL_CORE_SKETCH_INDEX_H_
#define DPJL_CORE_SKETCH_INDEX_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/core/sketch.h"
#include "src/core/snapshot.h"

namespace dpjl {

/// An in-memory collection of released sketches supporting distance
/// queries and nearest-neighbor search — the application layer the paper's
/// introduction motivates (approximate NN search, document comparison) in
/// one reusable component.
///
/// Storage is one insertion-ordered store: `ids()` order, an id -> ordinal
/// map, each sketch's metadata by ordinal, and one *sketch arena* — a
/// contiguous, lane-interleaved (kSketchBlockWidth-wide, the kernels.h
/// column-block layout) SoA store of the sketch values plus parallel arrays
/// of cached raw squared norms and noise centers. The arena is the only
/// copy of the values: Find() rebuilds a PrivateSketch from its lane, bit
/// for bit the sketch that was added. Every query scans the arena through
/// one multi-probe kernel, squared_distance_tile: each pass scores up to
/// kScanTileProbes probes (a batch tile, an all-pairs row tile, or a lone
/// query) against eight candidates, so a block streams from memory once
/// per tile rather than once per probe. Every query runs one scan plan: a
/// flat list of (segment, fixed-grain block range) units over all the
/// segments it reads (a lone index is the one-segment case), scanned
/// through one ThreadPool::Run per tile — serially on the caller when there
/// is no pool — and merged once per probe by the deterministic
/// (distance, id) order. The arena grows incrementally on Add/AddBatch
/// (every insertion funnels through one append point) and is therefore
/// rebuilt for free on Deserialize/FromPartitions, which insert through
/// the same point. The kernel vectorizes across candidate lanes and probes
/// only and never reassociates a reduction, so every query result is
/// byte-identical to the per-entry scalar scan in every dispatch mode, at
/// any thread count or none.
///
/// All stored sketches must be mutually compatible (same public
/// projection); Add() enforces this. The index stores released artifacts
/// only, so it can be operated by an untrusted aggregator without privacy
/// implications — everything inside is already differentially private.
///
/// Thread safety: const methods (all queries, Serialize) are safe to call
/// concurrently, including passing the same or different pools. Add() is
/// not safe concurrently with anything else.
class SketchIndex {
 public:
  /// Inserts `sketch` under `id`. Fails if the id exists or the sketch is
  /// incompatible with those already stored.
  Status Add(std::string id, const PrivateSketch& sketch);

  /// Bulk ingestion: validates the whole batch up front — ids distinct
  /// within the batch and absent from the index, every sketch compatible
  /// with one reference (the stored projection, or the batch's first item
  /// on an empty index) — then appends it in one pass, without the
  /// per-Add compatibility rescan. All-or-nothing: on any non-OK status
  /// the index is unchanged. Insertion order is the batch order.
  Status AddBatch(std::vector<std::pair<std::string, PrivateSketch>> items);

  int64_t size() const { return static_cast<int64_t>(ids_.size()); }

  /// A copy of the stored sketch, rebuilt from the arena (values, metadata
  /// and serialized bytes identical to what was added), or nullopt.
  std::optional<PrivateSketch> Find(const std::string& id) const;

  bool Contains(const std::string& id) const { return ordinals_.count(id) > 0; }

  /// CompatibilityFingerprint of the stored projection; 0 when empty.
  uint64_t Fingerprint() const;

  /// Unbiased estimate of ||x_a - x_b||_2^2 between two stored sketches.
  Result<double> SquaredDistance(const std::string& id_a,
                                 const std::string& id_b) const;

  struct Neighbor {
    std::string id;
    double squared_distance;
  };

  /// The deterministic (distance, id) total order every query result obeys.
  /// Exposed so higher layers (partitioned scatter-gather serving) merge
  /// partial results into the identical order the monolithic scan produces.
  static bool NeighborLess(const Neighbor& a, const Neighbor& b);

  /// The `top_n` stored sketches closest to `query` by estimated squared
  /// distance, ascending (ties broken by id for determinism). `query` may
  /// be a stored sketch or an external compatible one; if it is stored, it
  /// will match itself at (noisy) distance ~0 — callers filter if needed.
  /// The one-segment, one-probe case of NearestNeighborsAcross.
  Result<std::vector<Neighbor>> NearestNeighbors(const PrivateSketch& query,
                                                 int64_t top_n,
                                                 ThreadPool* pool = nullptr) const;

  /// NearestNeighbors for many probes at once: element i is exactly what
  /// NearestNeighbors(*probes[i], top_n, pool) returns, byte for byte. The
  /// one-segment case of NearestNeighborsAcross.
  Result<std::vector<std::vector<Neighbor>>> NearestNeighborsBatch(
      const std::vector<const PrivateSketch*>& probes, int64_t top_n,
      ThreadPool* pool = nullptr) const;

  /// All stored sketches within estimated squared distance `radius_sq` of
  /// `query`, ascending. The noise floor applies: radii below
  /// sqrt(Var[E_hat]) admit false positives/negatives at the boundary.
  /// The one-segment case of RangeQueryAcross.
  Result<std::vector<Neighbor>> RangeQuery(const PrivateSketch& query,
                                           double radius_sq,
                                           ThreadPool* pool = nullptr) const;

  /// NearestNeighborsBatch over the concatenation of `segments`,
  /// byte-identical to it on one merged index. Each tile of
  /// kScanTileProbes probes runs the scan plan — every segment's
  /// fixed-grain block ranges — through one ThreadPool::Run, each unit
  /// keeping its own bounded top_n per probe (less any candidate farther
  /// than a top_n-th distance another unit already found); one bounded
  /// top-k per probe merges the units' lists. Fails with kInvalidArgument when top_n < 1,
  /// else with the estimator's kFailedPrecondition when two segments, or
  /// a probe and the first non-empty segment, are incompatible; an empty
  /// batch yields an empty list. Every unit polls `cancel` before it
  /// scans; a raised token fails the call with kCancelled, never a partial
  /// result.
  static Result<std::vector<std::vector<Neighbor>>> NearestNeighborsAcross(
      const std::vector<const SketchIndex*>& segments,
      const std::vector<const PrivateSketch*>& probes, int64_t top_n,
      ThreadPool* pool, const CancelToken& cancel = CancelToken());

  /// RangeQuery over the concatenation of `segments`: the scan plan's
  /// hits, concatenated in unit order and sorted once. Errors and
  /// cancellation as NearestNeighborsAcross, with kInvalidArgument for a
  /// negative or NaN radius.
  static Result<std::vector<Neighbor>> RangeQueryAcross(
      const std::vector<const SketchIndex*>& segments,
      const PrivateSketch& query, double radius_sq, ThreadPool* pool,
      const CancelToken& cancel = CancelToken());

  /// Estimated squared distances between every stored pair, in insertion
  /// order: `values[i * n + j]` estimates ||x_i - x_j||^2 for ids()[i],
  /// ids()[j]. Symmetric by construction (the (i, j) estimate is computed
  /// once and mirrored); the diagonal is exactly 0 by definition rather
  /// than the estimator's negative self-noise value.
  struct DistanceMatrix {
    std::vector<std::string> ids;
    std::vector<double> values;  // n * n, row-major

    double at(int64_t i, int64_t j) const {
      return values[static_cast<size_t>(i * static_cast<int64_t>(ids.size()) + j)];
    }
  };
  Result<DistanceMatrix> AllPairsDistances(ThreadPool* pool = nullptr) const;

  /// AllPairsDistances over the concatenation of `segments` in order (ids
  /// and positions run through segment 0, then segment 1, ...), read
  /// straight from their arenas. The engine serves its owned index plus
  /// attached partitions through this, and a single index is the
  /// one-segment case, so the monolithic and scatter-gather matrices can
  /// never diverge: each cell comes from one tile-kernel call with the
  /// same row and column values wherever the segment seams fall. Fails
  /// with kFailedPrecondition when two segments hold incompatible
  /// sketches.
  static Result<DistanceMatrix> AllPairsAcross(
      const std::vector<const SketchIndex*>& segments, ThreadPool* pool);

  /// Serializes the whole index (ids + sketches, insertion order) inside a
  /// versioned snapshot envelope (see snapshot.h: magic, format version,
  /// payload kind, size, checksum). The index persists released
  /// artifacts only, so the file is as public as the sketches themselves.
  /// Deserialize refuses anything that is not such an envelope with
  /// kDataLoss.
  [[nodiscard]] std::string Serialize() const;
  static Result<SketchIndex> Deserialize(const std::string& bytes);

  /// A corpus exported as independently loadable partition snapshots plus
  /// the manifest describing them. Each element of `partitions` is a
  /// complete snapshot (envelope included) that Deserialize loads on its
  /// own; the manifest records the partition order, per-partition id
  /// ranges/counts and checksums, and the corpus compatibility
  /// fingerprint.
  struct PartitionedSnapshot {
    ShardManifest manifest;
    std::vector<std::string> partitions;
  };

  /// Splits the corpus into `num_partitions` contiguous insertion-order
  /// ranges (balanced to within one element; trailing partitions may be
  /// empty when num_partitions > size()). Concatenating the partitions in
  /// manifest order reproduces the corpus exactly, so FromPartitions on
  /// the result is byte-identical to this index's Serialize().
  Result<PartitionedSnapshot> ExportPartitions(int num_partitions) const;

  /// All-or-nothing merge of independently built partitions: every blob
  /// must match its manifest entry (checksum before any decoding, then
  /// count and id range), and the set must share the manifest's
  /// compatibility fingerprint — cross-partition compatibility is vouched
  /// for by the fingerprint, not by re-scanning sketch metadata.
  /// Mismatched blobs yield kDataLoss; a partition built under a different
  /// projection yields kFailedPrecondition; duplicate ids across
  /// partitions yield kInvalidArgument. On any error no index is returned.
  static Result<SketchIndex> FromPartitions(
      const ShardManifest& manifest,
      const std::vector<std::string>& partitions);

  /// Ids in insertion order.
  const std::vector<std::string>& ids() const { return ids_; }

  /// Unbiased squared-norm estimates (EstimateSquaredNorm) for every stored
  /// sketch, in insertion order. Served from the arena's cached raw norms —
  /// one subtraction per entry, no sketch traversal.
  [[nodiscard]] std::vector<double> SquaredNormEstimates() const;

 private:
  /// The scan-side SoA mirror of the store (see the class comment):
  /// `values` packs entry e's coordinate j at
  /// `values[(e / W) * dim * W + j * W + (e % W)]` with W =
  /// kSketchBlockWidth; the tail block is zero-padded (padding lanes
  /// compute garbage distances that scans discard). `raw_norms` and
  /// `noise_centers` are indexed by ordinal, unpadded.
  struct SketchArena {
    int64_t dim = 0;
    int64_t count = 0;
    std::vector<double> values;
    std::vector<double> raw_norms;
    std::vector<double> noise_centers;

    void Append(const PrivateSketch& sketch);
    int64_t blocks() const;
    const double* BlockAt(int64_t block) const;
    /// Writes entry `ordinal`'s dim values, in coordinate order, to `out`.
    void CopyLane(int64_t ordinal, double* out) const;
  };

  /// The sketch stored at `ordinal`, rebuilt from its arena lane and
  /// metadata.
  PrivateSketch SketchAt(size_t ordinal) const;

  /// The metadata of the first non-empty segment, against which every
  /// other segment and every probe is checked (null when all are empty).
  /// Each segment is internally compatible (the Add invariant) and
  /// compatibility is five-field equality, so one check per segment or
  /// probe decides exactly as per-pair checks would. FailedPrecondition
  /// (the estimator's exact incompatibility message) when a later
  /// non-empty segment or any of `probes` is incompatible with it.
  static Result<const SketchMetadata*> CorpusReference(
      const std::vector<const SketchIndex*>& segments,
      const std::vector<const PrivateSketch*>& probes = {});

  /// Blocked arena scan of blocks [block_begin, block_end) for a tile of
  /// `num_probes` <= kScanTileProbes probes: calls
  /// `visit(probe, ordinal, estimate)` for every (probe, stored sketch)
  /// pair in them, each probe's sketches in ordinal order. Requires every
  /// probe to be compatible with the stored projection.
  template <typename Visit>
  void ScanBlocks(const PrivateSketch* const* probes, int64_t num_probes,
                  int64_t block_begin, int64_t block_end,
                  Visit&& visit) const;

  /// For each probe p of the tile, the top_n nearest within blocks
  /// [block_begin, block_end), ascending — except that a candidate
  /// farther than bounds[p] may be left out. bounds[p] is an upper bound
  /// on probe p's top_n-th distance over the whole scan plan; on return it
  /// is lowered to this range's top_n-th distance when that is smaller.
  [[nodiscard]] std::vector<std::vector<Neighbor>> ScanTopK(
      const PrivateSketch* const* probes, int64_t num_probes, int64_t top_n,
      int64_t block_begin, int64_t block_end,
      std::atomic<double>* bounds) const;

  /// Appends an entry assuming the caller already established id
  /// uniqueness and sketch compatibility (Add/AddBatch validation, or a
  /// manifest fingerprint in FromPartitions).
  void AppendEntry(std::string id, const PrivateSketch& sketch);

  /// Record stream for ordinals [begin, end) — the envelope payload format.
  [[nodiscard]] std::string SerializeRange(size_t begin, size_t end) const;

  /// Parses a record stream produced by SerializeRange (count + records).
  static Result<SketchIndex> DecodeRecords(const std::string& bytes);

  /// The store: position i of `ids_`, `metadata_` and `arena_` is the
  /// i-th inserted sketch; `ordinals_` maps id -> i. Metadata stays per
  /// ordinal because noise kind, scale, center and epsilon/delta may differ
  /// between compatible sketches.
  std::vector<std::string> ids_;
  std::unordered_map<std::string, size_t> ordinals_;
  std::vector<SketchMetadata> metadata_;
  SketchArena arena_;
};

}  // namespace dpjl

#endif  // DPJL_CORE_SKETCH_INDEX_H_
