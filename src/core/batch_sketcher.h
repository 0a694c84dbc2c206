#ifndef DPJL_CORE_BATCH_SKETCHER_H_
#define DPJL_CORE_BATCH_SKETCHER_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/core/sketcher.h"
#include "src/core/streaming.h"
#include "src/linalg/sparse_vector.h"
#include "src/random/splitmix64.h"

namespace dpjl {

/// Seed-derivation contract for batch releases: item `index` of a batch
/// sketched under `base_noise_seed` uses exactly this noise seed (a
/// splitmix64 expansion of base ^ f(index), via DeriveSeed). The contract
/// is public API: a serial loop calling
///   sketcher.Sketch(xs[i], BatchItemNoiseSeed(base, i))
/// produces bit-identical output to BatchSketcher::BatchSketch at any
/// thread count, and two parties that agree on `base` can reproduce each
/// other's batch seeds. Distinct batches must use distinct base seeds —
/// reusing a base across different inputs reuses noise, which voids the
/// privacy guarantee exactly like reusing a per-vector noise seed would.
inline uint64_t BatchItemNoiseSeed(uint64_t base_noise_seed, int64_t index) {
  return DeriveSeed(base_noise_seed, static_cast<uint64_t>(index));
}

/// Fans per-vector sketching across a ThreadPool so the paper's
/// O(s nnz + k) per-vector cost amortizes over cores. Output is a pure
/// function of (inputs, base_noise_seed, sketcher config) — each item gets
/// its own derived noise seed and its own output slot, so the result is
/// bit-identical for any pool size, including the no-pool serial path.
///
/// Thread-compatible like PrivateSketcher: const methods may be called
/// concurrently. The sketcher and pool must outlive this object.
class BatchSketcher {
 public:
  /// `pool` may be null: every batch then runs serially on the caller.
  /// Chunks are sized by ResolveGrain from the batch size and the pool's
  /// thread count.
  explicit BatchSketcher(const PrivateSketcher* sketcher,
                         ThreadPool* pool = nullptr);

  /// The chunk size a batch of `batch_size` items uses on `threads`
  /// threads: ~4 chunks per thread for load balance, rounded up to a
  /// multiple of kSketchBlockWidth so SIMD micro-blocks run full, and
  /// never below one micro-block. Chunking affects scheduling only, never
  /// output (each item's noise seed is a pure function of its index).
  static int64_t ResolveGrain(int64_t batch_size, int threads);

  /// Dense batch: sketches[i] == sketcher.Sketch(xs[i],
  /// BatchItemNoiseSeed(base_noise_seed, i)). Fails without sketching
  /// anything if any input has the wrong dimension.
  Result<std::vector<PrivateSketch>> BatchSketch(
      const std::vector<std::vector<double>>& xs,
      uint64_t base_noise_seed) const;

  /// Sparse batch, same contract against sketcher.SketchSparse.
  Result<std::vector<PrivateSketch>> BatchSketchSparse(
      const std::vector<SparseVector>& xs, uint64_t base_noise_seed) const;

  const PrivateSketcher& sketcher() const { return *sketcher_; }
  ThreadPool* pool() const { return pool_; }

 private:
  const PrivateSketcher* sketcher_;
  ThreadPool* pool_;
};

/// Parallel release of a batch of streaming accumulators: out[i] ==
/// streams[i]->Finalize(). Each StreamingSketcher carries its own noise
/// seed fixed at creation, so this is deterministic for any pool size.
/// `pool` may be null (serial); chunks are sized by
/// BatchSketcher::ResolveGrain. Null stream pointers are rejected.
Result<std::vector<PrivateSketch>> BatchFinalize(
    const std::vector<const StreamingSketcher*>& streams,
    ThreadPool* pool = nullptr);

}  // namespace dpjl

#endif  // DPJL_CORE_BATCH_SKETCHER_H_
