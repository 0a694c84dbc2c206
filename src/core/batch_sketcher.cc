#include "src/core/batch_sketcher.h"

#include <algorithm>

#include "src/jl/transform.h"

namespace dpjl {

BatchSketcher::BatchSketcher(const PrivateSketcher* sketcher, ThreadPool* pool)
    : sketcher_(sketcher), pool_(pool) {}

int64_t BatchSketcher::ResolveGrain(int64_t batch_size, int threads) {
  if (threads < 1) threads = 1;
  if (batch_size <= 0) return kSketchBlockWidth;
  // ~4 chunks per thread balances load without shrinking chunks to the
  // one-item tasks the old grain=1 default degenerated to.
  const int64_t target_chunks = static_cast<int64_t>(threads) * 4;
  const int64_t raw = (batch_size + target_chunks - 1) / target_chunks;
  const int64_t aligned =
      ((raw + kSketchBlockWidth - 1) / kSketchBlockWidth) * kSketchBlockWidth;
  return std::max<int64_t>(aligned, kSketchBlockWidth);
}

Result<std::vector<PrivateSketch>> BatchSketcher::BatchSketch(
    const std::vector<std::vector<double>>& xs,
    uint64_t base_noise_seed) const {
  const int64_t n = static_cast<int64_t>(xs.size());
  // Validate up front: Sketch() aborts on dimension mismatch, and a partial
  // parallel batch would be wasted work anyway.
  for (int64_t i = 0; i < n; ++i) {
    if (static_cast<int64_t>(xs[i].size()) != sketcher_->input_dim()) {
      return Status::InvalidArgument(
          "batch item " + std::to_string(i) + " has dimension " +
          std::to_string(xs[i].size()) + ", sketcher expects " +
          std::to_string(sketcher_->input_dim()));
    }
  }
  const int64_t grain =
      ResolveGrain(n, pool_ != nullptr ? pool_->num_threads() : 1);
  std::vector<PrivateSketch> out(static_cast<size_t>(n));
  ThreadPool::Run(pool_, 0, n, grain, [&](int64_t begin, int64_t end) {
    // One matrix-form call per chunk: the transform rides micro-blocks of
    // kSketchBlockWidth items while each item keeps its contract seed.
    std::vector<uint64_t> seeds(static_cast<size_t>(end - begin));
    for (int64_t i = begin; i < end; ++i) {
      seeds[static_cast<size_t>(i - begin)] =
          BatchItemNoiseSeed(base_noise_seed, i);
    }
    sketcher_->SketchBlock(xs.data() + begin, end - begin, seeds.data(),
                           out.data() + begin);
  });
  return out;
}

Result<std::vector<PrivateSketch>> BatchSketcher::BatchSketchSparse(
    const std::vector<SparseVector>& xs, uint64_t base_noise_seed) const {
  const int64_t n = static_cast<int64_t>(xs.size());
  for (int64_t i = 0; i < n; ++i) {
    if (xs[static_cast<size_t>(i)].dim() != sketcher_->input_dim()) {
      return Status::InvalidArgument(
          "batch item " + std::to_string(i) + " has dimension " +
          std::to_string(xs[static_cast<size_t>(i)].dim()) +
          ", sketcher expects " + std::to_string(sketcher_->input_dim()));
    }
  }
  const int64_t grain =
      ResolveGrain(n, pool_ != nullptr ? pool_->num_threads() : 1);
  std::vector<PrivateSketch> out(static_cast<size_t>(n));
  ThreadPool::Run(pool_, 0, n, grain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      out[static_cast<size_t>(i)] =
          sketcher_->SketchSparse(xs[static_cast<size_t>(i)],
                                  BatchItemNoiseSeed(base_noise_seed, i));
    }
  });
  return out;
}

Result<std::vector<PrivateSketch>> BatchFinalize(
    const std::vector<const StreamingSketcher*>& streams, ThreadPool* pool) {
  const int64_t n = static_cast<int64_t>(streams.size());
  for (int64_t i = 0; i < n; ++i) {
    if (streams[static_cast<size_t>(i)] == nullptr) {
      return Status::InvalidArgument("batch stream " + std::to_string(i) +
                                     " is null");
    }
  }
  const int64_t grain = BatchSketcher::ResolveGrain(
      n, pool != nullptr ? pool->num_threads() : 1);
  std::vector<PrivateSketch> out(static_cast<size_t>(n));
  ThreadPool::Run(pool, 0, n, grain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      out[static_cast<size_t>(i)] = streams[static_cast<size_t>(i)]->Finalize();
    }
  });
  return out;
}

}  // namespace dpjl
