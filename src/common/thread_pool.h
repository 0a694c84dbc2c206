#ifndef DPJL_COMMON_THREAD_POOL_H_
#define DPJL_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/annotated_mutex.h"

namespace dpjl {

/// Cooperative cancellation handle threaded through long-running
/// computations. `Cancelled()` turning true is a request, not a guarantee:
/// the computation polls it at its natural boundaries (a scan polls it
/// before every (segment, block range) unit) and unwinds with `kCancelled`
/// at the next one. A default-constructed token never cancels. Trivially
/// copyable; the referenced flag must outlive the computation (the engine
/// stores it in the future's shared state, which the in-flight request
/// handler keeps alive).
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(const std::atomic<bool>* flag) : flag_(flag) {}

  bool Cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  const std::atomic<bool>* flag_ = nullptr;
};

/// A small fixed-size thread pool built around one primitive:
/// `ParallelFor(begin, end, grain, fn)`. There is no work stealing and no
/// futures — chunks of the index range are pushed onto a shared queue,
/// workers (plus the calling thread) drain it, and the call blocks until
/// every chunk has run.
///
/// Determinism contract: ParallelFor partitions [begin, end) into fixed
/// consecutive chunks that depend only on (begin, end, grain) — never on
/// the thread count or scheduling. Callers that write results into
/// per-index slots therefore produce bit-identical output for any pool
/// size, which is what the batch sketching layer relies on.
///
/// Thread safety: all public methods are safe to call concurrently from
/// multiple threads. `fn` must itself be safe to invoke concurrently on
/// disjoint chunks. Do not call ParallelFor from inside a task running on
/// this pool (no nested parallelism; it would risk deadlock by occupying a
/// worker while waiting for workers).
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` worker threads; the thread calling
  /// ParallelFor always participates as the final executor, so
  /// `ThreadPool(1)` runs everything inline on the caller with no worker
  /// threads at all. Values below 1 are clamped to 1.
  explicit ThreadPool(int num_threads);

  /// Joins all workers. Outstanding ParallelFor calls must have returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism: workers + the participating caller.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static int DefaultThreadCount();

  /// Invokes `fn(chunk_begin, chunk_end)` over consecutive chunks covering
  /// [begin, end), each chunk at most `grain` indexes (grain < 1 is
  /// clamped to 1). Blocks until all chunks have completed. Empty ranges
  /// return immediately.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// ParallelFor on `pool` when non-null, otherwise the identically-chunked
  /// serial loop on the caller — the shared dispatch for every API taking
  /// an optional pool.
  static void Run(ThreadPool* pool, int64_t begin, int64_t end, int64_t grain,
                  const std::function<void(int64_t, int64_t)>& fn);

 private:
  void WorkerLoop();
  /// Pops and runs one queued task. Returns false if the queue was empty.
  bool RunOneTask();

  Mutex mutex_;
  CondVar task_available_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;
  /// Written by the constructor only; joined by the destructor.
  std::vector<std::thread> workers_;
};

}  // namespace dpjl

#endif  // DPJL_COMMON_THREAD_POOL_H_
