#ifndef DPJL_CORE_ENGINE_H_
#define DPJL_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>  // std::once_flag; mutexes themselves are the annotated wrappers
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/annotated_mutex.h"
#include "src/common/request_queue.h"
#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/core/batch_sketcher.h"
#include "src/core/sketch_index.h"
#include "src/core/sketcher.h"
#include "src/linalg/sparse_vector.h"

namespace dpjl {

/// Everything an Engine needs, in one struct: the sketcher construction,
/// the threading layout, and the serving policy. This is the one
/// config path shared by dpjl_tool, the examples and the tests — `Parse`
/// consumes the CLI's `--key value` flag map and `ToString` emits the
/// canonical flag form. All four of Parse, ToString, Validate and
/// EngineFlagsUsage() walk one flag table, where flag names and domains live.
struct EngineOptions {
  /// Sketch construction (projection family, quality, privacy budget,
  /// public projection seed).
  SketcherConfig sketcher;

  /// ThreadPool size for batch sketching and block-parallel queries:
  /// 0 = hardware concurrency, 1 = fully serial (no pool at all).
  int threads = 1;

  /// Threads draining the async request queue. Each can independently run
  /// block-parallel queries on the shared pool.
  int serving_threads = 2;

  /// Bound on queued (admitted but not yet served) async requests; beyond
  /// it Submit* fails fast with kResourceExhausted.
  int64_t queue_capacity = 256;

  /// Per-tenant bound on queued + in-flight async requests (admission
  /// refuses over-quota submissions with kResourceExhausted); 0 means
  /// unlimited. Applies only to requests submitted with a non-empty
  /// RequestOptions::tenant.
  int64_t tenant_quota = 0;

  /// Per-tenant admission *rate* limit in requests per second, enforced by
  /// a token bucket with a one-second burst; over-rate submissions are
  /// refused with kResourceExhausted. 0 means unmetered. Applies only to
  /// requests submitted with a non-empty RequestOptions::tenant. The quota
  /// above bounds concurrency; this bounds throughput — the two are
  /// independent.
  int64_t tenant_rate = 0;

  /// Default per-request deadline in milliseconds for Submit* calls that
  /// do not pass their own; 0 means no deadline.
  int64_t default_deadline_ms = 0;

  /// Anti-starvation knob: a queued batch or best-effort request older
  /// than this many milliseconds is promoted one lane at pop time (see
  /// RequestQueue). 0 (the default) keeps strict priority, under which a
  /// sustained interactive load starves the lower lanes indefinitely.
  int64_t starvation_age_ms = 0;

  /// Parses the engine flags out of a `--key value` flag map (the form
  /// dpjl_tool already builds). A key that is neither an engine flag
  /// nor listed in `passthrough` is an error (catching typos like
  /// --epsilno); callers that keep their own flags in the same map (e.g.
  /// dpjl_tool's --input) declare them via `passthrough`. Engine flags
  /// with malformed or out-of-domain values are errors.
  static Result<EngineOptions> Parse(
      const std::map<std::string, std::string>& flags,
      const std::vector<std::string>& passthrough = {});

  /// Canonical `--key=value` rendering of every recognized key; feeding it
  /// back through Parse reproduces the options.
  std::string ToString() const;

  /// Checks that every field lies in the domain its flag parses (integers
  /// in their [min, max], finite doubles, named enum values), with Parse's
  /// message; PrivateSketcher::Create checks the sketcher's doubles further.
  Status Validate() const;
};

/// One usage line per engine flag, "  --<name> <value> (<hint>)\n", where
/// <value> is N in [min, max], X, SEED or the enum's names.
std::string EngineFlagsUsage();

/// The strict value parsers behind EngineOptions::Parse, shared with the
/// CLI's own numeric flags so every flag fails the same way. Each accepts
/// only a complete decimal token (no leading whitespace or '+', no hex, no
/// trailing characters, no overflow; for doubles no inf or nan) and
/// reports a malformed `raw` as kInvalidArgument "--<key> expects ...".
Result<double> ParseDoubleFlag(const std::string& key, const std::string& raw);
/// As ParseDoubleFlag for an integer in [min, max].
Result<int64_t> ParseIntFlag(const std::string& key, const std::string& raw,
                             int64_t min, int64_t max);
/// As ParseDoubleFlag for a non-negative 64-bit seed.
Result<uint64_t> ParseSeedFlag(const std::string& key, const std::string& raw);

namespace internal {

/// Shared slot an async request fulfills exactly once and its EngineFuture
/// waits on.
template <typename T>
struct FutureState {
  Mutex mutex;
  CondVar ready;
  std::optional<Result<T>> result GUARDED_BY(mutex);
  /// Raised by EngineFuture::Cancel; observed through a CancelToken by the
  /// in-flight computation.
  std::atomic<bool> cancel_requested{false};

  void Set(Result<T> value) {
    {
      MutexLock lock(mutex);
      result.emplace(std::move(value));
    }
    ready.NotifyAll();
  }
};

}  // namespace internal

/// Future-like handle returned by Engine::Submit*. Copyable; all copies
/// observe the same result. The result is a Result<T>: the computed value,
/// or the status the request failed with (`kDeadlineExceeded` when it
/// expired in the queue, `kResourceExhausted` when it was refused at
/// admission, `kCancelled` when Cancel() won, or the underlying
/// operation's own error).
///
/// `[[nodiscard]]`: dropping the future a Submit* returned means the
/// request's outcome (including its failure) can never be observed.
template <typename T>
class [[nodiscard]] EngineFuture {
 public:
  EngineFuture() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the result is available; never blocks.
  bool Ready() const {
    DPJL_CHECK(valid(), "EngineFuture is default-constructed");
    MutexLock lock(state_->mutex);
    return state_->result.has_value();
  }

  /// Blocks until the result is available and returns it.
  Result<T> Get() const {
    DPJL_CHECK(valid(), "EngineFuture is default-constructed");
    MutexLock lock(state_->mutex);
    while (!state_->result.has_value()) state_->ready.Wait(state_->mutex);
    return *state_->result;
  }

  /// Cancels the request if it is still queued: the future resolves with
  /// `kCancelled` in O(1), the request never occupies a serving lane, and
  /// true is returned. Returns false when the request already left the
  /// queue (served, expired, refused at admission) or the engine is gone —
  /// a cancel/serve race resolves to exactly one outcome. Even on false,
  /// the cooperative cancellation flag is raised first, so a request that
  /// is already mid-computation unwinds with `kCancelled` at its next
  /// scan unit instead of running to completion (see CancelToken). Safe from any thread, and safe after the engine's
  /// destruction.
  bool Cancel() {
    DPJL_CHECK(valid(), "EngineFuture is default-constructed");
    state_->cancel_requested.store(true, std::memory_order_relaxed);
    if (ticket_ == RequestQueue::kNoTicket) return false;
    const std::shared_ptr<RequestQueue> queue = queue_.lock();
    return queue != nullptr && queue->Cancel(ticket_);
  }

 private:
  friend class Engine;
  explicit EngineFuture(std::shared_ptr<internal::FutureState<T>> state,
                        std::weak_ptr<RequestQueue> queue = {},
                        RequestQueue::Ticket ticket = RequestQueue::kNoTicket)
      : state_(std::move(state)), queue_(std::move(queue)), ticket_(ticket) {}

  std::shared_ptr<internal::FutureState<T>> state_;
  std::weak_ptr<RequestQueue> queue_;
  RequestQueue::Ticket ticket_ = RequestQueue::kNoTicket;
};

/// Snapshot of the serving layer's observable state: per-lane scheduler
/// counters, the total deadline-miss count, per-tenant usage, and the
/// index size. Obtained from Engine::Stats(); internally consistent,
/// advisory under concurrency.
struct EngineStats {
  RequestQueue::Stats queue;
  int64_t index_size = 0;

  const RequestQueue::LaneStats& lane(Priority priority) const {
    return queue.lane(priority);
  }

  /// Stable multi-line `key<TAB>value` rendering (the dpjl_tool stats
  /// dump): one line per lane counter, deadline misses, per-tenant usage,
  /// index size.
  std::string ToString() const;

  /// Counter movement since `prev` (an earlier snapshot of the same
  /// engine): the monotonic counters (served, expired, refused, cancelled,
  /// promoted, deadline misses) are subtracted, while the point-in-time
  /// gauges (lane depth, tenant usage, index size) keep their current
  /// values. Scrapers divide the deltas by the scrape interval to obtain
  /// rates instead of re-deriving them from cumulative totals.
  EngineStats Delta(const EngineStats& prev) const;
};

/// The library's serving facade: one object owning the sketcher, batch
/// sketcher, thread pool, sketch index and request queue, replacing the
/// hand-wiring every caller previously repeated. It exposes the existing
/// synchronous calls unchanged in meaning, plus an async submission API
/// (`SubmitSketch` / `SubmitQuery` / `SubmitEstimate`) backed by a bounded
/// RequestQueue with per-request deadlines, so the index serves many
/// concurrent callers instead of one blocking query at a time.
///
/// Determinism contract (inherited from the layers below): every engine
/// query, sync or async, returns byte-identical results to the direct
/// SketchIndex/estimator call, for any `threads` and `serving_threads` —
/// the engine adds scheduling, never different math.
///
/// Thread safety: the whole public API is safe to call concurrently.
/// `Insert`/`InsertBatch` take the write side of an index lock; queries
/// take the read side, so lookups proceed concurrently with each other and
/// serialize only against mutation.
///
/// Partitioned serving: AttachPartition adopts an independently built
/// SketchIndex (typically a deserialized partition snapshot, see
/// SketchIndex::ExportPartitions) as a read-only member of the served
/// corpus. A query runs one scan plan over the engine-owned index and
/// every attached partition — a flat list of (segment, block range) units
/// — and merges the units' partial results once by the deterministic
/// (distance, id) order, so results are byte-identical to querying one
/// merged index — at any partition count or thread count.
/// Attach/Detach take the same write lock Insert does; in-flight queries
/// always see a consistent partition set.
class Engine {
 public:
  /// Deadline sentinels, re-exported from RequestOptions (see there for
  /// why the default sentinel is INT64_MIN rather than -1).
  static constexpr int64_t kDefaultDeadline = RequestOptions::kDefaultDeadline;
  /// No deadline for this request (also the meaning of
  /// default_deadline_ms == 0).
  static constexpr int64_t kNoDeadline = RequestOptions::kNoDeadline;

  /// Full engine: validates `options`, builds the sketcher for input
  /// dimension `d`, the pool, the index and the serving threads.
  static Result<std::unique_ptr<Engine>> Create(int64_t d,
                                                const EngineOptions& options);

  /// Serving-only engine over an existing (e.g. deserialized) index: no
  /// sketcher is built, so Sketch/SketchBatch/SubmitSketch fail with
  /// kFailedPrecondition, while every query path works. This is the shape
  /// dpjl_tool's query command uses — it holds released sketches only.
  static Result<std::unique_ptr<Engine>> FromIndex(SketchIndex index,
                                                   const EngineOptions& options);

  /// Closes the queue and joins the serving threads after they drain the
  /// accepted requests — every returned future is fulfilled.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineOptions& options() const { return options_; }
  bool has_sketcher() const { return sketcher_.has_value(); }
  /// Aborts if this is a serving-only engine (see FromIndex).
  const PrivateSketcher& sketcher() const;
  /// Resolved pool parallelism (1 when running serial).
  int query_threads() const { return pool_ ? pool_->num_threads() : 1; }

  // --- synchronous API (same semantics as the underlying components) ---

  /// See PrivateSketcher::Sketch / SketchSparse. Aborts on a serving-only
  /// engine.
  PrivateSketch Sketch(const std::vector<double>& x, uint64_t noise_seed) const;
  PrivateSketch SketchSparse(const SparseVector& x, uint64_t noise_seed) const;

  /// See BatchSketcher::BatchSketch: item i uses
  /// BatchItemNoiseSeed(base_noise_seed, i), bit-identical at any thread
  /// count.
  Result<std::vector<PrivateSketch>> SketchBatch(
      const std::vector<std::vector<double>>& xs,
      uint64_t base_noise_seed) const;

  /// Inserts into the owned index (exclusive; concurrent queries wait).
  Status Insert(std::string id, const PrivateSketch& sketch);

  /// Bulk insertion via SketchIndex::AddBatch: one compatibility check and
  /// one write-lock acquisition for the whole batch, all-or-nothing.
  Status InsertBatch(std::vector<std::pair<std::string, PrivateSketch>> items);

  /// Convenience: sketch then insert. Aborts on a serving-only engine.
  Status InsertVector(std::string id, const std::vector<double>& x,
                      uint64_t noise_seed);

  /// Total served corpus size: the engine-owned index plus every attached
  /// partition.
  int64_t index_size() const;
  /// Ids of the served corpus: the engine-owned index's insertion order,
  /// then each attached partition's insertion order in attach order
  /// (copied under the read lock).
  std::vector<std::string> ids() const;
  /// Snapshot of the engine-OWNED index only; attached partitions are
  /// serialized by whoever built them (they are read-only here).
  [[nodiscard]] std::string SerializeIndex() const;

  // --- partitioned serving ---

  /// Adopts `partition` as a read-only member of the served corpus and
  /// returns its detach handle. Fails with kFailedPrecondition when the
  /// partition's compatibility fingerprint differs from the corpus's, and
  /// with kInvalidArgument when any of its ids is already served. An empty
  /// partition attaches trivially. Exclusive with queries (write lock).
  Result<int64_t> AttachPartition(SketchIndex partition);

  /// Removes a previously attached partition; kNotFound for a handle that
  /// was never issued or is already detached (the owned index is never
  /// detached).
  Status DetachPartition(int64_t handle);

  /// Number of currently attached partitions.
  int64_t num_partitions() const;

  Result<std::vector<SketchIndex::Neighbor>> NearestNeighbors(
      const PrivateSketch& query, int64_t top_n) const;
  Result<std::vector<SketchIndex::Neighbor>> RangeQuery(
      const PrivateSketch& query, double radius_sq) const;
  Result<SketchIndex::DistanceMatrix> AllPairsDistances() const;
  Result<double> SquaredDistance(const std::string& id_a,
                                 const std::string& id_b) const;

  /// Copy of the stored sketch for `id`, wherever it lives (owned index or
  /// any attached partition); kNotFound if absent. The distributed tier's
  /// point-lookup hook: a sketch fetched from one serving process can be
  /// compared against a sketch fetched from another via
  /// EstimateSquaredDistance, which is how the router answers
  /// cross-shard distance queries.
  Result<PrivateSketch> GetSketch(const std::string& id) const;

  // --- asynchronous API ---
  //
  // Each Submit* enqueues the request and returns immediately. Every one
  // takes an optional `RequestOptions` (priority lane, tenant, deadline
  // budget); omitting it means the default lane, no tenant and
  // options().default_deadline_ms.
  //
  // `RequestOptions::deadline_ms` is this request's budget from
  // submission: > 0 sets a deadline, kNoDeadline (0) disables it,
  // kDefaultDeadline (INT64_MIN) uses options().default_deadline_ms, and
  // any other negative value means the caller's budget is already
  // exhausted — the request is admitted but fails with kDeadlineExceeded
  // (so budget-propagating callers can pass `total - elapsed` verbatim).
  //
  // Outcomes: a request whose deadline passes while queued fails with
  // kDeadlineExceeded without occupying a serving thread; a full queue —
  // or a tenant at its quota — refuses admission with kResourceExhausted
  // (the returned future is already Ready); Cancel() on a still-queued
  // request resolves it with kCancelled. Lanes drain in strict priority
  // order (kInteractive before kBatch before kBestEffort, FIFO within a
  // lane), so a bulk backfill submitted at kBatch can never starve
  // interactive queries.

  EngineFuture<PrivateSketch> SubmitSketch(std::vector<double> x,
                                           uint64_t noise_seed,
                                           const RequestOptions& request = {});

  EngineFuture<std::vector<SketchIndex::Neighbor>> SubmitQuery(
      PrivateSketch query, int64_t top_n, const RequestOptions& request = {});

  /// Async RangeQuery under the same lane/deadline/cancellation semantics
  /// as SubmitQuery — the overload the wire server drains range RPCs
  /// through.
  EngineFuture<std::vector<SketchIndex::Neighbor>> SubmitRangeQuery(
      PrivateSketch query, double radius_sq,
      const RequestOptions& request = {});

  /// Many probes, one admission: the batch occupies a single queue slot
  /// (one quota unit, one queue hop) and, once popped, runs one scan plan
  /// over the whole served corpus (SketchIndex::NearestNeighborsAcross):
  /// probes are scored kScanTileProbes at a time, each tile one multi-probe
  /// pass over every (segment, block range) unit, so a block streams from
  /// memory once per tile instead of once per probe. result[i] is
  /// byte-identical to `SubmitQuery(queries[i], top_n)` at any thread
  /// count and partition layout. top_n < 1 fails with kInvalidArgument,
  /// even for an empty batch; otherwise the status is the one the
  /// lowest-index failing probe's SubmitQuery returns (kFailedPrecondition
  /// for an incompatible probe). A cancel observed by any unit yields
  /// kCancelled, never a partial result.
  EngineFuture<std::vector<std::vector<SketchIndex::Neighbor>>>
  SubmitQueryBatch(std::vector<PrivateSketch> queries, int64_t top_n,
                   const RequestOptions& request = {});

  /// Squared-distance estimate between two stored ids (kNotFound if absent).
  EngineFuture<double> SubmitEstimate(std::string id_a, std::string id_b,
                                      const RequestOptions& request = {});

  /// Runs an arbitrary task on a serving thread under the same deadline and
  /// admission semantics; the future resolves to true on OK. Escape hatch
  /// for work that should share the serving lanes (snapshots, warmup) and
  /// the lever the concurrency tests use to hold a lane deterministically.
  EngineFuture<bool> SubmitTask(std::function<Status()> task,
                                const RequestOptions& request = {});

  /// Cancellation-aware SubmitTask: the task receives the future's
  /// CancelToken and is expected to poll it, returning `kCancelled` when it
  /// observes a raised flag. The deterministic lever the cancellation tests
  /// use, and the shape for any long caller-supplied work.
  EngineFuture<bool> SubmitTask(std::function<Status(const CancelToken&)> task,
                                const RequestOptions& request = {});

  /// Observability snapshot: per-lane depth/served/expired/refused/
  /// cancelled counters, total deadline misses, per-tenant usage, index
  /// size. Cheap (one lock, no allocation proportional to traffic).
  EngineStats Stats() const;

  /// Blocks until the async backlog is fully drained — nothing queued and
  /// every popped request's bookkeeping (tenant-slot release) finished —
  /// so a Stats() taken afterwards shows the quiesced state. Concurrent
  /// submitters extend the wait; never call from inside a submitted task.
  void WaitIdle() const;

 private:
  Engine(EngineOptions options, std::optional<PrivateSketcher> sketcher,
         SketchIndex index);

  RequestQueue::Clock::time_point DeadlineFor(int64_t deadline_ms) const;

  /// The served corpus in scan order, as the segment list the
  /// SketchIndex::*Across scans take.
  std::vector<const SketchIndex*> SegmentsLocked() const
      REQUIRES_SHARED(index_mutex_);

  /// Copy of the sketch for `id` from the first segment holding it.
  std::optional<PrivateSketch> FindLocked(const std::string& id) const
      REQUIRES_SHARED(index_mutex_);

  /// CompatibilityFingerprint of the served corpus (0 when empty).
  uint64_t CorpusFingerprintLocked() const REQUIRES_SHARED(index_mutex_);

  /// Uniqueness + compatibility admission check for a new insert when
  /// partitions are attached (the owned index can only vouch for itself).
  /// `corpus_fingerprint` is CorpusFingerprintLocked(), hoisted by the
  /// caller so batch inserts validate against it once per item, not
  /// recompute it.
  Status CheckInsertLocked(const std::string& id,
                           const SketchMetadata& metadata,
                           uint64_t corpus_fingerprint) const
      REQUIRES_SHARED(index_mutex_);

  /// Shared Submit plumbing: wraps `compute` in a queue request that
  /// fulfills `state` with either the computed result or the queue's
  /// failure status.
  /// Spawns the serving threads on the first async submission (sync-only
  /// users — most CLI runs — never pay for idle lanes). Thread-safe.
  void EnsureServing();

  template <typename T>
  EngineFuture<T> Submit(std::function<Result<T>(const CancelToken&)> compute,
                         const RequestOptions& options) {
    EnsureServing();
    auto state = std::make_shared<internal::FutureState<T>>();
    RequestQueue::Request request;
    request.deadline = DeadlineFor(options.deadline_ms);
    request.priority = options.priority;
    request.tenant = options.tenant;
    request.handler = [state, compute = std::move(compute)](const Status& admitted) {
      // The token points into the shared state this handler keeps alive,
      // so polling it from inside the compute is always safe.
      state->Set(admitted.ok() ? compute(CancelToken(&state->cancel_requested))
                               : Result<T>(admitted));
    };
    const Result<RequestQueue::Ticket> pushed =
        queue_->TryPush(std::move(request));
    if (!pushed.ok()) {
      state->Set(pushed.status());
      return EngineFuture<T>(std::move(state));
    }
    return EngineFuture<T>(std::move(state), queue_, *pushed);
  }

  const EngineOptions options_;
  std::optional<PrivateSketcher> sketcher_;
  std::unique_ptr<ThreadPool> pool_;
  std::optional<BatchSketcher> batcher_;

  /// Handle of segment 0, which no AttachPartition ever returns.
  static constexpr int64_t kOwnedSegment = 0;

  mutable SharedMutex index_mutex_;
  /// The served corpus, in scan order, with detach handles: segment 0 is
  /// the owned index (Insert/SerializeIndex target, never detached), then
  /// the attached read-only partitions in attach order.
  std::vector<std::pair<int64_t, SketchIndex>> segments_
      GUARDED_BY(index_mutex_);
  int64_t next_partition_handle_ GUARDED_BY(index_mutex_) = kOwnedSegment + 1;

  /// shared_ptr so futures can hold a weak reference for Cancel() that
  /// outlives the engine safely.
  std::shared_ptr<RequestQueue> queue_;
  std::once_flag servers_started_;
  std::vector<std::thread> servers_;
};

}  // namespace dpjl

#endif  // DPJL_CORE_ENGINE_H_
