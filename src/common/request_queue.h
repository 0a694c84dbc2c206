#ifndef DPJL_COMMON_REQUEST_QUEUE_H_
#define DPJL_COMMON_REQUEST_QUEUE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>

#include "src/common/annotated_mutex.h"
#include "src/common/enum_names.h"
#include "src/common/result.h"
#include "src/common/status.h"

namespace dpjl {

/// Priority class of a queued request. Lanes are served in strict priority
/// order: a pending interactive request is always popped before any batch
/// one, and batch before best-effort. Within a lane, FIFO.
enum class Priority : int {
  kInteractive = 0,
  kBatch = 1,
  kBestEffort = 2,
};

/// Number of priority lanes (the Priority enum is dense over [0, this)).
inline constexpr int kNumPriorityLanes = 3;

/// The `--priority` spelling of each lane.
inline constexpr EnumName<Priority> kPriorityNames[] = {
    {Priority::kInteractive, "interactive"},
    {Priority::kBatch, "batch"},
    {Priority::kBestEffort, "best-effort"},
};

/// Canonical lowercase name ("interactive" / "batch" / "best-effort").
std::string_view PriorityName(Priority priority);

/// Parses a PriorityName rendering back into the enum.
Result<Priority> ParsePriority(const std::string& raw);

/// Typed per-request submission options — the request model every
/// Engine::Submit* overload accepts. Defaults reproduce the pre-lane
/// behavior exactly: one interactive FIFO lane, no tenant metering, the
/// engine-wide default deadline.
struct RequestOptions {
  /// Use the serving layer's configured default deadline. Deliberately
  /// INT64_MIN rather than -1 so that a budget-propagating caller's
  /// `total - elapsed` arithmetic can never collide with the sentinel:
  /// every plausibly computed negative budget is "expired on arrival".
  static constexpr int64_t kDefaultDeadline =
      std::numeric_limits<int64_t>::min();
  /// No deadline for this request.
  static constexpr int64_t kNoDeadline = 0;

  Priority priority = Priority::kInteractive;

  /// Quota accounting key. Empty means unmetered; a non-empty tenant is
  /// subject to the queue's per-tenant quota (queued + in-flight).
  std::string tenant;

  /// Deadline budget in milliseconds from submission: > 0 sets a deadline,
  /// kNoDeadline (0) disables it, kDefaultDeadline uses the configured
  /// default, and any other negative value is "already expired on arrival".
  int64_t deadline_ms = kDefaultDeadline;
};

/// A bounded multi-producer/multi-consumer multi-lane scheduler of
/// deadline-carrying requests — the admission-control primitive under the
/// async serving facade (`dpjl::Engine`). It deliberately knows nothing
/// about sketches: a request is a completion handler plus scheduling
/// metadata (deadline, priority lane, tenant).
///
/// Semantics:
///  - `TryPush` never blocks. It refuses the request with
///    `kResourceExhausted` when the queue is at capacity (admission
///    control: shed load at the door instead of growing an unbounded
///    backlog) or when the request's tenant is at its quota of
///    queued + in-flight requests (so one tenant's backfill cannot starve
///    the others), and with `kFailedPrecondition` when the queue is
///    closed. On refusal the handler is NOT invoked; the caller owns
///    failure delivery. On success it returns a monotonic `Ticket`
///    identifying the request for `Cancel`.
///  - `ServeOne` blocks for the next request, chosen by strict priority
///    across lanes (FIFO within a lane), and invokes its handler exactly
///    once: with OK when the request is popped before its deadline, with
///    `kDeadlineExceeded` when the deadline passed while it sat in the
///    queue. Expired requests therefore fail in O(1) without occupying a
///    serving thread, so they cannot stall the requests behind them.
///  - Anti-starvation (optional): with a non-zero `starvation_age`, a
///    request that has waited in the batch or best-effort lane at least
///    that long is promoted one lane at pop time (to the tail of the
///    higher lane, preserving FIFO among promotions). Strict priority
///    then becomes a bounded-delay guarantee instead of indefinite
///    starvation: sustained interactive load can delay batch work by at
///    most ~starvation_age per lane hop. Promotions are counted per
///    source lane in `LaneStats::promoted`.
///  - `Cancel` resolves a still-queued request with `kCancelled` in O(1)
///    (amortized; hash-map erase) without it ever occupying a serving
///    thread. Returns false if the ticket was already popped, cancelled,
///    or never issued — cancellation races resolve to exactly one of
///    "served" or "cancelled", never both and never neither.
///  - `Close` stops admissions; serving threads drain the remaining
///    accepted requests and then see `ServeOne` return false (graceful
///    drain — accepted work is completed, not dropped).
///
/// Thread safety: all methods are safe to call concurrently. Handlers run
/// on the thread that resolved them (the serving thread for pops, the
/// cancelling thread for `Cancel`) and must not call back into the
/// queue's destructor.
class RequestQueue {
 public:
  using Clock = std::chrono::steady_clock;

  /// Identifies an admitted request; strictly increasing per queue.
  using Ticket = uint64_t;
  /// Never issued by TryPush — the "no request to cancel" sentinel.
  static constexpr Ticket kNoTicket = 0;

  /// No-deadline sentinel: a time_point that never expires.
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  /// One queued unit of work. `handler` receives OK to run the work now,
  /// or a non-OK status (`kDeadlineExceeded`, `kCancelled`, or
  /// `kFailedPrecondition` if the queue is destroyed unserved) to fail the
  /// caller's promise.
  struct Request {
    Clock::time_point deadline = kNoDeadline;
    Priority priority = Priority::kInteractive;
    std::string tenant;
    std::function<void(const Status&)> handler;
    /// Admission time, stamped by TryPush; the anti-starvation clock.
    Clock::time_point enqueued = Clock::time_point();
  };

  /// Monotonic per-lane counters plus the current backlog.
  struct LaneStats {
    int64_t depth = 0;      ///< queued (admitted, not yet popped/cancelled)
    int64_t served = 0;     ///< popped before their deadline, handler ran OK
    int64_t expired = 0;    ///< popped after their deadline (kDeadlineExceeded)
    int64_t refused = 0;    ///< refused at admission (capacity or quota)
    int64_t cancelled = 0;  ///< resolved by Cancel (kCancelled)
    int64_t promoted = 0;   ///< aged out of this lane into the next higher one
  };

  /// Consistent snapshot of the scheduler's counters.
  struct Stats {
    std::array<LaneStats, kNumPriorityLanes> lanes;
    /// Total requests whose deadline passed while queued (sum of the
    /// per-lane `expired` counters).
    int64_t deadline_misses = 0;
    /// Per-tenant queued + in-flight usage right now; tenants at zero are
    /// omitted. Ordered map so renderings are deterministic.
    std::map<std::string, int64_t> tenant_usage;

    const LaneStats& lane(Priority priority) const {
      return lanes[static_cast<size_t>(priority)];
    }
  };

  /// `capacity` below 1 is clamped to 1. `tenant_quota` bounds each
  /// non-empty tenant's queued + in-flight requests; 0 means unlimited.
  /// `starvation_age` of zero (the default) disables aged-lane promotion;
  /// negative values are treated as zero. `tenant_rate` bounds each
  /// non-empty tenant's admission *rate* in requests per second via a
  /// token bucket (burst capacity of one second's worth of tokens, i.e.
  /// `tenant_rate` requests); 0 means unmetered. Quota bounds concurrency,
  /// rate bounds throughput — a tenant can be refused by either
  /// independently, both with `kResourceExhausted`.
  explicit RequestQueue(int64_t capacity, int64_t tenant_quota = 0,
                        Clock::duration starvation_age = Clock::duration::zero(),
                        int64_t tenant_rate = 0);

  /// Closes the queue and fails any still-unserved requests with
  /// `kFailedPrecondition` (normal shutdown drains via ServeOne first).
  ~RequestQueue();

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Admits `request` and returns its ticket, or refuses it without side
  /// effects (see above). `request.handler` must be non-null.
  Result<Ticket> TryPush(Request request) EXCLUDES(mutex_);

  /// Serves one request (see above). Returns false when the queue is
  /// closed and drained — the serving-thread exit signal.
  bool ServeOne() EXCLUDES(mutex_);

  /// Cancels a still-queued request: its handler runs with `kCancelled`
  /// on this thread and true is returned. Returns false when the ticket
  /// is unknown, already popped, or already cancelled.
  bool Cancel(Ticket ticket) EXCLUDES(mutex_);

  /// Stops admissions and wakes all blocked ServeOne callers.
  void Close() EXCLUDES(mutex_);

  /// Blocks until the queue is idle: nothing queued and nothing in flight
  /// (every popped handler has returned and released its tenant slot), so
  /// a GetStats() taken afterwards shows the quiesced state. Returns
  /// immediately on an idle queue. Producers submitting concurrently
  /// extend the wait; never call this from inside a request handler (the
  /// handler is what the wait is waiting on).
  void WaitIdle() const EXCLUDES(mutex_);

  int64_t capacity() const { return capacity_; }
  int64_t tenant_quota() const { return tenant_quota_; }
  int64_t tenant_rate() const { return tenant_rate_; }

  /// Number of queued (not yet popped) requests; advisory under concurrency.
  int64_t size() const EXCLUDES(mutex_);

  /// Counter snapshot; internally consistent, advisory under concurrency.
  Stats GetStats() const EXCLUDES(mutex_);

 private:
  /// Pops the next live ticket by strict lane priority. Caller must hold
  /// `mutex_` and guarantee at least one pending request exists.
  Request PopLockedAndCount(Clock::time_point now, bool* expired)
      REQUIRES(mutex_);

  /// Moves every front-of-lane request older than `starvation_age_` one
  /// lane up (FIFO within a lane means the front is the oldest live entry,
  /// so scanning fronts suffices). Caller must hold `mutex_`; no-op when
  /// promotion is disabled.
  void PromoteAgedLocked(Clock::time_point now) REQUIRES(mutex_);

  /// Decrements `tenant`'s usage (no-op for the empty tenant).
  void ReleaseTenantLocked(const std::string& tenant) REQUIRES(mutex_);

  /// Wakes WaitIdle() waiters when the queue just went idle. Caller must
  /// hold `mutex_`.
  void NotifyIfIdleLocked() REQUIRES(mutex_);

  /// Sweeps `lanes_[lane_index]`'s stale (cancelled) tickets once they
  /// outnumber the live ones. Each sweep removes at least half the deque,
  /// so the cost amortizes to O(1) per cancel.
  void CompactLaneLocked(size_t lane_index) REQUIRES(mutex_);

  /// One tenant's token bucket (rate limiting). Buckets are created full
  /// (one second's burst) on the tenant's first submission and refill
  /// continuously at `tenant_rate_` tokens per second, capped at the burst.
  struct TokenBucket {
    double tokens = 0;
    Clock::time_point refilled;
  };

  /// Takes one token from `tenant`'s bucket, refilling it first. Returns
  /// false (bucket empty — over rate) without side effects beyond the
  /// refill. Caller must hold `mutex_`; no-op true when rate limiting is
  /// off or `tenant` is empty.
  bool TakeTokenLocked(const std::string& tenant, Clock::time_point now)
      REQUIRES(mutex_);

  const int64_t capacity_;
  const int64_t tenant_quota_;
  const Clock::duration starvation_age_;
  const int64_t tenant_rate_;
  mutable Mutex mutex_;
  CondVar ready_;
  mutable CondVar idle_;
  /// Admitted-but-unresolved requests, keyed by ticket. Lanes hold tickets
  /// only; a ticket missing from this map is stale (cancelled) and popped
  /// lazily, which is what makes Cancel O(1). A lane whose stale tickets
  /// outnumber its live ones is compacted on the spot (amortized O(1) per
  /// cancel), so cancel-heavy callers cannot grow a lane without bound.
  std::unordered_map<Ticket, Request> pending_ GUARDED_BY(mutex_);
  std::array<std::deque<Ticket>, kNumPriorityLanes> lanes_ GUARDED_BY(mutex_);
  std::array<int64_t, kNumPriorityLanes> stale_ GUARDED_BY(mutex_) = {};
  std::array<LaneStats, kNumPriorityLanes> stats_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, int64_t> tenant_usage_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, TokenBucket> tenant_buckets_
      GUARDED_BY(mutex_);
  /// Requests popped whose handler has not yet returned.
  int64_t in_flight_ GUARDED_BY(mutex_) = 0;
  Ticket next_ticket_ GUARDED_BY(mutex_) = 1;
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace dpjl

#endif  // DPJL_COMMON_REQUEST_QUEUE_H_
