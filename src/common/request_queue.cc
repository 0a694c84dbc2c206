#include "src/common/request_queue.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace dpjl {

std::string_view PriorityName(Priority priority) {
  return NameOf(kPriorityNames, priority);
}

Result<Priority> ParsePriority(const std::string& raw) {
  return ParseEnumFlag("priority", kPriorityNames, raw);
}

RequestQueue::RequestQueue(int64_t capacity, int64_t tenant_quota,
                           Clock::duration starvation_age, int64_t tenant_rate)
    : capacity_(std::max<int64_t>(1, capacity)),
      tenant_quota_(std::max<int64_t>(0, tenant_quota)),
      starvation_age_(std::max(Clock::duration::zero(), starvation_age)),
      tenant_rate_(std::max<int64_t>(0, tenant_rate)) {}

RequestQueue::~RequestQueue() {
  Close();
  // Normal shutdown drains through ServeOne before destruction; anything
  // still here would otherwise leave its caller blocked forever.
  std::unordered_map<Ticket, Request> orphans;
  {
    MutexLock lock(mutex_);
    orphans.swap(pending_);
    for (auto& lane : lanes_) lane.clear();
    tenant_usage_.clear();
  }
  for (auto& entry : orphans) {
    entry.second.handler(Status::FailedPrecondition(
        "request queue destroyed before the request was served"));
  }
}

Result<RequestQueue::Ticket> RequestQueue::TryPush(Request request) {
  DPJL_CHECK(request.handler != nullptr, "request handler must be non-null");
  const size_t lane = static_cast<size_t>(request.priority);
  DPJL_CHECK(lane < static_cast<size_t>(kNumPriorityLanes),
             "request priority out of range");
  Ticket ticket = kNoTicket;
  {
    MutexLock lock(mutex_);
    if (closed_) {
      return Status::FailedPrecondition("request queue is closed");
    }
    if (static_cast<int64_t>(pending_.size()) >= capacity_) {
      ++stats_[lane].refused;
      return Status::ResourceExhausted(
          "request queue is full (capacity " + std::to_string(capacity_) +
          "); retry later or raise queue_capacity");
    }
    if (tenant_quota_ > 0 && !request.tenant.empty()) {
      const auto usage = tenant_usage_.find(request.tenant);
      if (usage != tenant_usage_.end() && usage->second >= tenant_quota_) {
        ++stats_[lane].refused;
        return Status::ResourceExhausted(
            "tenant '" + request.tenant + "' is at its quota of " +
            std::to_string(tenant_quota_) +
            " queued+in-flight requests; retry after its work completes");
      }
    }
    const Clock::time_point now = Clock::now();
    if (!TakeTokenLocked(request.tenant, now)) {
      ++stats_[lane].refused;
      return Status::ResourceExhausted(
          "tenant '" + request.tenant + "' exceeded its rate of " +
          std::to_string(tenant_rate_) + " requests/s; retry after a backoff");
    }
    ticket = next_ticket_++;
    request.enqueued = now;
    if (!request.tenant.empty()) ++tenant_usage_[request.tenant];
    lanes_[lane].push_back(ticket);
    ++stats_[lane].depth;
    pending_.emplace(ticket, std::move(request));
  }
  ready_.NotifyOne();
  return ticket;
}

void RequestQueue::PromoteAgedLocked(Clock::time_point now) {
  if (starvation_age_ <= Clock::duration::zero()) return;
  for (size_t lane_index = 1; lane_index < lanes_.size(); ++lane_index) {
    auto& lane = lanes_[lane_index];
    while (!lane.empty()) {
      const Ticket ticket = lane.front();
      const auto it = pending_.find(ticket);
      if (it == pending_.end()) {
        lane.pop_front();
        --stale_[lane_index];  // cancelled in place; reclaimed now
        continue;
      }
      // FIFO within a lane means the front is the oldest live entry; once
      // it is young enough, everything behind it is too.
      if (now - it->second.enqueued < starvation_age_) break;
      lane.pop_front();
      // One lane up, to the tail: promotions stay FIFO among themselves
      // and never preempt requests admitted at the higher priority that
      // are already waiting. The request's own priority field moves with
      // it so cancellation, depth accounting and the eventual served/
      // expired count all land on the lane it was actually served from.
      // The age clock restarts on promotion: each hop costs up to one
      // starvation_age in its lane, and — crucially — every lane stays
      // oldest-first by `enqueued`, which is what lets this scan stop at
      // the first young front instead of walking the whole deque.
      it->second.enqueued = now;
      it->second.priority = static_cast<Priority>(static_cast<int>(lane_index) - 1);
      lanes_[lane_index - 1].push_back(ticket);
      --stats_[lane_index].depth;
      ++stats_[lane_index].promoted;
      ++stats_[lane_index - 1].depth;
    }
  }
}

RequestQueue::Request RequestQueue::PopLockedAndCount(Clock::time_point now,
                                                      bool* expired) {
  for (size_t lane_index = 0; lane_index < lanes_.size(); ++lane_index) {
    auto& lane = lanes_[lane_index];
    while (!lane.empty()) {
      const Ticket ticket = lane.front();
      lane.pop_front();
      const auto it = pending_.find(ticket);
      if (it == pending_.end()) {
        --stale_[lane_index];  // cancelled in place; reclaimed now
        continue;
      }
      Request request = std::move(it->second);
      pending_.erase(it);
      LaneStats& stats = stats_[static_cast<size_t>(request.priority)];
      --stats.depth;
      *expired = now >= request.deadline;
      ++(*expired ? stats.expired : stats.served);
      ++in_flight_;
      return request;
    }
  }
  DPJL_CHECK(false, "PopLockedAndCount called with no pending request");
  return Request{};
}

bool RequestQueue::TakeTokenLocked(const std::string& tenant,
                                   Clock::time_point now) {
  if (tenant_rate_ <= 0 || tenant.empty()) return true;
  const double burst = static_cast<double>(tenant_rate_);
  auto [it, inserted] = tenant_buckets_.try_emplace(tenant);
  TokenBucket& bucket = it->second;
  if (inserted) {
    // New tenants start with a full bucket: the first second of traffic is
    // admitted unconditionally, then the refill rate takes over.
    bucket.tokens = burst;
    bucket.refilled = now;
  } else {
    const double elapsed =
        std::chrono::duration<double>(now - bucket.refilled).count();
    bucket.tokens = std::min(burst, bucket.tokens + elapsed * burst);
    bucket.refilled = now;
  }
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

void RequestQueue::NotifyIfIdleLocked() {
  if (pending_.empty() && in_flight_ == 0) idle_.NotifyAll();
}

void RequestQueue::CompactLaneLocked(size_t lane_index) {
  auto& lane = lanes_[lane_index];
  if (stale_[lane_index] * 2 <= static_cast<int64_t>(lane.size())) return;
  std::deque<Ticket> live;
  for (const Ticket ticket : lane) {
    if (pending_.count(ticket) != 0) live.push_back(ticket);
  }
  lane.swap(live);
  stale_[lane_index] = 0;
}

void RequestQueue::ReleaseTenantLocked(const std::string& tenant) {
  if (tenant.empty()) return;
  const auto it = tenant_usage_.find(tenant);
  DPJL_CHECK(it != tenant_usage_.end() && it->second > 0,
             "tenant usage underflow");
  if (--it->second == 0) tenant_usage_.erase(it);
}

bool RequestQueue::ServeOne() {
  Request request;
  bool expired = false;
  {
    MutexLock lock(mutex_);
    while (!closed_ && pending_.empty()) ready_.Wait(mutex_);
    if (pending_.empty()) return false;  // closed and drained
    const Clock::time_point now = Clock::now();
    PromoteAgedLocked(now);
    request = PopLockedAndCount(now, &expired);
  }
  if (expired) {
    request.handler(Status::DeadlineExceeded(
        "request deadline passed while queued behind other work"));
  } else {
    request.handler(Status::OK());
  }
  // The tenant's slot is held until the work completes — the quota meters
  // in-flight requests, not just queued ones.
  {
    MutexLock lock(mutex_);
    ReleaseTenantLocked(request.tenant);
    --in_flight_;
    NotifyIfIdleLocked();
  }
  return true;
}

bool RequestQueue::Cancel(Ticket ticket) {
  Request request;
  {
    MutexLock lock(mutex_);
    const auto it = pending_.find(ticket);
    if (it == pending_.end()) return false;  // popped, cancelled, or unknown
    request = std::move(it->second);
    pending_.erase(it);  // its lane entry goes stale; pops skip it
    const size_t lane_index = static_cast<size_t>(request.priority);
    LaneStats& stats = stats_[lane_index];
    --stats.depth;
    ++stats.cancelled;
    ReleaseTenantLocked(request.tenant);
    // Keep stale tickets a minority of the lane: once they outnumber the
    // live ones, sweep them out, so a cancel-heavy caller cannot grow the
    // lane without bound while other lanes stay busy.
    ++stale_[lane_index];
    CompactLaneLocked(lane_index);
    NotifyIfIdleLocked();
  }
  request.handler(
      Status::Cancelled("request cancelled by the caller while queued"));
  return true;
}

void RequestQueue::Close() {
  {
    MutexLock lock(mutex_);
    closed_ = true;
  }
  ready_.NotifyAll();
}

void RequestQueue::WaitIdle() const {
  MutexLock lock(mutex_);
  while (!pending_.empty() || in_flight_ != 0) idle_.Wait(mutex_);
}

int64_t RequestQueue::size() const {
  MutexLock lock(mutex_);
  return static_cast<int64_t>(pending_.size());
}

RequestQueue::Stats RequestQueue::GetStats() const {
  Stats stats;
  MutexLock lock(mutex_);
  stats.lanes = stats_;
  for (const LaneStats& lane : stats_) stats.deadline_misses += lane.expired;
  stats.tenant_usage.insert(tenant_usage_.begin(), tenant_usage_.end());
  return stats;
}

}  // namespace dpjl
