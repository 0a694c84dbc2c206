#include "src/core/engine.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <type_traits>
#include <variant>

#include "src/common/check.h"
#include "src/common/enum_names.h"
#include "src/core/estimators.h"
#include "src/jl/make_transform.h"

namespace dpjl {

namespace {

/// The whole of `raw` as one decimal number: std::from_chars takes no
/// leading whitespace, no '+' and no hex prefix, and reports overflow, so
/// anything but a complete in-range token is refused.
template <typename T>
bool ParseDecimal(const std::string& raw, T* value) {
  const char* end = raw.data() + raw.size();
  const auto [ptr, error] = std::from_chars(raw.data(), end, *value);
  return error == std::errc() && ptr == end;
}

}  // namespace

Result<double> ParseDoubleFlag(const std::string& key, const std::string& raw) {
  double value = 0.0;
  // from_chars also spells out "inf" and "nan"; neither is a number here.
  if (!ParseDecimal(raw, &value) || !std::isfinite(value)) {
    return Status::InvalidArgument("--" + key + " expects a number, got '" +
                                   raw + "'");
  }
  return value;
}

Result<int64_t> ParseIntFlag(const std::string& key, const std::string& raw,
                             int64_t min, int64_t max) {
  int64_t value = 0;
  if (!ParseDecimal(raw, &value) || value < min || value > max) {
    return Status::InvalidArgument(
        "--" + key + " expects an integer in [" + std::to_string(min) + ", " +
        std::to_string(max) + "], got '" + raw + "'");
  }
  return value;
}

Result<uint64_t> ParseSeedFlag(const std::string& key, const std::string& raw) {
  uint64_t value = 0;
  if (!ParseDecimal(raw, &value)) {
    return Status::InvalidArgument("--" + key +
                                   " expects a non-negative integer, got '" +
                                   raw + "'");
  }
  return value;
}

namespace {

using Config = SketcherConfig;
using Options = EngineOptions;

/// One engine flag: its name, the field it reads and writes, its help hint.
/// The field's type is the flag's kind: an int or int64_t takes an integer
/// in [min, max], a double a finite number, a uint64_t a seed, an enum one
/// of the names in its EnumName list.
struct EngineFlag {
  const char* name;
  std::variant<double Config::*, uint64_t Config::*, int64_t Config::*,
               TransformKind Config::*, Config::NoiseSelection Config::*,
               NoisePlacement Config::*, int Options::*, int64_t Options::*>
      field;
  const char* hint;
  int64_t min = 0;
  int64_t max = 0;
};

constexpr int64_t kMaxDim = int64_t{1} << 30;
constexpr int64_t kMaxRequests = int64_t{1} << 20;
// Half of INT64_MAX, so a deadline added to a clock reading never overflows.
constexpr int64_t kMaxMs = std::numeric_limits<int64_t>::max() / 2;

/// Every engine flag, in ToString order.
constexpr EngineFlag kEngineFlags[] = {
    {"transform", &Config::transform, "projection family"},
    {"alpha", &Config::alpha, "JL distortion, in (0, 1/2)"},
    {"beta", &Config::beta, "JL failure probability, in (0, 1/2)"},
    {"k-override", &Config::k_override, "0 = k from alpha, beta", 0, kMaxDim},
    {"s-override", &Config::s_override, "0 = s from alpha, beta", 0, kMaxDim},
    {"epsilon", &Config::epsilon, "privacy budget of each sketch"},
    {"delta", &Config::delta, "0 = pure DP"},
    {"noise", &Config::noise_selection, "auto = the smaller variance"},
    {"placement", &Config::placement, "where the noise is added"},
    {"seed", &Config::projection_seed, "public projection seed"},
    {"threads", &Options::threads, "0 = all hardware cores", 0, 4096},
    {"serving-threads", &Options::serving_threads,
     "threads serving queued requests", 1, 256},
    {"queue-capacity", &Options::queue_capacity,
     "queued requests before refusal", 1, kMaxRequests},
    {"tenant-quota", &Options::tenant_quota,
     "in-flight requests per tenant, 0 = unlimited", 0, kMaxRequests},
    {"tenant-rate", &Options::tenant_rate,
     "admitted requests/s per tenant, 0 = unmetered", 0, kMaxRequests},
    {"deadline-ms", &Options::default_deadline_ms,
     "default request deadline, 0 = none", 0, kMaxMs},
    {"starvation-age-ms", &Options::starvation_age_ms,
     "age that promotes a queued request, 0 = strict priority", 0, kMaxMs},
};

constexpr EnumName<Config::NoiseSelection> kNoiseSelectionNames[] = {
    {Config::NoiseSelection::kAuto, "auto"},
    {Config::NoiseSelection::kLaplace, "laplace"},
    {Config::NoiseSelection::kGaussian, "gaussian"},
    {Config::NoiseSelection::kNone, "none"},
};

/// The name list of each enum an engine flag carries.
const auto& NamesOf(TransformKind) { return kTransformKindNames; }
const auto& NamesOf(Config::NoiseSelection) { return kNoiseSelectionNames; }
const auto& NamesOf(NoisePlacement) { return kPlacementNames; }

template <typename O, typename T>
auto& FieldOf(O& options, T Config::*field) { return options.sketcher.*field; }
template <typename O, typename T>
auto& FieldOf(O& options, T Options::*field) { return options.*field; }

/// visit(field) on `flag`'s field in `options` (const or not).
template <typename O, typename Visit>
auto VisitField(const EngineFlag& flag, O&& options, Visit visit) {
  return std::visit([&](auto field) { return visit(FieldOf(options, field)); },
                    flag.field);
}

Status ParseInto(const EngineFlag& flag, const std::string& raw,
                 EngineOptions* options) {
  return VisitField(flag, *options, [&](auto& field) -> Status {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, double>) {
      DPJL_ASSIGN_OR_RETURN(field, ParseDoubleFlag(flag.name, raw));
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      DPJL_ASSIGN_OR_RETURN(field, ParseSeedFlag(flag.name, raw));
    } else if constexpr (std::is_enum_v<T>) {
      DPJL_ASSIGN_OR_RETURN(field, ParseEnumFlag(flag.name, NamesOf(T{}), raw));
    } else {
      DPJL_ASSIGN_OR_RETURN(const int64_t value,
                            ParseIntFlag(flag.name, raw, flag.min, flag.max));
      field = static_cast<T>(value);
    }
    return Status::OK();
  });
}

/// Shortest decimal form that ParseDoubleFlag parses back to the identical
/// double, so ToString -> Parse is exactly the identity the header promises.
std::string FormatDouble(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

/// `flag`'s value in `options`, in the form ParseInto reads back.
std::string Render(const EngineFlag& flag, const EngineOptions& options) {
  return VisitField(flag, options, [](const auto& field) -> std::string {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, double>) {
      return FormatDouble(field);
    } else if constexpr (std::is_enum_v<T>) {
      return std::string(NameOf(NamesOf(field), field));
    } else {
      return std::to_string(field);
    }
  });
}

/// What `flag`'s usage line names as its value.
std::string Placeholder(const EngineFlag& flag) {
  return VisitField(flag, EngineOptions(), [&](const auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, double>) {
      return std::string("X");
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      return std::string("SEED");
    } else if constexpr (std::is_enum_v<T>) {
      return JoinNames(NamesOf(field));
    } else {
      return "N in [" + std::to_string(flag.min) + ", " +
             std::to_string(flag.max) + "]";
    }
  });
}

const EngineFlag* FindEngineFlag(const std::string& name) {
  for (const EngineFlag& flag : kEngineFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

}  // namespace

std::string EngineFlagsUsage() {
  std::string usage;
  for (const EngineFlag& flag : kEngineFlags) {
    usage += std::string("  --") + flag.name + " " + Placeholder(flag) +
             " (" + flag.hint + ")\n";
  }
  return usage;
}

Result<EngineOptions> EngineOptions::Parse(
    const std::map<std::string, std::string>& flags,
    const std::vector<std::string>& passthrough) {
  EngineOptions options;
  for (const auto& [key, raw] : flags) {
    if (const EngineFlag* flag = FindEngineFlag(key)) {
      DPJL_RETURN_IF_ERROR(ParseInto(*flag, raw, &options));
    } else if (std::find(passthrough.begin(), passthrough.end(), key) ==
               passthrough.end()) {
      // Outside the flag table and the caller's declared passthrough: a
      // typo, not something to silently ignore.
      return Status::InvalidArgument(
          "unknown flag --" + key +
          " (not an engine flag; see EngineFlagsUsage() for the recognized "
          "set, or declare caller-specific keys as passthrough)");
    }
  }
  DPJL_RETURN_IF_ERROR(options.Validate());
  return options;
}

std::string EngineOptions::ToString() const {
  std::string out;
  for (const EngineFlag& flag : kEngineFlags) {
    if (!out.empty()) out += ' ';
    out += std::string("--") + flag.name + "=" + Render(flag, *this);
  }
  return out;
}

Status EngineOptions::Validate() const {
  // Valid means: every field renders to a value its flag parses back, so
  // Validate and Parse share each domain and its message.
  EngineOptions reparsed;
  for (const EngineFlag& flag : kEngineFlags) {
    DPJL_RETURN_IF_ERROR(ParseInto(flag, Render(flag, *this), &reparsed));
  }
  return Status::OK();
}

Result<std::unique_ptr<Engine>> Engine::Create(int64_t d,
                                               const EngineOptions& options) {
  DPJL_RETURN_IF_ERROR(options.Validate());
  DPJL_ASSIGN_OR_RETURN(PrivateSketcher sketcher,
                        PrivateSketcher::Create(d, options.sketcher));
  return std::unique_ptr<Engine>(
      new Engine(options, std::move(sketcher), SketchIndex()));
}

Result<std::unique_ptr<Engine>> Engine::FromIndex(SketchIndex index,
                                                  const EngineOptions& options) {
  DPJL_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<Engine>(
      new Engine(options, std::nullopt, std::move(index)));
}

Engine::Engine(EngineOptions options, std::optional<PrivateSketcher> sketcher,
               SketchIndex index)
    : options_(std::move(options)),
      sketcher_(std::move(sketcher)),
      queue_(std::make_shared<RequestQueue>(
          options_.queue_capacity, options_.tenant_quota,
          std::chrono::milliseconds(options_.starvation_age_ms),
          options_.tenant_rate)) {
  const int threads =
      options_.threads == 0 ? ThreadPool::DefaultThreadCount() : options_.threads;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  if (sketcher_) batcher_.emplace(&*sketcher_, pool_.get());
  segments_.emplace_back(kOwnedSegment, std::move(index));
}

void Engine::EnsureServing() {
  std::call_once(servers_started_, [this] {
    servers_.reserve(static_cast<size_t>(options_.serving_threads));
    for (int i = 0; i < options_.serving_threads; ++i) {
      servers_.emplace_back([this] {
        while (queue_->ServeOne()) {
        }
      });
    }
  });
}

Engine::~Engine() {
  queue_->Close();
  for (std::thread& server : servers_) server.join();
}

const PrivateSketcher& Engine::sketcher() const {
  DPJL_CHECK(sketcher_.has_value(),
             "serving-only engine (built via FromIndex) has no sketcher");
  return *sketcher_;
}

PrivateSketch Engine::Sketch(const std::vector<double>& x,
                             uint64_t noise_seed) const {
  return sketcher().Sketch(x, noise_seed);
}

PrivateSketch Engine::SketchSparse(const SparseVector& x,
                                   uint64_t noise_seed) const {
  return sketcher().SketchSparse(x, noise_seed);
}

Result<std::vector<PrivateSketch>> Engine::SketchBatch(
    const std::vector<std::vector<double>>& xs, uint64_t base_noise_seed) const {
  if (!batcher_.has_value()) {
    return Status::FailedPrecondition(
        "serving-only engine (built via FromIndex) cannot sketch");
  }
  return batcher_->BatchSketch(xs, base_noise_seed);
}

Status Engine::Insert(std::string id, const PrivateSketch& sketch) {
  WriterLock lock(index_mutex_);
  if (segments_.size() > 1) {
    DPJL_RETURN_IF_ERROR(CheckInsertLocked(id, sketch.metadata(),
                                           CorpusFingerprintLocked()));
  }
  return segments_.front().second.Add(std::move(id), sketch);
}

Status Engine::InsertBatch(
    std::vector<std::pair<std::string, PrivateSketch>> items) {
  WriterLock lock(index_mutex_);
  if (segments_.size() > 1) {
    // The corpus fingerprint is loop-invariant under the write lock;
    // compute it once for the whole batch.
    const uint64_t corpus = CorpusFingerprintLocked();
    for (const auto& item : items) {
      DPJL_RETURN_IF_ERROR(
          CheckInsertLocked(item.first, item.second.metadata(), corpus));
    }
  }
  return segments_.front().second.AddBatch(std::move(items));
}

Status Engine::CheckInsertLocked(const std::string& id,
                                 const SketchMetadata& metadata,
                                 uint64_t corpus_fingerprint) const {
  // The owned index validates against itself; with partitions attached the
  // corpus is wider, so uniqueness and compatibility must hold across them
  // too (one hash lookup per partition, one fingerprint comparison).
  for (size_t s = 1; s < segments_.size(); ++s) {
    if (segments_[s].second.Contains(id)) {
      return Status::InvalidArgument(
          "duplicate sketch id (served by an attached partition): " + id);
    }
  }
  if (corpus_fingerprint != 0 &&
      CompatibilityFingerprint(metadata) != corpus_fingerprint) {
    return Status::FailedPrecondition(
        "sketch is incompatible with the served corpus's projection");
  }
  return Status::OK();
}

Status Engine::InsertVector(std::string id, const std::vector<double>& x,
                            uint64_t noise_seed) {
  return Insert(std::move(id), Sketch(x, noise_seed));
}

int64_t Engine::index_size() const {
  ReaderLock lock(index_mutex_);
  int64_t total = 0;
  for (const auto& segment : segments_) total += segment.second.size();
  return total;
}

std::vector<std::string> Engine::ids() const {
  ReaderLock lock(index_mutex_);
  std::vector<std::string> all;
  for (const auto& segment : segments_) {
    const std::vector<std::string>& segment_ids = segment.second.ids();
    all.insert(all.end(), segment_ids.begin(), segment_ids.end());
  }
  return all;
}

std::string Engine::SerializeIndex() const {
  ReaderLock lock(index_mutex_);
  return segments_.front().second.Serialize();
}

std::vector<const SketchIndex*> Engine::SegmentsLocked() const {
  std::vector<const SketchIndex*> segments;
  segments.reserve(segments_.size());
  for (const auto& segment : segments_) segments.push_back(&segment.second);
  return segments;
}

std::optional<PrivateSketch> Engine::FindLocked(const std::string& id) const {
  for (const auto& segment : segments_) {
    if (std::optional<PrivateSketch> found = segment.second.Find(id)) {
      return found;
    }
  }
  return std::nullopt;
}

uint64_t Engine::CorpusFingerprintLocked() const {
  for (const auto& segment : segments_) {
    if (segment.second.size() > 0) return segment.second.Fingerprint();
  }
  return 0;
}

Result<int64_t> Engine::AttachPartition(SketchIndex partition) {
  WriterLock lock(index_mutex_);
  if (partition.size() > 0) {
    const uint64_t corpus = CorpusFingerprintLocked();
    if (corpus != 0 && partition.Fingerprint() != corpus) {
      return Status::FailedPrecondition(
          "partition is incompatible with the served corpus's projection");
    }
    for (const std::string& id : partition.ids()) {
      for (const auto& segment : segments_) {
        if (segment.second.Contains(id)) {
          return Status::InvalidArgument(
              "partition id is already served: " + id);
        }
      }
    }
  }
  const int64_t handle = next_partition_handle_++;
  segments_.emplace_back(handle, std::move(partition));
  return handle;
}

Status Engine::DetachPartition(int64_t handle) {
  WriterLock lock(index_mutex_);
  // Attached partitions only: the owned segment is never detached.
  for (auto it = segments_.begin() + 1; it != segments_.end(); ++it) {
    if (it->first == handle) {
      segments_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no attached partition with handle " +
                          std::to_string(handle));
}

int64_t Engine::num_partitions() const {
  ReaderLock lock(index_mutex_);
  return static_cast<int64_t>(segments_.size()) - 1;
}

Result<std::vector<SketchIndex::Neighbor>> Engine::NearestNeighbors(
    const PrivateSketch& query, int64_t top_n) const {
  ReaderLock lock(index_mutex_);
  DPJL_ASSIGN_OR_RETURN(std::vector<std::vector<SketchIndex::Neighbor>> lists,
                        SketchIndex::NearestNeighborsAcross(
                            SegmentsLocked(), {&query}, top_n, pool_.get()));
  return std::move(lists.front());
}

Result<std::vector<SketchIndex::Neighbor>> Engine::RangeQuery(
    const PrivateSketch& query, double radius_sq) const {
  ReaderLock lock(index_mutex_);
  return SketchIndex::RangeQueryAcross(SegmentsLocked(), query, radius_sq,
                                       pool_.get());
}

Result<SketchIndex::DistanceMatrix> Engine::AllPairsDistances() const {
  ReaderLock lock(index_mutex_);
  return SketchIndex::AllPairsAcross(SegmentsLocked(), pool_.get());
}

Result<double> Engine::SquaredDistance(const std::string& id_a,
                                       const std::string& id_b) const {
  ReaderLock lock(index_mutex_);
  const std::optional<PrivateSketch> a = FindLocked(id_a);
  const std::optional<PrivateSketch> b = FindLocked(id_b);
  if (!a.has_value() || !b.has_value()) {
    return Status::NotFound("unknown sketch id");
  }
  return EstimateSquaredDistance(*a, *b);
}

Result<PrivateSketch> Engine::GetSketch(const std::string& id) const {
  ReaderLock lock(index_mutex_);
  if (std::optional<PrivateSketch> found = FindLocked(id)) {
    return std::move(*found);
  }
  return Status::NotFound("unknown sketch id: " + id);
}

RequestQueue::Clock::time_point Engine::DeadlineFor(int64_t deadline_ms) const {
  const int64_t ms =
      deadline_ms == kDefaultDeadline ? options_.default_deadline_ms : deadline_ms;
  if (ms == 0) return RequestQueue::kNoDeadline;
  // An already-negative budget (caller's total minus elapsed) is expired on
  // arrival, not "no deadline".
  if (ms < 0) return RequestQueue::Clock::time_point::min();
  // Budgets too large to represent on the clock (now + ms would overflow
  // the nanosecond tick count) are effectively "never expires".
  const auto now = RequestQueue::Clock::now();
  const int64_t representable_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          RequestQueue::kNoDeadline - now)
          .count();
  if (ms >= representable_ms) return RequestQueue::kNoDeadline;
  return now + std::chrono::milliseconds(ms);
}

EngineFuture<PrivateSketch> Engine::SubmitSketch(std::vector<double> x,
                                                 uint64_t noise_seed,
                                                 const RequestOptions& request) {
  return Submit<PrivateSketch>(
      [this, x = std::move(x),
       noise_seed](const CancelToken&) -> Result<PrivateSketch> {
        if (!sketcher_.has_value()) {
          return Status::FailedPrecondition(
              "serving-only engine (built via FromIndex) cannot sketch");
        }
        return sketcher_->Sketch(x, noise_seed);
      },
      request);
}

EngineFuture<std::vector<SketchIndex::Neighbor>> Engine::SubmitQuery(
    PrivateSketch query, int64_t top_n, const RequestOptions& request) {
  return Submit<std::vector<SketchIndex::Neighbor>>(
      [this, query = std::move(query), top_n](const CancelToken& cancel)
          -> Result<std::vector<SketchIndex::Neighbor>> {
        ReaderLock lock(index_mutex_);
        DPJL_ASSIGN_OR_RETURN(
            std::vector<std::vector<SketchIndex::Neighbor>> lists,
            SketchIndex::NearestNeighborsAcross(SegmentsLocked(), {&query},
                                                top_n, pool_.get(), cancel));
        return std::move(lists.front());
      },
      request);
}

EngineFuture<std::vector<SketchIndex::Neighbor>> Engine::SubmitRangeQuery(
    PrivateSketch query, double radius_sq, const RequestOptions& request) {
  return Submit<std::vector<SketchIndex::Neighbor>>(
      [this, query = std::move(query), radius_sq](const CancelToken& cancel) {
        ReaderLock lock(index_mutex_);
        return SketchIndex::RangeQueryAcross(SegmentsLocked(), query,
                                             radius_sq, pool_.get(), cancel);
      },
      request);
}

EngineFuture<std::vector<std::vector<SketchIndex::Neighbor>>>
Engine::SubmitQueryBatch(std::vector<PrivateSketch> queries, int64_t top_n,
                         const RequestOptions& request) {
  return Submit<std::vector<std::vector<SketchIndex::Neighbor>>>(
      [this, queries = std::move(queries), top_n](const CancelToken& cancel)
          -> Result<std::vector<std::vector<SketchIndex::Neighbor>>> {
        // One read-lock acquisition and one scan plan for the whole
        // batch; each tile is one multi-probe pass over every unit, so the
        // batch costs far less than queries.size() single scans, and by
        // the index's determinism contract each result is byte-identical
        // to a lone SubmitQuery.
        std::vector<const PrivateSketch*> probes;
        probes.reserve(queries.size());
        for (const PrivateSketch& query : queries) probes.push_back(&query);
        ReaderLock lock(index_mutex_);
        return SketchIndex::NearestNeighborsAcross(SegmentsLocked(), probes,
                                                   top_n, pool_.get(), cancel);
      },
      request);
}

EngineFuture<double> Engine::SubmitEstimate(std::string id_a, std::string id_b,
                                            const RequestOptions& request) {
  return Submit<double>(
      [this, id_a = std::move(id_a), id_b = std::move(id_b)](const CancelToken&) {
        return SquaredDistance(id_a, id_b);
      },
      request);
}

EngineFuture<bool> Engine::SubmitTask(std::function<Status()> task,
                                      const RequestOptions& request) {
  return Submit<bool>(
      [task = std::move(task)](const CancelToken&) -> Result<bool> {
        const Status status = task();
        if (!status.ok()) return status;
        return true;
      },
      request);
}

EngineFuture<bool> Engine::SubmitTask(
    std::function<Status(const CancelToken&)> task,
    const RequestOptions& request) {
  return Submit<bool>(
      [task = std::move(task)](const CancelToken& cancel) -> Result<bool> {
        const Status status = task(cancel);
        if (!status.ok()) return status;
        return true;
      },
      request);
}

EngineStats Engine::Stats() const {
  EngineStats stats;
  stats.queue = queue_->GetStats();
  stats.index_size = index_size();
  return stats;
}

void Engine::WaitIdle() const { queue_->WaitIdle(); }

std::string EngineStats::ToString() const {
  std::ostringstream out;
  for (int lane = 0; lane < kNumPriorityLanes; ++lane) {
    const auto& counters = queue.lanes[static_cast<size_t>(lane)];
    const std::string_view name = PriorityName(static_cast<Priority>(lane));
    out << "lane." << name << ".depth\t" << counters.depth << "\n"
        << "lane." << name << ".served\t" << counters.served << "\n"
        << "lane." << name << ".expired\t" << counters.expired << "\n"
        << "lane." << name << ".refused\t" << counters.refused << "\n"
        << "lane." << name << ".cancelled\t" << counters.cancelled << "\n"
        << "lane." << name << ".promoted\t" << counters.promoted << "\n";
  }
  out << "deadline_misses\t" << queue.deadline_misses << "\n";
  for (const auto& tenant : queue.tenant_usage) {
    out << "tenant." << tenant.first << ".usage\t" << tenant.second << "\n";
  }
  out << "index_size\t" << index_size << "\n";
  return out.str();
}

EngineStats EngineStats::Delta(const EngineStats& prev) const {
  // Monotonic counters become movement since `prev`; gauges (lane depth,
  // tenant usage, index size) keep their current point-in-time values.
  EngineStats delta = *this;
  for (int lane = 0; lane < kNumPriorityLanes; ++lane) {
    RequestQueue::LaneStats& now = delta.queue.lanes[static_cast<size_t>(lane)];
    const RequestQueue::LaneStats& then =
        prev.queue.lanes[static_cast<size_t>(lane)];
    now.served -= then.served;
    now.expired -= then.expired;
    now.refused -= then.refused;
    now.cancelled -= then.cancelled;
    now.promoted -= then.promoted;
  }
  delta.queue.deadline_misses -= prev.queue.deadline_misses;
  return delta;
}

}  // namespace dpjl
