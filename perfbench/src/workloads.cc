#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/layers.h"
#include "src/core/batch_sketcher.h"
#include "src/core/engine.h"
#include "src/random/rng.h"
#include "src/random/splitmix64.h"
#include "src/workload/generators.h"

namespace perfbench {
namespace {

using dpjl::Engine;
using dpjl::PrivateSketch;
using dpjl::Result;
using dpjl::SketchIndex;
using dpjl::Status;
using NeighborList = std::vector<SketchIndex::Neighbor>;
namespace net = dpjl::net;

// Cluster geometry. At d = 1024 two centres sit about 2·d·10² = 204800
// apart (squared), two members of one cluster about 2·d·0.5² = 512. The
// ε = 1 Laplace noise gives the default sketch's estimate a standard
// deviation of roughly 21000-27000 over that range, so top-10 and range
// answers follow the clusters, not the noise.
constexpr double kCenterScale = 10.0;
constexpr double kSpread = 0.5;

// The library's defaults: block SJLT, kAuto noise (Laplace at δ = 0),
// default shard count, threads and serving lanes.
dpjl::EngineOptions BenchOptions() { return dpjl::EngineOptions(); }

struct Dataset {
  std::vector<std::vector<double>> corpus;
  std::vector<int64_t> corpus_labels;
  std::vector<std::vector<double>> probes;
  std::vector<int64_t> probe_labels;
  /// Half the expected squared distance between two cluster centres: a
  /// range query returns the probe's cluster.
  double radius_sq = 0;
};

Dataset MakeDataset(int64_t n, int64_t probes, int64_t dim, int64_t clusters,
                    uint64_t seed) {
  dpjl::Rng rng(seed);
  dpjl::ClusteredData data =
      dpjl::MakeClusters(n + probes, dim, clusters, kCenterScale, kSpread, &rng);
  Dataset out;
  for (int64_t i = 0; i < n + probes; ++i) {
    auto& points = i < n ? out.corpus : out.probes;
    auto& labels = i < n ? out.corpus_labels : out.probe_labels;
    points.push_back(std::move(data.points[static_cast<size_t>(i)]));
    labels.push_back(data.labels[static_cast<size_t>(i)]);
  }
  out.radius_sq = static_cast<double>(dim) * kCenterScale * kCenterScale;
  return out;
}

std::string Id(int64_t i) { return "v" + std::to_string(i); }

int64_t IdIndex(const std::string& id) { return std::stoll(id.substr(1)); }

// A fresh Engine holding the corpus released as "v<i>" through one
// SketchBatch + InsertBatch.
Result<std::unique_ptr<Engine>> ReleaseCorpus(const Dataset& data, int64_t dim,
                                              uint64_t seed) {
  DPJL_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                        Engine::Create(dim, BenchOptions()));
  DPJL_ASSIGN_OR_RETURN(std::vector<PrivateSketch> sketches,
                        engine->SketchBatch(data.corpus, dpjl::DeriveSeed(seed, 0xC0)));
  std::vector<std::pair<std::string, PrivateSketch>> items;
  items.reserve(sketches.size());
  for (size_t i = 0; i < sketches.size(); ++i) {
    items.emplace_back(Id(static_cast<int64_t>(i)), std::move(sketches[i]));
  }
  DPJL_RETURN_IF_ERROR(engine->InsertBatch(std::move(items)));
  return engine;
}

std::vector<PrivateSketch> SketchProbes(const Engine& engine, const Dataset& data,
                                        uint64_t seed) {
  std::vector<PrivateSketch> probes;
  for (size_t p = 0; p < data.probes.size(); ++p) {
    probes.push_back(engine.Sketch(data.probes[p], dpjl::DeriveSeed(seed, 0xB000 + p)));
  }
  return probes;
}

struct LoopStats {
  Samples single;
  Samples batch;
  Samples estimate;
  Samples range;
  Samples all_pairs;
  /// Requests that went through a freshly created Router (query_routed).
  Samples churn;
  int64_t requests = 0;
  int64_t range_hits = 0;
  double seconds = 0;

  /// The request kinds the workload sent, by name.
  std::vector<std::pair<const char*, const Samples*>> Kinds() const {
    std::vector<std::pair<const char*, const Samples*>> kinds;
    for (const auto& kind : {std::pair<const char*, const Samples*>{"single", &single},
                             {"batch", &batch},
                             {"estimate", &estimate},
                             {"range", &range},
                             {"all_pairs", &all_pairs}}) {
      if (kind.second->size() > 0) kinds.push_back(kind);
    }
    return kinds;
  }

  /// Geometric mean over request kinds, the by-id estimate excepted, of
  /// each kind's rate, 1 / its median time. Each kind weighs the same
  /// whatever its cost and cadence: a factor f on one of n kinds moves the
  /// figure by f^(1/n). A plain count / busy time is decided by the
  /// costliest kinds (batch8 and all-pairs take ~88% of query_local's busy
  /// time, range ~6%), and requests / seconds also by multi-ms stalls.
  /// The estimate is a few microseconds of work between two cross-thread
  /// wake-ups; its median moved 3x (17 to 70 us) between sets of runs on
  /// one shared VM, which alone would move this figure by ~20%. It is
  /// reported, and measured per layer as engine.estimate_us.
  double GeomeanRate() const {
    double log_sum = 0;
    double kinds = 0;
    for (const auto& [name, samples] : Kinds()) {
      if (samples == &estimate) continue;
      log_sum += std::log(1e6 / samples->Median());
      kinds += 1;
    }
    return std::exp(log_sum / kinds);
  }
};

struct Counters {
  int64_t served = 0;
  int64_t refused = 0;
  int64_t expired = 0;
};

Counters CountersOf(const dpjl::EngineStats& stats) {
  Counters c;
  for (const auto& lane : stats.queue.lanes) {
    c.served += lane.served;
    c.refused += lane.refused;
    c.expired += lane.expired;
  }
  return c;
}

// Counts the call as attempted and as failed when it returned an error.
template <typename T>
bool Landed(const Result<T>& result, Outcome* out) {
  ++out->attempted;
  if (result.ok()) return true;
  ++out->failed;
  return false;
}

// Runs `fn` under a span named `name`, adds its time to `samples`, and
// returns what it returned.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, int64_t probe, Samples* samples, Fn&& fn) {
  std::optional<decltype(fn())> result;
  samples->Add(tracer->Time(name, probe, [&] { result.emplace(fn()); }));
  return std::move(*result);
}

class Workload {
 public:
  Workload(const Sizes& sizes, uint64_t seed) : sizes_(sizes), seed_(seed) {}
  virtual ~Workload() = default;

  /// Builds the program state; each repetition adds one setup_s sample.
  virtual Status Setup(Outcome* out) = 0;
  /// One round of the closed-loop request mix.
  virtual void Round(Tracer* tracer, LoopStats* stats, Outcome* out) = 0;
  virtual Status Layers(double seconds, Tracer* tracer, Outcome* out) = 0;
  /// The per-operation figures under the names the workload's users know.
  virtual void Report(const LoopStats& stats, const std::string& prefix,
                      Outcome* out) const = 0;
  /// Items per batched request.
  virtual double BatchItems() const = 0;
  /// Served/refused/expired totals of every Engine the workload drives.
  virtual Counters EngineCounters() const = 0;

  const Samples& setup_seconds() const { return setup_s_; }
  uint64_t digest() const { return digest_.value(); }

 protected:
  const Sizes sizes_;
  const uint64_t seed_;
  Samples setup_s_;
  Digest digest_;
  int64_t round_ = 0;
};

// Seconds since `start_ns`.
double Since(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

void ReportQueries(const LoopStats& stats, const std::string& prefix, Outcome* out) {
  const Samples::Tail tail = stats.single.TailValue();
  out->Detail(prefix + "nn_p50_us", stats.single.Median(), "us");
  out->Detail(prefix + "nn_tail_us", tail.value, "us");
  out->Detail(prefix + "nn_tail_percentile", tail.percentile, "%");
  out->Detail(prefix + "nn_samples", static_cast<double>(stats.single.size()), "count");
  out->Detail(prefix + "batch8_p50_us", stats.batch.Median(), "us");
  out->Detail(prefix + "range_p50_us", stats.range.Median(), "us");
  out->Detail(prefix + "estimate_p50_us", stats.estimate.Median(), "us");
  out->Detail(prefix + "range_hits_mean",
              static_cast<double>(stats.range_hits) /
                  static_cast<double>(std::max<size_t>(stats.range.size(), 1)),
              "count");
}

// What every query answer must equal byte for byte: the in-process
// Engine's synchronous answers for each probe.
struct Expected {
  std::vector<NeighborList> nn;
  std::vector<NeighborList> range;
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<double> estimate;
};

// Computes the reference answers, folds them into the digest, and checks
// that the clusters, not the noise, decide the top-10.
Result<Expected> Reference(const Engine& engine, const Dataset& data,
                           const std::vector<PrivateSketch>& probes, int64_t top_n,
                           Digest* digest, Outcome* out) {
  Expected expected;
  int64_t same_cluster = 0;
  int64_t neighbors = 0;
  const int64_t n = static_cast<int64_t>(data.corpus.size());
  for (size_t p = 0; p < probes.size(); ++p) {
    DPJL_ASSIGN_OR_RETURN(NeighborList nn, engine.NearestNeighbors(probes[p], top_n));
    for (const auto& neighbor : nn) {
      same_cluster += data.corpus_labels[static_cast<size_t>(IdIndex(neighbor.id))] ==
                      data.probe_labels[p];
      ++neighbors;
    }
    DPJL_ASSIGN_OR_RETURN(NeighborList range, engine.RangeQuery(probes[p], data.radius_sq));
    const int64_t i = static_cast<int64_t>(p);
    expected.pairs.emplace_back(Id((i * 7919) % n), Id((i * 104729 + n / 2) % n));
    DPJL_ASSIGN_OR_RETURN(double estimate, engine.SquaredDistance(expected.pairs.back().first,
                                                                  expected.pairs.back().second));
    digest->Neighbors(nn);
    digest->Neighbors(range);
    digest->Double(estimate);
    expected.nn.push_back(std::move(nn));
    expected.range.push_back(std::move(range));
    expected.estimate.push_back(estimate);
  }
  const double share = static_cast<double>(same_cluster) / static_cast<double>(neighbors);
  out->Detail("nn_same_cluster_share", share, "ratio");
  out->Check(share >= 0.9, "top-10 answers do not follow the clusters");
  return expected;
}

// --- ingest -----------------------------------------------------------------

class Ingest : public Workload {
 public:
  using Workload::Workload;

  Status Setup(Outcome*) override {
    data_ = MakeDataset(sizes_.ingest_pool, sizes_.num_probes, sizes_.dim,
                        sizes_.clusters_local, seed_);
    for (size_t b = 0; b * sizes_.ingest_batch < data_.corpus.size(); ++b) {
      const auto first = data_.corpus.begin() + static_cast<long>(b * sizes_.ingest_batch);
      batches_.emplace_back(first, first + sizes_.ingest_batch);
    }
    for (int64_t i = 0; i < sizes_.ingest_engine_capacity; ++i) ids_.push_back(Id(i));
    // Set-up is a cold start: a new Engine until its first batch is stored.
    for (int rep = 0; rep < sizes_.setup_reps; ++rep) {
      engine_.reset();
      const int64_t start = NowNs();
      DPJL_ASSIGN_OR_RETURN(engine_, Engine::Create(sizes_.dim, BenchOptions()));
      DPJL_ASSIGN_OR_RETURN(std::vector<PrivateSketch> sketches,
                            engine_->SketchBatch(batches_[0], dpjl::DeriveSeed(seed_, 0xC0)));
      std::vector<std::pair<std::string, PrivateSketch>> items;
      for (size_t i = 0; i < sketches.size(); ++i) {
        items.emplace_back(ids_[i], std::move(sketches[i]));
      }
      DPJL_RETURN_IF_ERROR(engine_->InsertBatch(std::move(items)));
      setup_s_.Add(Since(start));
    }
    return NewEngine();
  }

  void Round(Tracer* tracer, LoopStats* stats, Outcome* out) override {
    const int64_t b = round_++;
    const int64_t batch = sizes_.ingest_batch;
    const auto& xs = batches_[static_cast<size_t>(b) % batches_.size()];
    const uint64_t base = dpjl::DeriveSeed(seed_, 0x100000 + static_cast<uint64_t>(b));

    Samples batch_parts;
    auto sketches = Timed(tracer, "e2e.sketch_batch", b, &batch_parts,
                          [&] { return engine_->SketchBatch(xs, base); });
    ++stats->requests;
    if (!Landed(sketches, out)) return;
    // Items re-released one at a time below, spread over the batch.
    std::vector<int64_t> picked;
    std::vector<PrivateSketch> kept;
    for (int64_t j = 0; j < sizes_.ingest_singles; ++j) {
      picked.push_back(j * (batch / sizes_.ingest_singles) + b % (batch / sizes_.ingest_singles));
      kept.push_back((*sketches)[static_cast<size_t>(picked.back())]);
    }
    if (b == 0) {
      for (const PrivateSketch& s : *sketches) digest_.Sketch(s);
    }
    std::vector<std::pair<std::string, PrivateSketch>> items;
    items.reserve(static_cast<size_t>(batch));
    for (int64_t i = 0; i < batch; ++i) {
      items.emplace_back(ids_[static_cast<size_t>(filled_ + i)],
                         std::move((*sketches)[static_cast<size_t>(i)]));
    }
    const Status inserted = Timed(tracer, "e2e.insert_batch", b, &batch_parts,
                                  [&] { return engine_->InsertBatch(std::move(items)); });
    stats->batch.Add(batch_parts.Sum());
    // One batch request is SketchBatch + InsertBatch; count it once.
    if (!inserted.ok()) ++out->failed;
    filled_ += batch;

    for (size_t j = 0; j < picked.size(); ++j) {
      const int64_t idx = picked[j];
      const PrivateSketch single = Timed(tracer, "e2e.sketch", b, &stats->single, [&] {
        return engine_->Sketch(xs[static_cast<size_t>(idx)], dpjl::BatchItemNoiseSeed(base, idx));
      });
      ++stats->requests;
      ++out->attempted;
      out->Check(SameSketch(single, kept[j]),
                 "ingest: Sketch(x_i, BatchItemNoiseSeed(base, i)) differs from "
                 "SketchBatch item i");
    }

    if (filled_ + batch > sizes_.ingest_engine_capacity) {
      const Status renewed = NewEngine();
      DPJL_CHECK(renewed.ok(), renewed.ToString());
    }
  }

  Status Layers(double seconds, Tracer* tracer, Outcome* out) override {
    // The layer corpus: the input pool released into a fresh Engine.
    const ProcGauges before = ReadProcGauges();
    DPJL_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                          ReleaseCorpus(data_, sizes_.dim, seed_));
    const ProcGauges after = ReadProcGauges();
    DPJL_ASSIGN_OR_RETURN(SketchIndex corpus,
                          SketchIndex::Deserialize(engine->SerializeIndex()));
    const std::vector<PrivateSketch> probes = SketchProbes(*engine, data_, seed_);
    LayerContext ctx;
    ctx.sizes = &sizes_;
    ctx.seed = seed_;
    ctx.sketcher = &engine->sketcher();
    ctx.vectors = &data_.corpus;
    ctx.corpus = &corpus;
    ctx.probes = &probes;
    ctx.radius_sq = data_.radius_sq;
    ctx.engine = engine.get();
    ctx.bytes_per_sketch = (after.rss_mb - before.rss_mb) * 1048576.0 /
                           static_cast<double>(corpus.size());
    return MeasureLayers(ctx, seconds, tracer, out);
  }

  void Report(const LoopStats& stats, const std::string& prefix, Outcome* out) const override {
    const double batch_s = stats.batch.Sum() * 1e-6;
    out->Detail(prefix + "ingest_vps",
                static_cast<double>(stats.batch.size()) * BatchItems() / std::max(batch_s, 1e-9),
                "vectors/s");
    out->Detail(prefix + "sketch_p50_us", stats.single.Median(), "us");
    out->Detail(prefix + "engines_created", static_cast<double>(engines_created_), "count");
  }

  double BatchItems() const override { return static_cast<double>(sizes_.ingest_batch); }

  Counters EngineCounters() const override {
    Counters c = CountersOf(engine_->Stats());
    c.served += retired_.served;
    c.refused += retired_.refused;
    c.expired += retired_.expired;
    return c;
  }

 private:
  Status NewEngine() {
    if (engine_ != nullptr) {
      const Counters c = CountersOf(engine_->Stats());
      retired_.served += c.served;
      retired_.refused += c.refused;
      retired_.expired += c.expired;
      engine_.reset();
    }
    DPJL_ASSIGN_OR_RETURN(engine_, Engine::Create(sizes_.dim, BenchOptions()));
    ++engines_created_;
    filled_ = 0;
    return Status::OK();
  }

  Dataset data_;
  std::vector<std::vector<std::vector<double>>> batches_;
  std::vector<std::string> ids_;
  std::unique_ptr<Engine> engine_;
  int64_t filled_ = 0;
  int64_t engines_created_ = 0;
  Counters retired_;
};

// --- query_local --------------------------------------------------------------

class QueryLocal : public Workload {
 public:
  using Workload::Workload;

  Status Setup(Outcome* out) override {
    data_ = MakeDataset(sizes_.local_corpus, sizes_.num_probes, sizes_.dim,
                        sizes_.clusters_local, seed_);
    for (int rep = 0; rep < sizes_.setup_reps; ++rep) {
      engine_.reset();
      all_pairs_.reset();
      const ProcGauges before = ReadProcGauges();
      const int64_t start = NowNs();
      DPJL_ASSIGN_OR_RETURN(engine_, ReleaseCorpus(data_, sizes_.dim, seed_));
      const double grown_mb = ReadProcGauges().rss_mb - before.rss_mb;
      std::vector<std::pair<std::string, PrivateSketch>> matrix_items;
      for (int64_t i = 0; i < sizes_.all_pairs_corpus; ++i) {
        DPJL_ASSIGN_OR_RETURN(PrivateSketch s, engine_->GetSketch(Id(i)));
        matrix_items.emplace_back(Id(i), std::move(s));
      }
      DPJL_ASSIGN_OR_RETURN(all_pairs_, Engine::Create(sizes_.dim, BenchOptions()));
      DPJL_RETURN_IF_ERROR(all_pairs_->InsertBatch(std::move(matrix_items)));
      probes_ = SketchProbes(*engine_, data_, seed_);
      setup_s_.Add(Since(start));
      if (rep == 0) {
        bytes_per_sketch_ = grown_mb * 1048576.0 / static_cast<double>(sizes_.local_corpus);
      }
    }
    return Expect(out);
  }

  void Round(Tracer* tracer, LoopStats* stats, Outcome* out) override {
    const int64_t r = round_++;
    const size_t p = static_cast<size_t>(r) % probes_.size();

    auto nn = Timed(tracer, "e2e.nn", r, &stats->single, [&] {
      return engine_->SubmitQuery(probes_[p], sizes_.top_n).Get();
    });
    if (Landed(nn, out)) {
      out->Check(SameNeighbors(*nn, expected_.nn[p]),
                 "query_local: SubmitQuery differs from sync NearestNeighbors");
    }

    std::vector<PrivateSketch> group;
    for (int64_t i = 0; i < sizes_.batch_probes; ++i) {
      group.push_back(probes_[(p + static_cast<size_t>(i)) % probes_.size()]);
    }
    auto batch = Timed(tracer, "e2e.batch8", r, &stats->batch, [&] {
      return engine_->SubmitQueryBatch(std::move(group), sizes_.top_n).Get();
    });
    if (Landed(batch, out)) {
      bool same = batch->size() == static_cast<size_t>(sizes_.batch_probes);
      for (size_t i = 0; same && i < batch->size(); ++i) {
        same = SameNeighbors((*batch)[i], expected_.nn[(p + i) % probes_.size()]);
      }
      out->Check(same, "query_local: batch result[i] differs from the single-probe answer");
    }

    PrivateSketch probe = probes_[p];
    auto range = Timed(tracer, "e2e.range", r, &stats->range, [&] {
      return engine_->SubmitRangeQuery(std::move(probe), data_.radius_sq).Get();
    });
    if (Landed(range, out)) {
      stats->range_hits += static_cast<int64_t>(range->size());
      out->Check(SameNeighbors(*range, expected_.range[p]),
                 "query_local: SubmitRangeQuery differs from sync RangeQuery");
    }

    std::string a = expected_.pairs[p].first;
    std::string b = expected_.pairs[p].second;
    auto estimate = Timed(tracer, "e2e.estimate", r, &stats->estimate, [&] {
      return engine_->SubmitEstimate(std::move(a), std::move(b)).Get();
    });
    if (Landed(estimate, out)) {
      out->Check(SameBytes(*estimate, expected_.estimate[p]),
                 "query_local: SubmitEstimate differs from sync SquaredDistance");
    }
    stats->requests += 4;

    if (r % sizes_.all_pairs_every == 0) {
      auto matrix = Timed(tracer, "e2e.all_pairs", r, &stats->all_pairs,
                          [&] { return all_pairs_->AllPairsDistances(); });
      ++stats->requests;
      if (Landed(matrix, out)) {
        out->Check(MatrixDigest(*matrix) == expected_matrix_,
                   "query_local: AllPairsDistances changed between calls");
      }
    }
  }

  Status Layers(double seconds, Tracer* tracer, Outcome* out) override {
    DPJL_ASSIGN_OR_RETURN(SketchIndex corpus, SketchIndex::Deserialize(engine_->SerializeIndex()));
    LayerContext ctx;
    ctx.sizes = &sizes_;
    ctx.seed = seed_;
    ctx.sketcher = &engine_->sketcher();
    ctx.vectors = &data_.corpus;
    ctx.corpus = &corpus;
    ctx.probes = &probes_;
    ctx.radius_sq = data_.radius_sq;
    ctx.engine = engine_.get();
    ctx.bytes_per_sketch = bytes_per_sketch_;
    return MeasureLayers(ctx, seconds, tracer, out);
  }

  void Report(const LoopStats& stats, const std::string& prefix, Outcome* out) const override {
    ReportQueries(stats, prefix, out);
    out->Detail(prefix + "all_pairs_ms", stats.all_pairs.Median() / 1000.0, "ms");
  }

  double BatchItems() const override { return static_cast<double>(sizes_.batch_probes); }

  Counters EngineCounters() const override {
    const Counters a = CountersOf(engine_->Stats());
    const Counters b = CountersOf(all_pairs_->Stats());
    return {a.served + b.served, a.refused + b.refused, a.expired + b.expired};
  }

 private:
  static uint64_t MatrixDigest(const SketchIndex::DistanceMatrix& m) {
    Digest d;
    for (const std::string& id : m.ids) d.Text(id);
    d.Bytes(m.values.data(), m.values.size() * sizeof(double));
    return d.value();
  }

  Status Expect(Outcome* out) {
    DPJL_ASSIGN_OR_RETURN(expected_, Reference(*engine_, data_, probes_, sizes_.top_n,
                                               &digest_, out));
    DPJL_ASSIGN_OR_RETURN(SketchIndex::DistanceMatrix matrix, all_pairs_->AllPairsDistances());
    expected_matrix_ = MatrixDigest(matrix);
    digest_.Bytes(&expected_matrix_, sizeof(expected_matrix_));
    return Status::OK();
  }

  Dataset data_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Engine> all_pairs_;
  std::vector<PrivateSketch> probes_;
  Expected expected_;
  uint64_t expected_matrix_ = 0;
  double bytes_per_sketch_ = 0;
};

// --- query_routed ----------------------------------------------------------

class QueryRouted : public Workload {
 public:
  using Workload::Workload;

  Status Setup(Outcome* out) override {
    data_ = MakeDataset(sizes_.routed_corpus, sizes_.num_probes, sizes_.dim,
                        sizes_.clusters_routed, seed_);
    for (int rep = 0; rep < sizes_.setup_reps; ++rep) {
      cluster_.reset();
      engine_.reset();
      const ProcGauges before = ReadProcGauges();
      const int64_t start = NowNs();
      DPJL_ASSIGN_OR_RETURN(engine_, ReleaseCorpus(data_, sizes_.dim, seed_));
      DPJL_ASSIGN_OR_RETURN(corpus_, SketchIndex::Deserialize(engine_->SerializeIndex()));
      DPJL_ASSIGN_OR_RETURN(cluster_, StartCluster(corpus_, sizes_.partitions, BenchOptions()));
      probes_ = SketchProbes(*engine_, data_, seed_);
      setup_s_.Add(Since(start));
      if (rep == 0) {
        bytes_per_sketch_ = (ReadProcGauges().rss_mb - before.rss_mb) * 1048576.0 /
                            static_cast<double>(corpus_.size());
      }
    }
    // engine_ holds the whole corpus in process: its answers are the ones
    // every routed answer must equal byte for byte.
    DPJL_ASSIGN_OR_RETURN(expected_, Reference(*engine_, data_, probes_, sizes_.top_n,
                                               &digest_, out));
    return Status::OK();
  }

  // One routed request. Every churn_every-th goes through a Router created
  // for it, which connects afresh as a one-shot CLI client does; creating
  // it is part of that request's time.
  template <typename Fn>
  auto Request(Tracer* tracer, const char* name, Samples* samples, LoopStats* stats, Fn&& fn) {
    const bool churn = stats->requests % sizes_.churn_every == 0;
    ++stats->requests;
    std::unique_ptr<net::Router> fresh;
    std::optional<decltype(fn(cluster_->router.get()))> result;
    const double us = tracer->Time(name, stats->requests, [&] {
      net::Router* router = cluster_->router.get();
      if (churn) {
        auto created = net::Router::Create(cluster_->manifest, cluster_->groups);
        if (!created.ok()) return void(result.emplace(created.status()));
        fresh = std::move(created).value();
        router = fresh.get();
      }
      result.emplace(fn(router));
    });
    samples->Add(us);
    if (churn) stats->churn.Add(us);
    return std::move(*result);
  }

  void Round(Tracer* tracer, LoopStats* stats, Outcome* out) override {
    const int64_t r = round_++;
    const size_t p = static_cast<size_t>(r) % probes_.size();

    auto nn = Request(tracer, "e2e.nn", &stats->single, stats, [&](net::Router* router) {
      return router->NearestNeighbors(probes_[p], sizes_.top_n);
    });
    if (Landed(nn, out)) {
      out->Check(SameNeighbors(*nn, expected_.nn[p]),
                 "query_routed: routed top-10 differs from the in-process Engine");
    }

    std::vector<PrivateSketch> group;
    for (int64_t i = 0; i < sizes_.batch_probes; ++i) {
      group.push_back(probes_[(p + static_cast<size_t>(i)) % probes_.size()]);
    }
    auto batch = Request(tracer, "e2e.batch8", &stats->batch, stats, [&](net::Router* router) {
      return router->BatchQuery(group, sizes_.top_n);
    });
    if (Landed(batch, out)) {
      bool same = batch->size() == group.size();
      for (size_t i = 0; same && i < batch->size(); ++i) {
        same = SameNeighbors((*batch)[i], expected_.nn[(p + i) % probes_.size()]);
      }
      out->Check(same,
                 "query_routed: batch result[i] differs from the in-process single-probe answer");
    }

    auto range = Request(tracer, "e2e.range", &stats->range, stats, [&](net::Router* router) {
      return router->RangeQuery(probes_[p], data_.radius_sq);
    });
    if (Landed(range, out)) {
      stats->range_hits += static_cast<int64_t>(range->size());
      out->Check(SameNeighbors(*range, expected_.range[p]),
                 "query_routed: routed range differs from the in-process Engine");
    }

    const auto& pair = expected_.pairs[p];
    auto estimate = Request(tracer, "e2e.estimate", &stats->estimate, stats,
                            [&](net::Router* router) {
                              return router->SquaredDistance(pair.first, pair.second);
                            });
    if (Landed(estimate, out)) {
      out->Check(SameBytes(*estimate, expected_.estimate[p]),
                 "query_routed: routed estimate differs from the in-process Engine");
    }
  }

  Status Layers(double seconds, Tracer* tracer, Outcome* out) override {
    LayerContext ctx;
    ctx.sizes = &sizes_;
    ctx.seed = seed_;
    ctx.sketcher = &engine_->sketcher();
    ctx.vectors = &data_.corpus;
    ctx.corpus = &corpus_;
    ctx.probes = &probes_;
    ctx.radius_sq = data_.radius_sq;
    ctx.engine = engine_.get();
    ctx.cluster = cluster_.get();
    ctx.bytes_per_sketch = bytes_per_sketch_;
    return MeasureLayers(ctx, seconds, tracer, out);
  }

  void Report(const LoopStats& stats, const std::string& prefix, Outcome* out) const override {
    ReportQueries(stats, prefix, out);
    out->Detail(prefix + "fresh_router_p50_us", stats.churn.Median(), "us");
    out->Detail(prefix + "fresh_routers", static_cast<double>(stats.churn.size()), "count");
  }

  double BatchItems() const override { return static_cast<double>(sizes_.batch_probes); }

  Counters EngineCounters() const override {
    Counters c;
    for (const auto& engine : cluster_->engines) {
      const Counters e = CountersOf(engine->Stats());
      c.served += e.served;
      c.refused += e.refused;
      c.expired += e.expired;
    }
    return c;
  }

 private:
  Dataset data_;
  std::unique_ptr<Engine> engine_;
  SketchIndex corpus_;
  std::unique_ptr<RoutedCluster> cluster_;
  std::vector<PrivateSketch> probes_;
  Expected expected_;
  double bytes_per_sketch_ = 0;
};

LoopStats Loop(Workload* workload, double seconds, Tracer* tracer, Outcome* out) {
  LoopStats stats;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  do {
    workload->Round(tracer, &stats, out);
  } while (NowNs() < deadline);
  stats.seconds = Since(start);
  return stats;
}

// Each request kind's share of the loop's busy time (count x median), so
// it is on record how much of a plain throughput figure each kind decides.
void AddShares(const LoopStats& stats, Outcome* out) {
  double busy_us = 0;
  for (const auto& [name, samples] : stats.Kinds()) {
    busy_us += static_cast<double>(samples->size()) * samples->Median();
  }
  for (const auto& [name, samples] : stats.Kinds()) {
    out->Detail(std::string("busy_share.") + name,
                100.0 * static_cast<double>(samples->size()) * samples->Median() / busy_us, "%");
  }
}

void AddGauges(const std::string& prefix, const ProcGauges& g, Outcome* out) {
  out->Detail(prefix + "open_fds", static_cast<double>(g.open_fds), "count");
  out->Detail(prefix + "threads", static_cast<double>(g.threads), "count");
  out->Detail(prefix + "rss_mb", g.rss_mb, "MB");
}

}  // namespace

Result<Outcome> RunWorkload(const Args& args) {
  const Sizes sizes = SizesFor(args.smoke);
  std::unique_ptr<Workload> workload;
  if (args.workload == "ingest") {
    workload = std::make_unique<Ingest>(sizes, args.seed);
  } else if (args.workload == "query_local") {
    workload = std::make_unique<QueryLocal>(sizes, args.seed);
  } else if (args.workload == "query_routed") {
    workload = std::make_unique<QueryRouted>(sizes, args.seed);
  } else {
    return Status::InvalidArgument("unknown workload " + args.workload);
  }

  Outcome out;
  const ProcGauges at_start = ReadProcGauges();
  DPJL_RETURN_IF_ERROR(workload->Setup(&out));
  // Warm-up: lazy serving threads, pooled connections and caches.
  Tracer untraced(false);
  for (int i = 0; i < 3; ++i) {
    LoopStats warm;
    workload->Round(&untraced, &warm, &out);
  }
  const ProcGauges at_ready = ReadProcGauges();
  const Counters counters_before = workload->EngineCounters();
  AddGauges("start.", at_start, &out);
  AddGauges("ready.", at_ready, &out);

  if (!args.trace) {
    const LoopStats stats = Loop(workload.get(), args.seconds, &untraced, &out);
    const ProcGauges at_end = ReadProcGauges();
    AddGauges("end.", at_end, &out);
    out.Add("setup_s", workload->setup_seconds().Median(), "s");
    out.Add("single_p50_us", stats.single.Median(), "us");
    out.Add("batch_item_us", stats.batch.Median() / workload->BatchItems(), "us");
    out.Add("ops_per_s_geomean", stats.GeomeanRate(), "1/s");
    AddShares(stats, &out);
    out.Detail("requests_per_s", static_cast<double>(stats.requests) / stats.seconds, "1/s");
    out.Add("peak_rss_mb", at_end.peak_rss_mb, "MB");
    workload->Report(stats, "", &out);
  } else {
    // A quarter untraced, a quarter with spans around every request: the
    // difference is the cost of the outside-in spans.
    Tracer tracer(true);
    const LoopStats plain = Loop(workload.get(), args.seconds / 4, &untraced, &out);
    const LoopStats traced = Loop(workload.get(), args.seconds / 4, &tracer, &out);
    workload->Report(plain, "untraced.", &out);
    workload->Report(traced, "traced.", &out);
    // The tail moves too much between runs on a shared machine to gate on,
    // so it is reported here, from the traced loop, instead of end to end.
    out.Add("client.single_tail_us", traced.single.TailValue().value, "us");
    out.Detail("trace_overhead_single_p50",
               100.0 * (traced.single.Median() / plain.single.Median() - 1.0), "%");
    const ProcGauges at_end = ReadProcGauges();
    AddGauges("end.", at_end, &out);
    const Counters counters_after = workload->EngineCounters();
    DPJL_RETURN_IF_ERROR(workload->Layers(args.seconds / 2, &tracer, &out));
    const auto delta = [](int64_t after, int64_t before) {
      return static_cast<double>(after - before);
    };
    out.Add("engine.served", delta(counters_after.served, counters_before.served), "count");
    out.Add("engine.refused", delta(counters_after.refused, counters_before.refused), "count");
    out.Add("engine.expired", delta(counters_after.expired, counters_before.expired), "count");
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
      return Status::Internal("cannot write spans to " + args.trace_out);
    }
  }
  out.digest = workload->digest();
  return out;
}

}  // namespace perfbench
