// Equivalence suite for the query-path scan engine (the sketch arena +
// multi-probe distance kernel behind SketchIndex queries).
//
// The contract under test is byte-identity: the blocked arena scan must
// reproduce the pre-arena per-entry scalar path — one EstimateSquaredDistance
// call per stored sketch, full deterministic (distance, id) sort — exactly,
// for every kernel dispatch table, across dims x corpus sizes x thread
// counts x batch sizes, including arenas rebuilt by Deserialize /
// FromPartitions and arenas grown after a partition attach. All comparisons
// are memcmp over serialized results; EXPECT_DOUBLE_EQ would hide exactly
// the reassociation/FMA bugs this layer can have.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/estimators.h"
#include "src/core/sketch_index.h"
#include "src/core/sketcher.h"
#include "src/linalg/kernels.h"
#include "src/random/rng.h"
#include "src/random/splitmix64.h"
#include "src/workload/generators.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::MakeSketcherOrDie;

/// RAII: pin the dispatched kernel table for a scope, restore on exit.
class KernelOverride {
 public:
  explicit KernelOverride(const KernelOps* ops) { SetKernelsForTest(ops); }
  ~KernelOverride() { SetKernelsForTest(nullptr); }
};

/// Every table this build + CPU can run, scalar first.
std::vector<const KernelOps*> AllTables() {
  std::vector<const KernelOps*> tables = {&ScalarKernels()};
  for (const char* name : {"avx2", "avx512"}) {
    if (const KernelOps* t = KernelsByName(name)) tables.push_back(t);
  }
  return tables;
}

SketcherConfig Config(int64_t k) {
  SketcherConfig c;
  c.k_override = k;
  c.s_override = 2;
  c.epsilon = 2.0;
  c.projection_seed = kTestSeed;
  return c;
}

/// Length-prefixed ids + raw distance bytes: equal strings iff the result
/// lists are memcmp-identical.
std::string NeighborBytes(const std::vector<SketchIndex::Neighbor>& ns) {
  std::string out;
  for (const SketchIndex::Neighbor& n : ns) {
    const uint64_t len = n.id.size();
    out.append(reinterpret_cast<const char*>(&len), sizeof(len));
    out.append(n.id);
    out.append(reinterpret_cast<const char*>(&n.squared_distance),
               sizeof(double));
  }
  return out;
}

bool MatrixBytesEqual(const SketchIndex::DistanceMatrix& a,
                      const SketchIndex::DistanceMatrix& b) {
  return a.ids == b.ids && a.values.size() == b.values.size() &&
         (a.values.empty() ||
          std::memcmp(a.values.data(), b.values.data(),
                      a.values.size() * sizeof(double)) == 0);
}

std::string PoolName(const ThreadPool* pool) {
  return pool == nullptr ? "none" : std::to_string(pool->num_threads());
}

// ---------------------------------------------------------------------------
// The pre-arena per-entry scalar path, replicated verbatim as the reference:
// one per-pair estimator call per stored sketch, deterministic sort.

std::vector<SketchIndex::Neighbor> ReferenceScan(const SketchIndex& index,
                                                 const PrivateSketch& query) {
  std::vector<SketchIndex::Neighbor> all;
  for (const std::string& id : index.ids()) {
    all.push_back(SketchIndex::Neighbor{
        id, EstimateSquaredDistance(query, *index.Find(id)).value()});
  }
  std::sort(all.begin(), all.end(), SketchIndex::NeighborLess);
  return all;
}

std::vector<SketchIndex::Neighbor> ReferenceNearest(
    const std::vector<SketchIndex::Neighbor>& scan, int64_t top_n) {
  std::vector<SketchIndex::Neighbor> out = scan;
  out.resize(static_cast<size_t>(
      std::min<int64_t>(top_n, static_cast<int64_t>(out.size()))));
  return out;
}

std::vector<SketchIndex::Neighbor> ReferenceRange(
    const std::vector<SketchIndex::Neighbor>& scan, double radius_sq) {
  std::vector<SketchIndex::Neighbor> out;
  for (const SketchIndex::Neighbor& n : scan) {
    if (n.squared_distance <= radius_sq) out.push_back(n);
  }
  return out;
}

SketchIndex::DistanceMatrix ReferenceAllPairs(const SketchIndex& index) {
  SketchIndex::DistanceMatrix matrix;
  matrix.ids = index.ids();
  const int64_t n = static_cast<int64_t>(matrix.ids.size());
  matrix.values.assign(static_cast<size_t>(n * n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      const double dist =
          EstimateSquaredDistance(*index.Find(matrix.ids[static_cast<size_t>(i)]),
                                  *index.Find(matrix.ids[static_cast<size_t>(j)]))
              .value();
      matrix.values[static_cast<size_t>(i * n + j)] = dist;
      matrix.values[static_cast<size_t>(j * n + i)] = dist;
    }
  }
  return matrix;
}

// ---------------------------------------------------------------------------

TEST(ScanEngineTest, QueriesMatchPerEntryReferenceAcrossMatrix) {
  const int64_t d = 24;
  const int64_t kDims[] = {3, 13, 96};
  // 300 spans several fixed-grain scan tasks (the last one partial), so
  // the pool-parallel split and merge run too.
  const int64_t kCorpus[] = {1, 7, 8, 100, 300};
  // Batch sizes on both sides of the kScanTileProbes = 8 tile boundary.
  const int64_t kBatchSizes[] = {1, 7, 8, 9, 17};
  ThreadPool pool1(1), pool2(2), pool7(7);
  ThreadPool* const pools[] = {nullptr, &pool1, &pool2, &pool7};

  for (const int64_t k : kDims) {
    const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
    Rng rng(DeriveSeed(kTestSeed, static_cast<uint64_t>(k)));
    const PrivateSketch query =
        sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 9999);
    // Every sixth item repeats the previous item's sketch byte for byte
    // under a different id: the pair ties on distance to every probe, so
    // only the id tie-break orders it.
    std::vector<std::pair<std::string, PrivateSketch>> corpus;
    for (int64_t i = 0; i < 300; ++i) {
      corpus.emplace_back(
          "item-" + std::to_string(i),
          i % 6 == 5 ? corpus.back().second
                     : sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                       static_cast<uint64_t>(1 + i)));
    }
    // Batch probes: the query first, then fresh probes, with probe 4
    // repeating probe 2 so one tile holds duplicate probes.
    std::vector<PrivateSketch> batch_probes = {query};
    for (int64_t i = 1; i < 17; ++i) {
      batch_probes.push_back(
          i == 4 ? batch_probes[2]
                 : sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                   static_cast<uint64_t>(20000 + i)));
    }

    for (const int64_t n : kCorpus) {
      // Reference results from the per-entry scalar path (plain C++, no
      // kernel dispatch involved), computed once per (dim, corpus).
      SketchIndex ref_index;
      ASSERT_TRUE(ref_index
                      .AddBatch({corpus.begin(), corpus.begin() + n})
                      .ok());
      const std::vector<SketchIndex::Neighbor> ref_scan =
          ReferenceScan(ref_index, query);
      // A radius exactly equal to a present distance: the arena path must
      // agree on the <= boundary bit-for-bit to keep this hit. (Noisy
      // estimates can go negative — RangeQuery rejects those radii — so
      // clamp; the boundary property still holds whenever the median
      // distance is non-negative, which covers every corpus here but n=1.)
      const double radius = std::max(
          0.0, ref_scan[static_cast<size_t>(n / 2)].squared_distance);
      const int64_t kTopNs[] = {1, 3, n + 7};
      const SketchIndex::DistanceMatrix ref_matrix =
          ReferenceAllPairs(ref_index);
      std::vector<std::vector<SketchIndex::Neighbor>> ref_batch_scans;
      for (const PrivateSketch& probe : batch_probes) {
        ref_batch_scans.push_back(ReferenceScan(ref_index, probe));
      }

      SketchIndex index;
      ASSERT_TRUE(index.AddBatch({corpus.begin(), corpus.begin() + n}).ok());
      for (const KernelOps* table : AllTables()) {
        KernelOverride pin(table);
        for (ThreadPool* pool : pools) {
          SCOPED_TRACE(std::string("k=") + std::to_string(k) +
                       " n=" + std::to_string(n) + " table=" + table->name +
                       " pool=" + PoolName(pool));
          for (const int64_t top_n : kTopNs) {
            const auto got = index.NearestNeighbors(query, top_n, pool);
            ASSERT_TRUE(got.ok()) << got.status();
            EXPECT_EQ(NeighborBytes(*got),
                      NeighborBytes(ReferenceNearest(ref_scan, top_n)));
            for (const int64_t batch : kBatchSizes) {
              std::vector<const PrivateSketch*> probes;
              for (int64_t i = 0; i < batch; ++i) {
                probes.push_back(&batch_probes[static_cast<size_t>(i)]);
              }
              const auto lists =
                  index.NearestNeighborsBatch(probes, top_n, pool);
              ASSERT_TRUE(lists.ok()) << lists.status();
              ASSERT_EQ(static_cast<int64_t>(lists->size()), batch);
              for (int64_t i = 0; i < batch; ++i) {
                const size_t slot = static_cast<size_t>(i);
                EXPECT_EQ(NeighborBytes((*lists)[slot]),
                          NeighborBytes(ReferenceNearest(
                              ref_batch_scans[slot], top_n)))
                    << "batch=" << batch << " top_n=" << top_n
                    << " probe=" << i;
              }
            }
          }
          const auto hits = index.RangeQuery(query, radius, pool);
          ASSERT_TRUE(hits.ok()) << hits.status();
          EXPECT_EQ(NeighborBytes(*hits),
                    NeighborBytes(ReferenceRange(ref_scan, radius)));
          const auto matrix = index.AllPairsDistances(pool);
          ASSERT_TRUE(matrix.ok()) << matrix.status();
          EXPECT_TRUE(MatrixBytesEqual(*matrix, ref_matrix));
        }
      }
    }
  }
}

TEST(ScanEngineTest, AddAfterAttachKeepsArenaConsistent) {
  const int64_t d = 24;
  const int64_t k = 13;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
  Rng rng(DeriveSeed(kTestSeed, 77));
  std::vector<std::pair<std::string, PrivateSketch>> corpus;
  for (int64_t i = 0; i < 30; ++i) {
    corpus.emplace_back("doc-" + std::to_string(i),
                        sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                        static_cast<uint64_t>(1 + i)));
  }
  const PrivateSketch query =
      sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 9999);

  SketchIndex owned;
  ASSERT_TRUE(owned.AddBatch({corpus.begin(), corpus.begin() + 10}).ok());
  EngineOptions options;
  options.sketcher = Config(k);
  options.threads = 2;
  options.serving_threads = 1;
  auto engine = Engine::FromIndex(std::move(owned), options).value();

  SketchIndex partition;
  ASSERT_TRUE(
      partition.AddBatch({corpus.begin() + 10, corpus.begin() + 20}).ok());
  ASSERT_TRUE(engine->AttachPartition(std::move(partition)).ok());
  // Inserts after the attach grow the owned index's arena while the
  // partition's stays frozen — both must keep scanning correctly.
  for (int64_t i = 20; i < 30; ++i) {
    ASSERT_TRUE(engine->Insert(corpus[static_cast<size_t>(i)].first,
                               corpus[static_cast<size_t>(i)].second)
                    .ok());
  }

  // Reference: the per-entry path over one monolithic index holding the
  // whole served corpus in the engine's id order.
  SketchIndex monolith;
  std::vector<std::pair<std::string, PrivateSketch>> in_engine_order;
  for (const std::string& id : engine->ids()) {
    for (const auto& item : corpus) {
      if (item.first == id) in_engine_order.push_back(item);
    }
  }
  ASSERT_EQ(in_engine_order.size(), corpus.size());
  ASSERT_TRUE(monolith.AddBatch(std::move(in_engine_order)).ok());
  const std::vector<SketchIndex::Neighbor> ref_scan =
      ReferenceScan(monolith, query);

  for (const KernelOps* table : AllTables()) {
    KernelOverride pin(table);
    SCOPED_TRACE(table->name);
    const auto got = engine->NearestNeighbors(query, 7).value();
    EXPECT_EQ(NeighborBytes(got), NeighborBytes(ReferenceNearest(ref_scan, 7)));
    const double radius = ref_scan[15].squared_distance;
    const auto hits = engine->RangeQuery(query, radius).value();
    EXPECT_EQ(NeighborBytes(hits),
              NeighborBytes(ReferenceRange(ref_scan, radius)));
    const auto matrix = engine->AllPairsDistances().value();
    EXPECT_TRUE(MatrixBytesEqual(matrix, ReferenceAllPairs(monolith)));
  }
}

TEST(ScanEngineTest, SegmentedAllPairsMatchesMergedIndexAcrossSeams) {
  const int64_t d = 24;
  const int64_t k = 13;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
  Rng rng(DeriveSeed(kTestSeed, 99));
  // An owned index of 5, then partitions of 1, 7, 9, 16 and 150: the
  // segment seams (5, 6, 13, 22, 38) all fall mid-block, and the last
  // partition spans more than one 16-block scan unit, so its scan splits.
  const int64_t kOwned = 5;
  const int64_t kPartitionSizes[] = {1, 7, 9, 16, 150};
  const int64_t kTotal = 188;
  std::vector<std::pair<std::string, PrivateSketch>> corpus;
  for (int64_t i = 0; i < kTotal; ++i) {
    corpus.emplace_back("seg-" + std::to_string((i * 17) % kTotal),
                        sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                        static_cast<uint64_t>(1 + i)));
  }
  // Position 178 ("seg-18", in the 150-partition's second unit) repeats
  // position 2 ("seg-34", owned): probe 0 is that sketch, so both copies
  // tie as its nearest and the later-scanned, smaller id must win top 1.
  corpus[178].second = corpus[2].second;
  SketchIndex merged;
  ASSERT_TRUE(merged.AddBatch(corpus).ok());
  const SketchIndex::DistanceMatrix reference = ReferenceAllPairs(merged);

  // The same corpus as free-standing segments, for the *Across calls.
  std::vector<SketchIndex> parts(1 + std::size(kPartitionSizes));
  ASSERT_TRUE(parts[0].AddBatch({corpus.begin(), corpus.begin() + kOwned}).ok());
  auto next = corpus.begin() + kOwned;
  for (size_t p = 0; p < std::size(kPartitionSizes); ++p) {
    ASSERT_TRUE(parts[p + 1].AddBatch({next, next + kPartitionSizes[p]}).ok());
    next += kPartitionSizes[p];
  }
  std::vector<const SketchIndex*> segments;
  for (const SketchIndex& part : parts) segments.push_back(&part);

  // Probes 0..16, probe 4 repeating probe 2; per-entry references.
  std::vector<PrivateSketch> probes;
  std::vector<std::vector<SketchIndex::Neighbor>> ref_scans;
  for (int64_t i = 0; i < 17; ++i) {
    probes.push_back(i == 0   ? corpus[2].second
                     : i == 4 ? probes[2]
                              : sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                                static_cast<uint64_t>(5000 + i)));
    ref_scans.push_back(ReferenceScan(merged, probes.back()));
  }
  ASSERT_EQ(ref_scans[0][0].id, "seg-18");
  ASSERT_EQ(ref_scans[0][1].id, "seg-34");
  const double radius =
      std::max(0.0, ref_scans[0][kTotal / 2].squared_distance);
  const int64_t kTopNs[] = {1, 3, kTotal + 7};
  const int64_t kBatchSizes[] = {1, 8, 17};
  ThreadPool pool1(1), pool2(2), pool7(7);
  ThreadPool* const pools[] = {nullptr, &pool1, &pool2, &pool7};

  for (const KernelOps* table : AllTables()) {
    KernelOverride pin(table);
    for (ThreadPool* pool : pools) {
      SCOPED_TRACE(std::string("table=") + table->name +
                   " pool=" + PoolName(pool));
      const auto matrix = SketchIndex::AllPairsAcross(segments, pool);
      ASSERT_TRUE(matrix.ok()) << matrix.status();
      EXPECT_TRUE(MatrixBytesEqual(*matrix, reference));
      for (const int64_t top_n : kTopNs) {
        const auto nn =
            SketchIndex::NearestNeighborsAcross(segments, {&probes[0]}, top_n,
                                                pool);
        ASSERT_TRUE(nn.ok()) << nn.status();
        ASSERT_EQ(nn->size(), 1u);
        EXPECT_EQ(NeighborBytes(nn->front()),
                  NeighborBytes(ReferenceNearest(ref_scans[0], top_n)))
            << "top_n=" << top_n;
        for (const int64_t batch : kBatchSizes) {
          std::vector<const PrivateSketch*> tile;
          for (int64_t i = 0; i < batch; ++i) {
            tile.push_back(&probes[static_cast<size_t>(i)]);
          }
          const auto lists =
              SketchIndex::NearestNeighborsAcross(segments, tile, top_n, pool);
          ASSERT_TRUE(lists.ok()) << lists.status();
          ASSERT_EQ(static_cast<int64_t>(lists->size()), batch);
          for (size_t i = 0; i < lists->size(); ++i) {
            EXPECT_EQ(NeighborBytes((*lists)[i]),
                      NeighborBytes(ReferenceNearest(ref_scans[i], top_n)))
                << "batch=" << batch << " top_n=" << top_n << " probe=" << i;
          }
        }
      }
      const auto hits =
          SketchIndex::RangeQueryAcross(segments, probes[0], radius, pool);
      ASSERT_TRUE(hits.ok()) << hits.status();
      EXPECT_EQ(NeighborBytes(*hits),
                NeighborBytes(ReferenceRange(ref_scans[0], radius)));
    }
  }

  // The engine serves the same segments through the same plan.
  for (const int threads : {1, 2, 7}) {
    EngineOptions options;
    options.sketcher = Config(k);
    options.threads = threads;
    options.serving_threads = 1;
    auto engine = Engine::FromIndex(parts[0], options).value();
    for (size_t p = 1; p < parts.size(); ++p) {
      ASSERT_TRUE(engine->AttachPartition(parts[p]).ok());
    }
    ASSERT_EQ(engine->ids(), merged.ids());
    for (const KernelOps* table : AllTables()) {
      KernelOverride pin(table);
      SCOPED_TRACE(std::string("table=") + table->name +
                   " threads=" + std::to_string(threads));
      const auto matrix = engine->AllPairsDistances();
      ASSERT_TRUE(matrix.ok()) << matrix.status();
      EXPECT_TRUE(
          MatrixBytesEqual(*matrix, merged.AllPairsDistances().value()));
      EXPECT_TRUE(MatrixBytesEqual(*matrix, reference));
      for (const int64_t top_n : kTopNs) {
        EXPECT_EQ(NeighborBytes(engine->NearestNeighbors(probes[0], top_n).value()),
                  NeighborBytes(ReferenceNearest(ref_scans[0], top_n)));
        const auto batch = engine->SubmitQueryBatch(probes, top_n).Get();
        ASSERT_TRUE(batch.ok()) << batch.status();
        for (size_t i = 0; i < probes.size(); ++i) {
          EXPECT_EQ(NeighborBytes((*batch)[i]),
                    NeighborBytes(ReferenceNearest(ref_scans[i], top_n)));
        }
      }
      EXPECT_EQ(NeighborBytes(engine->RangeQuery(probes[0], radius).value()),
                NeighborBytes(ReferenceRange(ref_scans[0], radius)));
    }
  }
}

TEST(ScanEngineTest, PreRaisedCancelTokenFailsEveryScanWithCancelled) {
  const int64_t d = 24;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(13));
  Rng rng(DeriveSeed(kTestSeed, 123));
  std::vector<std::pair<std::string, PrivateSketch>> corpus;
  for (int64_t i = 0; i < 200; ++i) {
    corpus.emplace_back("c-" + std::to_string(i),
                        sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                        static_cast<uint64_t>(1 + i)));
  }
  const PrivateSketch probe =
      sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 9999);
  SketchIndex whole;
  ASSERT_TRUE(whole.AddBatch(corpus).ok());
  // Four segments of 50: the cancel must reach every layout.
  std::vector<SketchIndex> quarters(4);
  for (size_t q = 0; q < quarters.size(); ++q) {
    ASSERT_TRUE(quarters[q]
                    .AddBatch({corpus.begin() + 50 * q,
                               corpus.begin() + 50 * (q + 1)})
                    .ok());
  }
  const std::vector<const SketchIndex*> one = {&whole};
  const std::vector<const SketchIndex*> four = {&quarters[0], &quarters[1],
                                                &quarters[2], &quarters[3]};
  std::atomic<bool> raised{true};
  const CancelToken cancel(&raised);
  ThreadPool pool2(2);
  for (const std::vector<const SketchIndex*>* segments : {&one, &four}) {
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2}) {
      SCOPED_TRACE("segments=" + std::to_string(segments->size()) +
                   " pool=" + PoolName(pool));
      EXPECT_EQ(SketchIndex::NearestNeighborsAcross(*segments, {&probe, &probe},
                                                    5, pool, cancel)
                    .status()
                    .code(),
                StatusCode::kCancelled);
      EXPECT_EQ(SketchIndex::RangeQueryAcross(*segments, probe, 1e12, pool,
                                              cancel)
                    .status()
                    .code(),
                StatusCode::kCancelled);
      // A token that is not raised leaves the same calls answering.
      EXPECT_TRUE(SketchIndex::NearestNeighborsAcross(*segments, {&probe}, 5,
                                                      pool, CancelToken())
                      .ok());
    }
  }
}

TEST(ScanEngineTest, DeserializeAndFromPartitionsRebuildArenas) {
  const int64_t d = 24;
  const int64_t k = 13;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
  Rng rng(DeriveSeed(kTestSeed, 88));
  SketchIndex index;
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(index
                    .Add("s-" + std::to_string(i),
                         sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                         static_cast<uint64_t>(1 + i)))
                    .ok());
  }
  const PrivateSketch query =
      sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 9999);
  const std::vector<SketchIndex::Neighbor> ref_scan =
      ReferenceScan(index, query);
  const double radius = ref_scan[9].squared_distance;

  const SketchIndex decoded =
      SketchIndex::Deserialize(index.Serialize()).value();
  const auto exported = index.ExportPartitions(3).value();
  const SketchIndex merged =
      SketchIndex::FromPartitions(exported.manifest, exported.partitions)
          .value();
  // Arenas rebuilt through two different ingestion paths must scan
  // byte-identically to the original and to the per-entry reference.
  for (const SketchIndex* rebuilt :
       std::initializer_list<const SketchIndex*>{&index, &decoded, &merged}) {
    EXPECT_EQ(NeighborBytes(rebuilt->NearestNeighbors(query, 6).value()),
              NeighborBytes(ReferenceNearest(ref_scan, 6)));
    EXPECT_EQ(NeighborBytes(rebuilt->RangeQuery(query, radius).value()),
              NeighborBytes(ReferenceRange(ref_scan, radius)));
    EXPECT_TRUE(
        MatrixBytesEqual(rebuilt->AllPairsDistances().value(),
                         ReferenceAllPairs(index)));
  }
  // Add into a deserialized index: the rebuilt arena keeps growing.
  SketchIndex grown = SketchIndex::Deserialize(index.Serialize()).value();
  ASSERT_TRUE(
      grown.Add("late", sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 555))
          .ok());
  EXPECT_EQ(NeighborBytes(grown.NearestNeighbors(query, 25).value()),
            NeighborBytes(ReferenceScan(grown, query)));
}

TEST(ScanEngineTest, IncompatibleQueryFailsWithTheEstimatorError) {
  const int64_t d = 24;
  const PrivateSketcher stored = MakeSketcherOrDie(d, Config(13));
  SketcherConfig other = Config(13);
  other.projection_seed = kTestSeed + 1;
  const PrivateSketcher alien = MakeSketcherOrDie(d, other);
  Rng rng(kTestSeed);
  SketchIndex index;
  ASSERT_TRUE(
      index.Add("a", stored.Sketch(DenseGaussianVector(d, 1.0, &rng), 1)).ok());
  const PrivateSketch query =
      alien.Sketch(DenseGaussianVector(d, 1.0, &rng), 2);
  // The expected status: exactly what the per-pair estimator returns.
  const Status expected =
      EstimateSquaredDistance(query, *index.Find("a")).status();
  ASSERT_EQ(expected.code(), StatusCode::kFailedPrecondition);
  for (const auto& result :
       {index.NearestNeighbors(query, 3), index.RangeQuery(query, 1e6)}) {
    EXPECT_EQ(result.status().code(), expected.code());
    EXPECT_EQ(result.status().message(), expected.message());
  }
  // In a batch, one incompatible probe fails the whole call the same way;
  // an invalid top_n is reported first, as NearestNeighbors does.
  const PrivateSketch good =
      stored.Sketch(DenseGaussianVector(d, 1.0, &rng), 3);
  const auto batch = index.NearestNeighborsBatch({&good, &good, &query}, 3);
  EXPECT_EQ(batch.status().code(), expected.code());
  EXPECT_EQ(batch.status().message(), expected.message());
  EXPECT_EQ(index.NearestNeighborsBatch({&good, &query}, 0).status().code(),
            StatusCode::kInvalidArgument);
  const auto empty = index.NearestNeighborsBatch({}, 3);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->empty());
}

TEST(ScanEngineTest, NormCachingLeavesEstimatorOutputsUnchanged) {
  const int64_t d = 24;
  for (const int64_t k : {int64_t{3}, int64_t{13}, int64_t{96}}) {
    const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
    Rng rng(DeriveSeed(kTestSeed, static_cast<uint64_t>(k)));
    const PrivateSketch a =
        sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 1);
    const PrivateSketch b =
        sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 2);
    // The memoized raw norm must be bit-identical to the on-demand loop it
    // replaced (same ascending-index accumulation).
    double loop_norm = 0.0;
    for (const double v : a.values()) loop_norm += v * v;
    EXPECT_EQ(a.RawSquaredNorm(), loop_norm);
    EXPECT_EQ(EstimateSquaredNorm(a), loop_norm - a.metadata().noise_center);
    // Downstream estimators reproduce their formulas over the cached norm.
    const double dist = EstimateSquaredDistance(a, b).value();
    EXPECT_EQ(EstimateInnerProduct(a, b).value(),
              0.5 * (EstimateSquaredNorm(a) + EstimateSquaredNorm(b) - dist));
    // The index serves norm estimates from the arena's cached copies.
    SketchIndex index;
    ASSERT_TRUE(index.Add("a", a).ok());
    ASSERT_TRUE(index.Add("b", b).ok());
    const std::vector<double> norms = index.SquaredNormEstimates();
    ASSERT_EQ(norms.size(), 2u);
    EXPECT_EQ(norms[0], EstimateSquaredNorm(a));
    EXPECT_EQ(norms[1], EstimateSquaredNorm(b));
  }
}

TEST(ScanEngineTest, FindCopiesOutTheAddedSketchAfterLaterAdds) {
  // The arena is the only copy of the values: Find() rebuilds the sketch
  // from its lane, and must hand back exactly the bytes that were added,
  // after later Adds grew the arena past the first block.
  const int64_t d = 24;
  const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(13));
  for (const KernelOps* table : AllTables()) {
    KernelOverride pin(table);
    SCOPED_TRACE(std::string("table=") + table->name);
    Rng rng(kTestSeed);
    const PrivateSketch first =
        sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng), 1);
    SketchIndex index;
    ASSERT_TRUE(index.Add("first", first).ok());
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(index
                      .Add("more-" + std::to_string(i),
                           sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                           10 + static_cast<uint64_t>(i)))
                      .ok());
    }
    const std::optional<PrivateSketch> found = index.Find("first");
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->Serialize(), first.Serialize());
    EXPECT_EQ(found->RawSquaredNorm(), first.RawSquaredNorm());
  }
}

TEST(ScanEngineTest, EveryLaneCopiesOutBitIdenticalSketches) {
  // Every lane position of full and zero-padded tail blocks, in arenas
  // grown by Add and rebuilt by Deserialize / FromPartitions.
  const int64_t d = 24;
  for (const int64_t k : {int64_t{3}, int64_t{13}, int64_t{96}}) {
    const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
    for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{9},
                            int64_t{17}}) {
      Rng rng(DeriveSeed(kTestSeed, static_cast<uint64_t>(k * 100 + n)));
      std::vector<std::pair<std::string, PrivateSketch>> added;
      SketchIndex index;
      for (int64_t i = 0; i < n; ++i) {
        added.emplace_back("lane-" + std::to_string(i),
                           sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                           static_cast<uint64_t>(1 + i)));
        ASSERT_TRUE(index.Add(added.back().first, added.back().second).ok());
      }
      const SketchIndex reloaded =
          SketchIndex::Deserialize(index.Serialize()).value();
      const auto exported = index.ExportPartitions(3).value();
      const SketchIndex merged =
          SketchIndex::FromPartitions(exported.manifest, exported.partitions)
              .value();
      for (const KernelOps* table : AllTables()) {
        KernelOverride pin(table);
        SCOPED_TRACE(std::string("table=") + table->name +
                     " k=" + std::to_string(k) + " n=" + std::to_string(n));
        for (const SketchIndex* source :
             std::vector<const SketchIndex*>{&index, &reloaded, &merged}) {
          for (const auto& [id, sketch] : added) {
            const std::optional<PrivateSketch> found = source->Find(id);
            ASSERT_TRUE(found.has_value()) << id;
            EXPECT_EQ(found->Serialize(), sketch.Serialize()) << id;
            EXPECT_EQ(found->RawSquaredNorm(), sketch.RawSquaredNorm()) << id;
          }
        }
      }
    }
  }
}

TEST(ScanEngineTest, StoredPairDistancesMatchTheEstimatorOnAddedSketches) {
  // SquaredDistance rebuilds both sketches from the arena; the estimate
  // must be bit-identical to the estimator on the sketches as added.
  const int64_t d = 24;
  for (const int64_t k : {int64_t{3}, int64_t{13}, int64_t{96}}) {
    const PrivateSketcher sketcher = MakeSketcherOrDie(d, Config(k));
    Rng rng(DeriveSeed(kTestSeed, static_cast<uint64_t>(k)));
    std::vector<std::pair<std::string, PrivateSketch>> added;
    for (int64_t i = 0; i < 11; ++i) {
      added.emplace_back("p-" + std::to_string(i),
                         sketcher.Sketch(DenseGaussianVector(d, 1.0, &rng),
                                         static_cast<uint64_t>(1 + i)));
    }
    SketchIndex index;
    ASSERT_TRUE(index.AddBatch(added).ok());
    for (const KernelOps* table : AllTables()) {
      KernelOverride pin(table);
      SCOPED_TRACE(std::string("table=") + table->name +
                   " k=" + std::to_string(k));
      for (const auto& a : added) {
        for (const auto& b : added) {
          const double stored = index.SquaredDistance(a.first, b.first).value();
          const double direct =
              EstimateSquaredDistance(a.second, b.second).value();
          EXPECT_EQ(std::memcmp(&stored, &direct, sizeof(double)), 0)
              << a.first << " vs " << b.first;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dpjl
