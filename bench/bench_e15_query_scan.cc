// E15 — query-path scan throughput: what did the sketch arenas buy?
//
// Not a paper experiment: this measures the blocked SoA scan engine behind
// SketchIndex queries (lane-interleaved arenas + multi-candidate distance
// kernels) against the per-entry path it replaced. The per-entry "before"
// algorithm — one EstimateSquaredDistance call per stored sketch, full
// deterministic sort — lives on inside this bench as the reference series,
// so before/after stay comparable on one binary; tests/scan_engine_test.cc
// proves the two paths are byte-identical, which makes this a pure
// throughput comparison.
//
// Measured grid: op (nn_top10 / range / all_pairs) x kernel table (scalar
// pinned / auto-dispatched best) x path (per_entry / arena), plus the
// arena-only nn_batch8 (an 8-probe NearestNeighborsBatch, timed per
// probe, to set against nn_top10). NN and range scan a 10240-sketch
// corpus at sketch dim 96; all-pairs uses a 2048-item
// subset (the per-entry quadratic pass would otherwise dominate the bench's
// runtime). Everything is single-threaded (pool = nullptr): the arena's win
// must come from memory layout and SIMD width, not parallelism.
//
// Usage: bench_e15_query_scan [per_entry|arena|all] [out.json]
//
// Running it twice — `per_entry before.json`, then `arena after.json` —
// produces series with matching names ("op/kernels") for
// tools/bench_compare.py, which flags >10% mean-time regressions.
//
// Plain bench on purpose (own main): the series grid, the path switch, and
// the JSON contract with bench_compare.py don't fit the Google-Benchmark
// registration model, and gating on the system package would make the
// before/after artifacts machine-dependent.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/core/estimators.h"
#include "src/core/sketch_index.h"
#include "src/core/sketcher.h"
#include "src/linalg/kernels.h"
#include "src/random/rng.h"
#include "src/workload/generators.h"

namespace dpjl {
namespace {

constexpr uint64_t kSeed = 0xE15ACA9ULL;
constexpr int64_t kDim = 128;        // input dimension d
constexpr int64_t kSketchDim = 96;   // sketch dimension k
constexpr int64_t kCorpus = 10240;   // NN / range corpus
constexpr int64_t kPairsCorpus = 2048;  // all-pairs corpus (quadratic op)
constexpr int64_t kTopN = 10;
constexpr int kBatchProbes = 8;  // probes per nn_batch8 call
constexpr int kScanSamples = 30;
constexpr int kScanWarmup = 3;
constexpr int kPairsSamples = 3;
constexpr int kPairsWarmup = 1;

SketcherConfig Config() {
  SketcherConfig config;
  config.k_override = kSketchDim;
  config.epsilon = 1.0;
  config.projection_seed = kSeed;
  return config;
}

struct Workload {
  SketchIndex index;
  SketchIndex pairs_index;
  std::vector<PrivateSketch> probes;
  double range_radius = 0.0;
};

Workload BuildWorkload() {
  auto sketcher = PrivateSketcher::Create(kDim, Config());
  DPJL_CHECK(sketcher.ok(), sketcher.status().ToString());
  Rng rng(kSeed);
  Workload w;
  for (int64_t i = 0; i < kCorpus; ++i) {
    PrivateSketch sketch = sketcher->Sketch(DenseGaussianVector(kDim, 1.0, &rng),
                                            kSeed + 1 + static_cast<uint64_t>(i));
    if (i < kPairsCorpus) {
      DPJL_CHECK_OK(w.pairs_index.Add("doc" + std::to_string(i), sketch));
    }
    DPJL_CHECK_OK(w.index.Add("doc" + std::to_string(i), std::move(sketch)));
  }
  for (int i = 0; i < 64; ++i) {
    w.probes.push_back(sketcher->Sketch(DenseGaussianVector(kDim, 1.0, &rng),
                                        kSeed + 70000 + static_cast<uint64_t>(i)));
  }
  // A radius admitting roughly 1% of the corpus, so the range op measures
  // the scan, not the result-vector copy.
  std::vector<double> dists;
  for (const std::string& id : w.index.ids()) {
    dists.push_back(
        EstimateSquaredDistance(w.probes[0], *w.index.Find(id)).value());
  }
  std::sort(dists.begin(), dists.end());
  w.range_radius = std::max(0.0, dists[static_cast<size_t>(kCorpus / 100)]);
  return w;
}

// ---------------------------------------------------------------------------
// The pre-arena per-entry path, preserved verbatim as the "before" series:
// one per-pair estimator call per entry, then the deterministic sort.

std::vector<SketchIndex::Neighbor> PerEntryNearest(const SketchIndex& index,
                                                   const PrivateSketch& query,
                                                   int64_t top_n) {
  std::vector<SketchIndex::Neighbor> all;
  all.reserve(static_cast<size_t>(index.size()));
  for (const std::string& id : index.ids()) {
    all.push_back(SketchIndex::Neighbor{
        id, EstimateSquaredDistance(query, *index.Find(id)).value()});
  }
  const auto keep = std::min<size_t>(all.size(), static_cast<size_t>(top_n));
  std::partial_sort(all.begin(), all.begin() + static_cast<int64_t>(keep),
                    all.end(), SketchIndex::NeighborLess);
  all.resize(keep);
  return all;
}

std::vector<SketchIndex::Neighbor> PerEntryRange(const SketchIndex& index,
                                                 const PrivateSketch& query,
                                                 double radius_sq) {
  std::vector<SketchIndex::Neighbor> hits;
  for (const std::string& id : index.ids()) {
    const double dist =
        EstimateSquaredDistance(query, *index.Find(id)).value();
    if (dist <= radius_sq) hits.push_back(SketchIndex::Neighbor{id, dist});
  }
  std::sort(hits.begin(), hits.end(), SketchIndex::NeighborLess);
  return hits;
}

SketchIndex::DistanceMatrix PerEntryAllPairs(const SketchIndex& index) {
  SketchIndex::DistanceMatrix matrix;
  matrix.ids = index.ids();
  const int64_t n = static_cast<int64_t>(matrix.ids.size());
  matrix.values.assign(static_cast<size_t>(n * n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    const PrivateSketch a = *index.Find(matrix.ids[static_cast<size_t>(i)]);
    for (int64_t j = i + 1; j < n; ++j) {
      const double dist =
          EstimateSquaredDistance(a, *index.Find(matrix.ids[static_cast<size_t>(j)]))
              .value();
      matrix.values[static_cast<size_t>(i * n + j)] = dist;
      matrix.values[static_cast<size_t>(j * n + i)] = dist;
    }
  }
  return matrix;
}

// ---------------------------------------------------------------------------

struct Series {
  std::string name;  // "op/kernels", identical across before/after runs
  std::string path;
  int64_t corpus = 0;
  double mean_us = 0;
  double p50_us = 0;
  double entries_per_sec = 0;
};

Series Measure(const std::string& name, const std::string& path,
               int64_t corpus, int samples, int warmup,
               const std::function<void(int)>& call) {
  for (int i = 0; i < warmup; ++i) call(i);
  std::vector<double> us;
  us.reserve(static_cast<size_t>(samples));
  Timer timer;
  for (int i = 0; i < samples; ++i) {
    timer.Restart();
    call(i);
    us.push_back(static_cast<double>(timer.ElapsedNanos()) / 1000.0);
  }
  std::sort(us.begin(), us.end());
  Series s;
  s.name = name;
  s.path = path;
  s.corpus = corpus;
  s.p50_us = us[us.size() / 2];
  double sum = 0;
  for (double v : us) sum += v;
  s.mean_us = sum / static_cast<double>(us.size());
  s.entries_per_sec = static_cast<double>(corpus) / (s.mean_us * 1e-6);
  return s;
}

}  // namespace

int Run(const char* path_filter, const char* json_path) {
  const bool run_per_entry =
      std::strcmp(path_filter, "per_entry") == 0 || std::strcmp(path_filter, "all") == 0;
  const bool run_arena =
      std::strcmp(path_filter, "arena") == 0 || std::strcmp(path_filter, "all") == 0;
  DPJL_CHECK(run_per_entry || run_arena,
             "path filter must be per_entry, arena or all");

  std::cerr << "building workload (" << kCorpus << " sketches, k="
            << kSketchDim << ")...\n";
  const Workload w = BuildWorkload();
  std::vector<Series> results;
  // `sink` defeats dead-code elimination across all measured calls.
  double sink = 0.0;

  struct KernelMode {
    const char* label;
    const KernelOps* table;  // nullptr = startup auto-dispatch
  };
  const KernelMode modes[] = {{"scalar", &ScalarKernels()}, {"auto", nullptr}};

  for (const KernelMode& mode : modes) {
    SetKernelsForTest(mode.table);
    const std::string suffix = std::string("/") + mode.label;
    auto probe = [&](int i) -> const PrivateSketch& {
      return w.probes[static_cast<size_t>(i) % w.probes.size()];
    };
    if (run_per_entry) {
      results.push_back(Measure(
          "nn_top10" + suffix, "per_entry", kCorpus, kScanSamples, kScanWarmup,
          [&](int i) {
            sink += PerEntryNearest(w.index, probe(i), kTopN)[0].squared_distance;
          }));
      results.push_back(Measure(
          "range" + suffix, "per_entry", kCorpus, kScanSamples, kScanWarmup,
          [&](int i) {
            sink += static_cast<double>(
                PerEntryRange(w.index, probe(i), w.range_radius).size());
          }));
      results.push_back(Measure(
          "all_pairs" + suffix, "per_entry", kPairsCorpus, kPairsSamples,
          kPairsWarmup, [&](int) {
            sink += PerEntryAllPairs(w.pairs_index).values.back();
          }));
      std::cerr << "  measured per_entry" << suffix << "\n";
    }
    if (run_arena) {
      results.push_back(Measure(
          "nn_top10" + suffix, "arena", kCorpus, kScanSamples, kScanWarmup,
          [&](int i) {
            auto r = w.index.NearestNeighbors(probe(i), kTopN);
            DPJL_CHECK(r.ok(), r.status().ToString());
            sink += (*r)[0].squared_distance;
          }));
      // One 8-probe batch per call, reported per probe: the batched
      // counterpart of nn_top10, one multi-probe arena pass per batch.
      Series batch = Measure(
          "nn_batch8" + suffix, "arena", kCorpus, kScanSamples, kScanWarmup,
          [&](int i) {
            std::vector<const PrivateSketch*> probes;
            for (int p = 0; p < kBatchProbes; ++p) {
              probes.push_back(&probe(i * kBatchProbes + p));
            }
            auto r = w.index.NearestNeighborsBatch(probes, kTopN);
            DPJL_CHECK(r.ok(), r.status().ToString());
            sink += (*r)[0][0].squared_distance;
          });
      batch.p50_us /= kBatchProbes;
      batch.mean_us /= kBatchProbes;
      batch.entries_per_sec = static_cast<double>(kCorpus) /
                              (batch.mean_us * 1e-6);
      results.push_back(batch);
      results.push_back(Measure(
          "range" + suffix, "arena", kCorpus, kScanSamples, kScanWarmup,
          [&](int i) {
            auto r = w.index.RangeQuery(probe(i), w.range_radius);
            DPJL_CHECK(r.ok(), r.status().ToString());
            sink += static_cast<double>(r->size());
          }));
      results.push_back(Measure(
          "all_pairs" + suffix, "arena", kPairsCorpus, kPairsSamples,
          kPairsWarmup, [&](int) {
            auto r = w.pairs_index.AllPairsDistances();
            DPJL_CHECK(r.ok(), r.status().ToString());
            sink += r->values.back();
          }));
      std::cerr << "  measured arena" << suffix << "\n";
    }
  }
  SetKernelsForTest(nullptr);

  std::cout << "\n=== E15 — query-path scan throughput ===\n"
            << "corpus " << kCorpus << " (all_pairs " << kPairsCorpus
            << ") x k=" << kSketchDim << ", single thread"
            << " (sink " << sink << ")\n\n";
  std::printf("%-18s %-10s %10s %12s %16s\n", "series", "path", "p50_us",
              "mean_us", "entries_per_sec");
  for (const Series& s : results) {
    std::printf("%-18s %-10s %10.1f %12.1f %16.0f\n", s.name.c_str(),
                s.path.c_str(), s.p50_us, s.mean_us, s.entries_per_sec);
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"e15_query_scan\",\n"
       << "  \"dim\": " << kDim << ",\n"
       << "  \"sketch_dim\": " << kSketchDim << ",\n"
       << "  \"corpus\": " << kCorpus << ",\n"
       << "  \"pairs_corpus\": " << kPairsCorpus << ",\n"
       << "  \"top_n\": " << kTopN << ",\n"
       << "  \"threads\": 1,\n"
       << "  \"series\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const Series& s = results[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"path\": \"%s\", \"corpus\": %lld, "
                  "\"p50_us\": %.1f, \"mean_us\": %.1f, "
                  "\"entries_per_sec\": %.0f}%s\n",
                  s.name.c_str(), s.path.c_str(),
                  static_cast<long long>(s.corpus), s.p50_us, s.mean_us,
                  s.entries_per_sec, i + 1 < results.size() ? "," : "");
    json << line;
  }
  json << "  ]\n}\n";

  if (json_path != nullptr) {
    std::ofstream out(json_path);
    DPJL_CHECK(out.good(), "cannot open json output path");
    out << json.str();
    std::cout << "\njson written to " << json_path << "\n";
  } else {
    std::cout << "\n" << json.str();
  }
  return 0;
}

}  // namespace dpjl

int main(int argc, char** argv) {
  return dpjl::Run(argc > 1 ? argv[1] : "all", argc > 2 ? argv[2] : nullptr);
}
