// Per-layer measurements for the traced run. Every figure times a public
// call into one layer from the benchmark's own code, or is the difference
// of two such spans taken for the same probe.

#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <memory>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/common/result.h"
#include "src/core/engine.h"
#include "src/core/sketch_index.h"
#include "src/core/snapshot.h"
#include "src/net/router.h"
#include "src/net/server.h"

namespace perfbench {

/// Loopback serving tier: one Engine + Server per manifest partition and a
/// Router over them. Servers stop before their engines are destroyed.
struct RoutedCluster {
  dpjl::ShardManifest manifest;
  std::vector<std::vector<dpjl::net::Endpoint>> groups;
  std::vector<std::unique_ptr<dpjl::Engine>> engines;
  std::vector<std::unique_ptr<dpjl::net::Server>> servers;
  std::unique_ptr<dpjl::net::Router> router;

  RoutedCluster() = default;
  ~RoutedCluster();
  RoutedCluster(const RoutedCluster&) = delete;
  RoutedCluster& operator=(const RoutedCluster&) = delete;
};

/// Splits `corpus` into `partitions` snapshot partitions, serves each from
/// its own Engine behind a loopback Server, and routes over them.
dpjl::Result<std::unique_ptr<RoutedCluster>> StartCluster(
    const dpjl::SketchIndex& corpus, int partitions,
    const dpjl::EngineOptions& options);

/// What the layer measurements run on: the workload's own sketcher, inputs,
/// corpus and serving objects.
struct LayerContext {
  const Sizes* sizes = nullptr;
  uint64_t seed = 0;
  const dpjl::PrivateSketcher* sketcher = nullptr;
  const std::vector<std::vector<double>>* vectors = nullptr;
  /// The corpus the workload queries, scanned directly by index.*.
  const dpjl::SketchIndex* corpus = nullptr;
  const std::vector<dpjl::PrivateSketch>* probes = nullptr;
  double radius_sq = 0;
  /// Engine serving `corpus`, for the queue-hop and batch-ratio figures.
  dpjl::Engine* engine = nullptr;
  /// The workload's serving tier; null = build one over the first
  /// sizes->routed_corpus sketches of `corpus` for the wire/router figures.
  RoutedCluster* cluster = nullptr;
  /// RSS growth over the workload's corpus build, per sketch.
  double bytes_per_sketch = 0;
};

/// Runs every layer measurement for about `seconds` in total, recording a
/// span per call in `tracer`, and appends the per-layer metrics to `out`
/// (except the engine counters and the traced loop's tail, which the
/// caller adds).
dpjl::Status MeasureLayers(const LayerContext& ctx, double seconds,
                           Tracer* tracer, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
