#ifndef DPJL_NET_ROUTER_H_
#define DPJL_NET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/annotated_mutex.h"
#include "src/common/request_queue.h"
#include "src/common/result.h"
#include "src/core/sketch.h"
#include "src/core/sketch_index.h"
#include "src/core/snapshot.h"
#include "src/net/client.h"

namespace dpjl {
namespace net {

/// One serving process address.
struct Endpoint {
  std::string host;
  int port = 0;

  std::string ToString() const { return host + ":" + std::to_string(port); }
};

/// Parses "host:port"; kInvalidArgument on anything else.
Result<Endpoint> ParseEndpoint(const std::string& text);

/// Manifest-routed query front over a set of serving processes.
///
/// A Router is created from a ShardManifest (the same artifact
/// `dpjl_tool index export-shards` writes and FromPartitions merges) plus
/// one replica group per manifest partition: every endpoint in group i
/// must serve partition i's sketches. Corpus queries fan out to one
/// replica of every group that can contain hits (count == 0 groups are
/// never contacted) and the partial results merge by the deterministic
/// (distance, id) order — byte-identical to querying one merged index,
/// which is the distributed tier's core guarantee.
///
/// Point lookups (GetSketch, and the id resolution inside
/// SquaredDistance) avoid scatter when the manifest's id ranges are
/// totally ordered (first_i <= last_i and last_i < first_{i+1} across the
/// non-empty partitions): then each id maps to at most one group.
/// Manifests whose insertion-order ranges interleave lexicographically —
/// the "rowN" naming does — fall back to conservative scatter, which is
/// always correct.
///
/// Replica failover: each group rotates round-robin across its replicas
/// per call; a replica answering `kUnavailable` (dead, unreachable, hung
/// past its deadline) is skipped and the next one tried, so a killed
/// server degrades capacity, never correctness. Only when every replica
/// of a needed group is down does the call fail with kUnavailable. When
/// one endpoint serves several partitions (it appears in several groups),
/// a fan-out contacts it exactly once — duplicate answers would break the
/// byte-identity of the merged result.
///
/// Thread safety: all calls are safe concurrently (shared Clients are
/// themselves concurrency-safe; per-group rotation is atomic).
class Router {
 public:
  /// `replica_groups[i]` lists the endpoints serving manifest partition i;
  /// sizes must match and every group of a non-empty partition must have
  /// at least one replica.
  static Result<std::unique_ptr<Router>> Create(
      ShardManifest manifest, std::vector<std::vector<Endpoint>> replica_groups,
      ClientOptions client_options = {});

  const ShardManifest& manifest() const { return manifest_; }
  /// True when the manifest's id ranges admit point routing (see above).
  bool range_routed() const { return range_routed_; }

  /// Merged top-n across all shards, byte-identical to the single-index
  /// answer. RequestOptions travel to every contacted server.
  Result<std::vector<SketchIndex::Neighbor>> NearestNeighbors(
      const PrivateSketch& query, int64_t top_n,
      const RequestOptions& request = {});

  /// Merged range query, in the same deterministic order.
  Result<std::vector<SketchIndex::Neighbor>> RangeQuery(
      const PrivateSketch& query, double radius_sq,
      const RequestOptions& request = {});

  /// result[i] is byte-identical to NearestNeighbors(queries[i], top_n).
  /// One batched RPC per contacted server, merged per probe.
  Result<std::vector<std::vector<SketchIndex::Neighbor>>> BatchQuery(
      const std::vector<PrivateSketch>& queries, int64_t top_n,
      const RequestOptions& request = {});

  /// Cross-shard distance: resolves each id to its sketch (point-routed
  /// when possible), then estimates locally — the two ids may live on
  /// different serving processes.
  Result<double> SquaredDistance(const std::string& id_a,
                                 const std::string& id_b,
                                 const RequestOptions& request = {});

  /// Point lookup of a stored sketch; kNotFound when no shard holds it.
  Result<PrivateSketch> GetSketch(const std::string& id,
                                  const RequestOptions& request = {});

  /// Stats of every distinct endpoint, one "== endpoint ==" section each
  /// (monitoring convenience; not part of the determinism contract).
  Result<std::string> Stats(const RequestOptions& request = {});

 private:
  Router(ShardManifest manifest,
         std::vector<std::vector<Endpoint>> replica_groups,
         ClientOptions client_options);

  /// The shared Client for an endpoint, created on first use.
  Client* ClientFor(const Endpoint& endpoint);

  /// Runs `call` against one replica of group `group`, rotating
  /// round-robin and failing over past kUnavailable replicas; any other
  /// status returns as-is. With `dead`, replicas listed in it are skipped
  /// and each one that answers kUnavailable is added to it; `answered`, if
  /// given, receives the endpoint whose result (OK or not) is returned.
  /// (Defined in router.cc; instantiated there only.)
  template <typename T>
  Result<T> CallGroup(size_t group,
                      const std::function<Result<T>(Client*)>& call,
                      std::set<std::string>* dead = nullptr,
                      const Endpoint** answered = nullptr);

  /// Fans `call` out to an exact cover of the non-empty groups — one
  /// CallGroup per distinct endpoint (an endpoint covering several groups
  /// is called once; an endpoint found dead is not retried for a later
  /// group) — and returns the per-endpoint answers. kUnavailable when some
  /// needed group has no live replica.
  template <typename T>
  Result<std::vector<T>> FanOut(const std::function<Result<T>(Client*)>& call);

  /// True when manifest id ranges are lexicographically ordered and
  /// disjoint across non-empty partitions.
  static bool RangesOrdered(const ShardManifest& manifest);

  /// Group that can hold `id` under ordered ranges; -1 when none can.
  int64_t GroupForId(const std::string& id) const;

  const ShardManifest manifest_;
  const std::vector<std::vector<Endpoint>> replica_groups_;
  const ClientOptions client_options_;
  const bool range_routed_;

  /// Per-group round-robin cursors.
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> cursors_;

  Mutex clients_mutex_;
  std::unordered_map<std::string, std::unique_ptr<Client>> clients_
      GUARDED_BY(clients_mutex_);
};

}  // namespace net
}  // namespace dpjl

#endif  // DPJL_NET_ROUTER_H_
