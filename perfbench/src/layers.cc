#include "perfbench/src/layers.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "src/common/top_k.h"
#include "src/core/batch_sketcher.h"
#include "src/linalg/kernels.h"
#include "src/net/client.h"
#include "src/net/frame.h"
#include "src/random/rng.h"
#include "src/random/splitmix64.h"

namespace perfbench {

using dpjl::Engine;
using dpjl::PrivateSketch;
using dpjl::Result;
using dpjl::SketchIndex;
using dpjl::Status;
namespace net = dpjl::net;

RoutedCluster::~RoutedCluster() {
  router.reset();
  for (auto& server : servers) server->Stop();
}

Result<std::unique_ptr<RoutedCluster>> StartCluster(
    const SketchIndex& corpus, int partitions, const dpjl::EngineOptions& options) {
  DPJL_ASSIGN_OR_RETURN(SketchIndex::PartitionedSnapshot exported,
                        corpus.ExportPartitions(partitions));
  auto cluster = std::make_unique<RoutedCluster>();
  cluster->manifest = std::move(exported.manifest);
  for (const std::string& blob : exported.partitions) {
    DPJL_ASSIGN_OR_RETURN(SketchIndex part, SketchIndex::Deserialize(blob));
    DPJL_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                          Engine::FromIndex(std::move(part), options));
    cluster->engines.push_back(std::move(engine));
    DPJL_ASSIGN_OR_RETURN(std::unique_ptr<net::Server> server,
                          net::Server::Start(cluster->engines.back().get(), {}));
    cluster->groups.push_back({net::Endpoint{server->host(), server->port()}});
    cluster->servers.push_back(std::move(server));
  }
  DPJL_ASSIGN_OR_RETURN(cluster->router,
                        net::Router::Create(cluster->manifest, cluster->groups));
  return cluster;
}

namespace {

using NeighborList = std::vector<SketchIndex::Neighbor>;

// Repeats `step(i)` until `budget_s` has passed, at least `min_reps` times.
void Repeat(double budget_s, int64_t min_reps, const std::function<void(int64_t)>& step) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (int64_t i = 0; i < min_reps || NowNs() < deadline; ++i) step(i);
}

double PerItem(const std::vector<double>& us, double items) {
  return MedianOf(us) / items;
}

// Median over probes of (span `outer` - span `inner`) for the same probe.
double MedianDifference(const Tracer& tracer, const char* outer, const char* inner) {
  const auto a = tracer.ByProbe(outer);
  const auto b = tracer.ByProbe(inner);
  std::vector<double> diffs;
  size_t j = 0;
  for (const auto& [probe, us] : a) {
    while (j < b.size() && b[j].first < probe) ++j;
    if (j < b.size() && b[j].first == probe) diffs.push_back(us - b[j].second);
  }
  return MedianOf(std::move(diffs));
}

// A SketchIndex over the first `limit` sketches of `corpus` (insertion order).
Result<SketchIndex> Prefix(const SketchIndex& corpus, int64_t limit) {
  std::vector<std::pair<std::string, PrivateSketch>> items;
  for (const std::string& id : corpus.ids()) {
    if (static_cast<int64_t>(items.size()) >= limit) break;
    items.emplace_back(id, *corpus.Find(id));
  }
  SketchIndex prefix;
  DPJL_RETURN_IF_ERROR(prefix.AddBatch(std::move(items)));
  return prefix;
}

}  // namespace

Status MeasureLayers(const LayerContext& ctx, double seconds, Tracer* tracer,
                     Outcome* out) {
  const Sizes& sizes = *ctx.sizes;
  const auto& vectors = *ctx.vectors;
  const auto& probes = *ctx.probes;
  const dpjl::PrivateSketcher& sketcher = *ctx.sketcher;
  const int64_t k = sketcher.output_dim();
  const int64_t batch = std::min<int64_t>(sizes.ingest_batch,
                                          static_cast<int64_t>(vectors.size()));
  const auto vec_at = [&](int64_t i) -> const std::vector<double>& {
    return vectors[static_cast<size_t>(i % static_cast<int64_t>(vectors.size()))];
  };
  const auto probe_at = [&](int64_t i) -> const PrivateSketch& {
    return probes[static_cast<size_t>(i % static_cast<int64_t>(probes.size()))];
  };
  // One id per measured probe instance, so spans of one probe pair up.
  int64_t next_probe = 0;
  constexpr int kGroups = 12;
  const double slice = seconds / kGroups;

  // --- jl: the public projection ------------------------------------------
  {
    const std::vector<std::vector<double>> block_inputs(vectors.begin(),
                                                        vectors.begin() + batch);
    std::vector<std::vector<double>> ys;
    std::vector<double> scratch;
    Repeat(slice / 2, 3, [&](int64_t i) {
      tracer->Time("jl.apply", ++next_probe, [&] {
        std::vector<double> y = sketcher.transform().Apply(vec_at(i));
        (void)y;
      });
    });
    ys.resize(static_cast<size_t>(batch));
    Repeat(slice / 2, 3, [&](int64_t) {
      tracer->Time("jl.apply_block", ++next_probe, [&] {
        sketcher.transform().ApplyBlock(block_inputs.data(), batch, ys.data(), &scratch);
      });
    });
    out->Add("jl.apply_us", MedianOf(tracer->DurationsUs("jl.apply")), "us");
    out->Add("jl.apply_block_us_per_vec",
             PerItem(tracer->DurationsUs("jl.apply_block"), static_cast<double>(batch)),
             "us");
  }

  // --- dp: output noise on one k-vector ------------------------------------
  {
    dpjl::Rng rng(dpjl::DeriveSeed(ctx.seed, 0xD0));
    const std::vector<double> clean = sketcher.transform().Apply(vec_at(0));
    Repeat(slice, 3, [&](int64_t) {
      std::vector<double> values = clean;
      tracer->Time("dp.noise", ++next_probe,
                   [&] { sketcher.mechanism().AddNoise(&values, &rng); });
    });
    out->Add("dp.noise_us", MedianOf(tracer->DurationsUs("dp.noise")), "us");
  }

  // --- sketcher: single and batch release ----------------------------------
  {
    const dpjl::BatchSketcher batcher(&sketcher);
    const std::vector<std::vector<double>> batch_inputs(vectors.begin(),
                                                        vectors.begin() + batch);
    Repeat(slice / 2, 3, [&](int64_t i) {
      tracer->Time("sketcher.sketch", ++next_probe, [&] {
        PrivateSketch s = sketcher.Sketch(vec_at(i), dpjl::DeriveSeed(ctx.seed, 0xE000 + i));
        (void)s;
      });
    });
    Status failed = Status::OK();
    Repeat(slice / 2, 3, [&](int64_t i) {
      tracer->Time("sketcher.batch", ++next_probe, [&] {
        auto r = batcher.BatchSketch(batch_inputs, dpjl::DeriveSeed(ctx.seed, 0xF000 + i));
        if (!r.ok()) failed = r.status();
      });
    });
    DPJL_RETURN_IF_ERROR(failed);
    out->Add("sketcher.sketch_us", MedianOf(tracer->DurationsUs("sketcher.sketch")), "us");
    out->Add("sketcher.batch_us_per_vec",
             PerItem(tracer->DurationsUs("sketcher.batch"), static_cast<double>(batch)),
             "us");
  }

  // --- index: append (the write side) --------------------------------------
  {
    const std::vector<std::string>& ids = ctx.corpus->ids();
    std::vector<PrivateSketch> sketches;
    for (int64_t i = 0; i < batch; ++i) {
      sketches.push_back(*ctx.corpus->Find(ids[static_cast<size_t>(i) % ids.size()]));
    }
    SketchIndex index;
    int64_t next_id = 0;
    Status failed = Status::OK();
    Repeat(slice, 3, [&](int64_t) {
      if (index.size() >= sizes.ingest_engine_capacity) index = SketchIndex();
      std::vector<std::pair<std::string, PrivateSketch>> items;
      items.reserve(static_cast<size_t>(batch));
      for (const PrivateSketch& s : sketches) {
        items.emplace_back("a" + std::to_string(next_id++), s);
      }
      tracer->Time("index.add_batch", ++next_probe, [&] {
        Status st = index.AddBatch(std::move(items));
        if (!st.ok()) failed = st;
      });
    });
    DPJL_RETURN_IF_ERROR(failed);
    out->Add("index.add_batch_us_per_item",
             PerItem(tracer->DurationsUs("index.add_batch"), static_cast<double>(batch)),
             "us");
    out->Add("index.bytes_per_sketch", ctx.bytes_per_sketch, "bytes");
  }

  // --- index: scans over the workload's corpus -----------------------------
  {
    int64_t hits = 0;
    int64_t range_calls = 0;
    Status failed = Status::OK();
    Repeat(slice, 3, [&](int64_t i) {
      const PrivateSketch& q = probe_at(i);
      const int64_t probe = ++next_probe;
      tracer->Time("index.nn", probe, [&] {
        auto r = ctx.corpus->NearestNeighbors(q, sizes.top_n);
        if (!r.ok()) failed = r.status();
      });
      tracer->Time("index.range", probe, [&] {
        auto r = ctx.corpus->RangeQuery(q, ctx.radius_sq);
        if (r.ok()) {
          hits += static_cast<int64_t>(r->size());
          ++range_calls;
        } else {
          failed = r.status();
        }
      });
    });
    DPJL_RETURN_IF_ERROR(failed);
    const double nn_us = MedianOf(tracer->DurationsUs("index.nn"));
    const double n = static_cast<double>(ctx.corpus->size());
    out->Add("index.nn_us", nn_us, "us");
    out->Add("index.range_us", MedianOf(tracer->DurationsUs("index.range")), "us");
    out->Add("index.coords_per_s", n * static_cast<double>(k) / (nn_us * 1e-6), "1/s");
    out->Add("index.bytes_per_nn", n * static_cast<double>(k) * 8.0, "bytes");
    out->Add("index.range_hits",
             static_cast<double>(hits) / static_cast<double>(std::max<int64_t>(range_calls, 1)),
             "count");
  }

  // --- index: all-pairs matrix ----------------------------------------------
  {
    DPJL_ASSIGN_OR_RETURN(SketchIndex matrix_corpus,
                          Prefix(*ctx.corpus, sizes.all_pairs_corpus));
    Status failed = Status::OK();
    Repeat(slice, 2, [&](int64_t) {
      tracer->Time("index.all_pairs", ++next_probe, [&] {
        auto r = matrix_corpus.AllPairsDistances();
        if (!r.ok()) failed = r.status();
      });
    });
    DPJL_RETURN_IF_ERROR(failed);
    out->Add("index.all_pairs_ms", MedianOf(tracer->DurationsUs("index.all_pairs")) / 1000.0,
             "ms");
  }

  // --- kernels: one 8-lane squared-distance block at the sketch's k ---------
  {
    constexpr int64_t kWidth = 8;
    constexpr int kCalls = 256;
    const std::vector<double>& q = probe_at(0).values();
    std::vector<double> lanes(static_cast<size_t>(k * kWidth));
    for (int64_t lane = 0; lane < kWidth; ++lane) {
      const std::vector<double>& c = probe_at(lane + 1).values();
      for (int64_t j = 0; j < k; ++j) {
        lanes[static_cast<size_t>(j * kWidth + lane)] = c[static_cast<size_t>(j)];
      }
    }
    double result[kWidth] = {};
    volatile double sink = 0;
    const dpjl::KernelOps& ops = dpjl::Kernels();
    Repeat(slice, 3, [&](int64_t) {
      tracer->Time("kernels.sqdist_block", ++next_probe, [&] {
        for (int call = 0; call < kCalls; ++call) {
          ops.squared_distance_block(q.data(), lanes.data(), k, kWidth, result);
          sink = sink + result[call % kWidth];
        }
      });
    });
    out->Add("kernels.sqdist_block_ns",
             MedianOf(tracer->DurationsUs("kernels.sqdist_block")) * 1000.0 / kCalls, "ns");
  }

  // --- topk: bounded selection over a corpus-length stream ------------------
  {
    const int64_t n = ctx.corpus->size();
    std::vector<double> stream(static_cast<size_t>(n));
    dpjl::Rng rng(dpjl::DeriveSeed(ctx.seed, 0x70));
    for (double& v : stream) v = rng.Gaussian(1.0);
    using Item = std::pair<double, int64_t>;
    auto less = [](const Item& a, const Item& b) { return a < b; };
    volatile int64_t kept = 0;
    Repeat(slice, 3, [&](int64_t) {
      tracer->Time("topk.push_stream", ++next_probe, [&] {
        dpjl::BoundedTopK<Item, decltype(less)> top(sizes.top_n, less);
        for (int64_t i = 0; i < n; ++i) top.Push({stream[static_cast<size_t>(i)], i});
        kept = kept + top.size();
      });
    });
    out->Add("topk.push_ns",
             MedianOf(tracer->DurationsUs("topk.push_stream")) * 1000.0 / static_cast<double>(n),
             "ns");
  }

  // --- engine: queue hop, batching and the by-id estimate -------------------
  {
    const std::vector<std::string>& ids = ctx.corpus->ids();
    Status failed = Status::OK();
    std::vector<double> batch_us;
    Repeat(slice, 3, [&](int64_t i) {
      const int64_t probe = ++next_probe;
      const PrivateSketch& q = probe_at(i);
      tracer->Time("engine.sync_nn", probe, [&] {
        auto r = ctx.engine->NearestNeighbors(q, sizes.top_n);
        if (!r.ok()) failed = r.status();
      });
      PrivateSketch copy = q;
      tracer->Time("engine.submit_nn", probe, [&] {
        auto r = ctx.engine->SubmitQuery(std::move(copy), sizes.top_n).Get();
        if (!r.ok()) failed = r.status();
      });
      if (i % sizes.batch_probes == 0) {
        std::vector<PrivateSketch> group;
        for (int64_t j = 0; j < sizes.batch_probes; ++j) group.push_back(probe_at(i + j));
        batch_us.push_back(tracer->Time("engine.batch", probe, [&] {
          auto r = ctx.engine->SubmitQueryBatch(std::move(group), sizes.top_n).Get();
          if (!r.ok()) failed = r.status();
        }));
      }
      // The by-id estimate through a serving lane, checked against the
      // synchronous answer.
      const std::string& a = ids[static_cast<size_t>(i * 7919) % ids.size()];
      const std::string& b = ids[static_cast<size_t>(i * 104729 + 1) % ids.size()];
      std::optional<Result<double>> lane;
      tracer->Time("engine.estimate", probe,
                   [&] { lane.emplace(ctx.engine->SubmitEstimate(a, b).Get()); });
      const Result<double> sync = ctx.engine->SquaredDistance(a, b);
      if (!lane->ok()) failed = lane->status();
      if (!sync.ok()) failed = sync.status();
      out->Check(!lane->ok() || !sync.ok() || SameBytes(**lane, *sync),
                 "engine: SubmitEstimate differs from sync SquaredDistance");
    });
    DPJL_RETURN_IF_ERROR(failed);
    out->Add("engine.queue_hop_us",
             MedianDifference(*tracer, "engine.submit_nn", "engine.sync_nn"), "us");
    out->Add("engine.estimate_us", MedianOf(tracer->DurationsUs("engine.estimate")), "us");
    out->Add("engine.batch_ratio",
             MedianOf(batch_us) / (static_cast<double>(sizes.batch_probes) *
                                   MedianOf(tracer->DurationsUs("engine.submit_nn"))),
             "ratio");
  }

  // --- frame: the codec on real request and response payloads ---------------
  {
    DPJL_ASSIGN_OR_RETURN(NeighborList answer,
                          ctx.corpus->NearestNeighbors(probe_at(0), sizes.top_n));
    net::FrameHeader request_header;
    request_header.type = net::MessageType::kNearestNeighborsRequest;
    net::FrameHeader response_header;
    response_header.type = net::MessageType::kNeighborsResponse;
    size_t req_bytes = 0;
    size_t resp_bytes = 0;
    Status failed = Status::OK();
    Repeat(slice, 3, [&](int64_t i) {
      const int64_t probe = ++next_probe;
      std::string req_frame;
      std::string resp_frame;
      tracer->Time("frame.encode", probe, [&] {
        net::NearestNeighborsRequest req;
        req.sketch = probe_at(i).Serialize();
        req.top_n = sizes.top_n;
        req_frame = net::EncodeFrame(request_header, net::EncodeNearestNeighborsRequest(req));
        resp_frame = net::EncodeFrame(response_header, net::EncodeNeighbors(answer));
      });
      req_bytes = req_frame.size();
      resp_bytes = resp_frame.size();
      tracer->Time("frame.decode", probe, [&] {
        auto frame = net::DecodeFrame(req_frame);
        if (!frame.ok()) return void(failed = frame.status());
        auto req = net::DecodeNearestNeighborsRequest(frame->payload);
        if (!req.ok()) return void(failed = req.status());
        auto sketch = PrivateSketch::Deserialize(req->sketch);
        if (!sketch.ok()) return void(failed = sketch.status());
        auto resp = net::DecodeFrame(resp_frame);
        if (!resp.ok()) return void(failed = resp.status());
        auto list = net::DecodeNeighbors(resp->payload);
        if (!list.ok()) failed = list.status();
      });
    });
    DPJL_RETURN_IF_ERROR(failed);
    out->Add("frame.encode_us", MedianOf(tracer->DurationsUs("frame.encode")), "us");
    out->Add("frame.decode_us", MedianOf(tracer->DurationsUs("frame.decode")), "us");
    out->Add("frame.req_bytes", static_cast<double>(req_bytes), "bytes");
    out->Add("frame.resp_bytes", static_cast<double>(resp_bytes), "bytes");
  }

  // --- wire and router: the serving tier ------------------------------------
  {
    std::unique_ptr<RoutedCluster> own;
    RoutedCluster* cluster = ctx.cluster;
    // The in-process index every routed answer must equal byte for byte.
    const SketchIndex* reference = ctx.corpus;
    SketchIndex part;
    if (cluster == nullptr) {
      DPJL_ASSIGN_OR_RETURN(part, Prefix(*ctx.corpus, sizes.routed_corpus));
      DPJL_ASSIGN_OR_RETURN(own, StartCluster(part, sizes.partitions, ctx.engine->options()));
      cluster = own.get();
      reference = &part;
    }
    std::vector<std::unique_ptr<net::Client>> clients;
    for (const auto& server : cluster->servers) {
      clients.push_back(std::make_unique<net::Client>(server->host(), server->port()));
    }
    Status failed = Status::OK();
    const auto note = [&](const Status& st) {
      if (!st.ok()) failed = st;
    };
    // Compares a wire answer with the in-process one it must equal.
    const auto same = [&](const Result<NeighborList>& got, const Result<NeighborList>& want,
                          const char* what) {
      note(got.status());
      note(want.status());
      out->Check(!got.ok() || !want.ok() || SameNeighbors(*got, *want), what);
    };
    Repeat(slice / 4, 3, [&](int64_t) {
      tracer->Time("wire.ping", ++next_probe, [&] { note(clients[0]->Ping()); });
    });
    const auto served = [&] {
      int64_t total = 0;
      for (const auto& engine : cluster->engines) {
        for (const auto& lane : engine->Stats().queue.lanes) total += lane.served;
      }
      return total;
    };
    // wire.hop: Client::NearestNeighbors minus the same server's SubmitQuery.
    // Every churn_every-th routed query goes through a newly created Router,
    // which connects afresh as a one-shot CLI client does.
    std::vector<double> sum_group;
    std::vector<double> max_group;
    std::vector<double> contacted;
    Repeat(slice * 7 / 4, 3, [&](int64_t i) {
      const PrivateSketch& q = probe_at(i);
      const int64_t request = ++next_probe;
      double sum = 0;
      double max = 0;
      for (size_t g = 0; g < clients.size(); ++g) {
        const int64_t probe = ++next_probe;
        PrivateSketch copy = q;
        std::optional<Result<NeighborList>> local;
        std::optional<Result<NeighborList>> remote;
        tracer->Time("wire.server_submit", probe, [&] {
          local.emplace(cluster->engines[g]->SubmitQuery(std::move(copy), sizes.top_n).Get());
        }, request);
        const double us = tracer->Time("wire.client_nn", probe, [&] {
          remote.emplace(clients[g]->NearestNeighbors(q, sizes.top_n));
        }, request);
        same(*remote, *local, "wire: Client answer differs from the server engine's");
        sum += us;
        max = std::max(max, us);
      }
      sum_group.push_back(sum);
      max_group.push_back(max);
      std::unique_ptr<net::Router> fresh;
      net::Router* router = cluster->router.get();
      if (i % sizes.churn_every == sizes.churn_every - 1) {
        auto created = net::Router::Create(cluster->manifest, cluster->groups);
        if (!created.ok()) return note(created.status());
        fresh = std::move(created).value();
        router = fresh.get();
      }
      // A server counts a request as served when its lane pops it, before
      // it answers, so the delta is complete when the call returns.
      const int64_t served_before = served();
      std::optional<Result<NeighborList>> routed;
      tracer->Time("router.nn", request, [&] {
        routed.emplace(router->NearestNeighbors(q, sizes.top_n));
      });
      contacted.push_back(static_cast<double>(served() - served_before));
      same(*routed, reference->NearestNeighbors(q, sizes.top_n),
           "router: routed top-10 differs from the in-process index");
    });
    DPJL_RETURN_IF_ERROR(failed);
    // Read while the servers still hold every connection they accepted.
    const ProcGauges gauges = ReadProcGauges();
    // router.fanout: Router::NearestNeighbors minus the slowest group call
    // made for the same probe.
    const auto routed = tracer->ByProbe("router.nn");
    std::vector<double> fanout;
    for (size_t i = 0; i < routed.size() && i < max_group.size(); ++i) {
      fanout.push_back(routed[i].second - max_group[i]);
    }
    out->Add("wire.ping_us", MedianOf(tracer->DurationsUs("wire.ping")), "us");
    out->Add("wire.hop_us", MedianDifference(*tracer, "wire.client_nn", "wire.server_submit"),
             "us");
    out->Add("router.sum_group_us", MedianOf(sum_group), "us");
    out->Add("router.max_group_us", MedianOf(max_group), "us");
    out->Add("router.fanout_us", MedianOf(fanout), "us");
    out->Add("router.groups_contacted", MedianOf(contacted), "count");
    out->Add("wire.open_fds", static_cast<double>(gauges.open_fds), "count");
    out->Add("wire.threads", static_cast<double>(gauges.threads), "count");
  }
  return Status::OK();
}

}  // namespace perfbench
