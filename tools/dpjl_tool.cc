// dpjl_tool — command-line interface to the dpjl sketch pipeline.
//
// Subcommands (one kCommands entry each, with its usage lines and the
// flags it accepts):
//   sketch        Read a vector (CSV, one value per comma or line), release
//                 a DP sketch to a binary file.
//   sketch-batch  Read a CSV matrix (one vector per line), release one
//                 sketch per row across a thread pool.
//   estimate      Estimate squared distance between two sketch files.
//   inspect       Print a sketch file's public metadata.
//   index-add     Add a sketch file to an index file under an id (the
//                 index file is created if it does not exist).
//   query         (alias: index-query) Nearest neighbors of a sketch in an
//                 index file — or across partition snapshots
//                 (--partitions=a.part,b.part), optionally multi-threaded.
//   index export-shards   Split an index snapshot into independently
//                 loadable partition snapshots plus a shard manifest.
//   index merge-shards    All-or-nothing merge of partition snapshots back
//                 into one index snapshot, verified against the manifest.
//   index inspect Print a snapshot envelope's or manifest's fields.
//   serve         Serve an index (or partition set) over the wire protocol
//                 on a TCP port; peers connect with `client` or `route`.
//   client        Wire-protocol client: query / range / batch / estimate /
//                 insert / stats / ping against one serving process.
//   route         Manifest-routed fan-out (query / range / batch /
//                 estimate / stats) across serving processes with replica
//                 failover; output is byte-identical to querying the
//                 merged index in-process.
//   selftest      End-to-end sketch->estimate round trip in a private temp
//                 directory (used by ctest).
//
// A flag the subcommand does not accept is an error (exit 1), as is a
// numeric flag that does not parse completely (`--top 5x`); a missing
// required flag or an unknown subcommand prints usage and exits 2.
//
// Examples:
//   dpjl_tool sketch --input a.csv --output a.sketch --epsilon 1.0
//       --alpha 0.2 --beta 0.05 --seed 42 --noise-seed 7001
//   dpjl_tool sketch-batch --input rows.csv --output-prefix out/row
//       --base-noise-seed 7001 --threads 8
//   dpjl_tool estimate --a a.sketch --b b.sketch
//   dpjl_tool inspect --sketch a.sketch
//   dpjl_tool query --index corpus.idx --sketch a.sketch --threads=4

#include <stdlib.h>  // mkdtemp

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/annotated_mutex.h"
#include "src/common/timer.h"
#include "src/core/engine.h"
#include "src/core/estimators.h"
#include "src/net/client.h"
#include "src/net/router.h"
#include "src/net/server.h"

namespace dpjl {
namespace {

// Upper bound for the tool's own counts and durations (--top, --partitions,
// --serve-seconds, --stats-interval-ms): far above any useful value, and
// small enough that no derived duration overflows.
constexpr int64_t kFlagMax = int64_t{1} << 30;

/// One subcommand's command line: the raw `--key value` map plus the
/// options the dispatcher derived from it for the command's declared flag
/// groups.
struct Flags {
  std::map<std::string, std::string> values;
  EngineOptions engine;     // commands that take engine flags
  RequestOptions request;   // commands that take request flags
  uint64_t secret = 0;      // commands with a secret noise seed; never 0

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }

  Result<int64_t> Int(const std::string& key, int64_t fallback, int64_t min,
                      int64_t max) const {
    const auto it = values.find(key);
    if (it == values.end()) return fallback;
    return ParseIntFlag(key, it->second, min, max);
  }
};

// Minimal flag parser accepting --key value and --key=value; returns false
// on malformed input.
bool ParseFlags(const std::vector<std::string>& args, size_t first,
                std::map<std::string, std::string>* flags) {
  for (size_t i = first; i < args.size(); ++i) {
    const std::string& key = args[i];
    if (key.size() < 3 || key.rfind("--", 0) != 0) {
      return false;
    }
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      if (eq < 3) return false;  // "--=..." or "--x=" with empty name
      (*flags)[key.substr(2, eq - 2)] = key.substr(eq + 1);
      continue;
    }
    if (i + 1 >= args.size()) return false;
    (*flags)[key.substr(2)] = args[++i];
  }
  return true;
}

/// True when the invocation asks for help; handled before flag parsing so
/// `dpjl_tool sketch --help` prints usage and exits 0 instead of failing
/// on missing required flags. Help tokens only count in command/key
/// positions of the `--key value` grammar — "help", "--help" or "-h"
/// appearing as a flag's VALUE (e.g. `--id help`, `--sketch -h`) stays
/// data.
bool HelpRequested(const std::vector<std::string>& args) {
  if (!args.empty() &&
      (args[0] == "help" || args[0] == "--help" || args[0] == "-h")) {
    return true;
  }
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--help" || args[i] == "-h") return true;
    if (args[i].rfind("--", 0) == 0 && args[i].find('=') == std::string::npos) {
      ++i;  // `--key value` form: the next token is this flag's value
    }
  }
  return false;
}

// `separator`-separated value list (e.g. --partitions=a.part,b.part).
// Empty segments are dropped so a trailing separator is harmless.
std::vector<std::string> SplitList(const std::string& text, char separator) {
  std::vector<std::string> items;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, separator)) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

Result<std::vector<double>> ReadCsvVector(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open input file: " + path);
  std::vector<double> values;
  std::string token;
  while (std::getline(in, token, ',')) {
    // Allow newline-separated values inside comma tokens too.
    std::istringstream inner(token);
    std::string piece;
    while (std::getline(inner, piece)) {
      if (piece.empty()) continue;
      try {
        values.push_back(std::stod(piece));
      } catch (const std::exception&) {
        return Status::InvalidArgument("unparseable value: '" + piece + "'");
      }
    }
  }
  if (values.empty()) {
    return Status::InvalidArgument("input vector is empty");
  }
  return values;
}

// One vector per line, values comma-separated. Blank lines are skipped;
// every row must have the same width.
Result<std::vector<std::vector<double>>> ReadCsvMatrix(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open input file: " + path);
  std::vector<std::vector<double>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<double> row;
    std::istringstream fields(line);
    std::string piece;
    while (std::getline(fields, piece, ',')) {
      try {
        row.push_back(std::stod(piece));
      } catch (const std::exception&) {
        return Status::InvalidArgument("unparseable value: '" + piece + "'");
      }
    }
    if (!rows.empty() && row.size() != rows.front().size()) {
      return Status::InvalidArgument(
          "row " + std::to_string(rows.size()) + " has " +
          std::to_string(row.size()) + " values, expected " +
          std::to_string(rows.front().size()));
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    return Status::InvalidArgument("input matrix is empty");
  }
  return rows;
}

Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open output file: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out ? Status::OK() : Status::Internal("short write: " + path);
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// `status` with the file it concerns named in its message.
Status InFile(const std::string& path, const Status& status) {
  return status.ok() ? status
                     : Status(status.code(), path + ": " + status.message());
}

// Deserialized sketch file (the query/probe inputs of the subcommands).
Result<PrivateSketch> LoadSketch(const std::string& path) {
  DPJL_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(path));
  Result<PrivateSketch> sketch = PrivateSketch::Deserialize(bytes);
  DPJL_RETURN_IF_ERROR(InFile(path, sketch.status()));
  return sketch;
}

// The tool's historical defaults, applied before EngineOptions::Parse reads
// the caller's overrides out of the same flag map. The command's own keys
// are declared as passthrough; anything else unrecognized is a typo and
// Parse reports it.
Result<EngineOptions> OptionsFromFlags(
    std::map<std::string, std::string> flags,
    const std::vector<std::string>& passthrough = {}) {
  flags.emplace("epsilon", "1.0");
  flags.emplace("alpha", "0.2");
  flags.emplace("beta", "0.05");
  flags.emplace("seed", "1");
  return EngineOptions::Parse(flags, passthrough);
}

// Stats dump shared by the async subcommands. Tenant quota slots release
// just after the request's future resolves; drain the backlog so a
// one-shot CLI run prints the quiesced counters.
void DumpEngineStats(const Engine& engine, std::ostream& out) {
  engine.WaitIdle();
  out << "engine stats:\n" << engine.Stats().ToString();
}

// Periodic EngineStats::Delta dump for scrapers: with --stats-interval-ms,
// a background thread prints the counter movement of each interval (rates,
// not cumulative totals) to `out` until the command's work completes.
class PeriodicStatsDumper {
 public:
  PeriodicStatsDumper(const Engine& engine, int64_t interval_ms,
                      std::ostream& out) {
    if (interval_ms <= 0) return;
    thread_ = std::thread([this, &engine, &out, interval_ms] {
      EngineStats prev = engine.Stats();
      const auto interval = std::chrono::milliseconds(interval_ms);
      MutexLock lock(mutex_);
      auto deadline = std::chrono::steady_clock::now() + interval;
      while (!stop_) {
        if (done_.WaitUntil(mutex_, deadline) != std::cv_status::timeout) {
          continue;  // woken early — re-check stop_, keep the same deadline
        }
        const EngineStats now = engine.Stats();
        out << "engine stats delta (" << interval_ms << "ms):\n"
            << now.Delta(prev).ToString();
        prev = now;
        deadline = std::chrono::steady_clock::now() + interval;
      }
    });
  }

  ~PeriodicStatsDumper() {
    if (!thread_.joinable()) return;
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    done_.NotifyAll();
    thread_.join();
  }

 private:
  Mutex mutex_;
  CondVar done_;
  bool stop_ GUARDED_BY(mutex_) = false;
  std::thread thread_;
};

Status CmdSketch(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const std::vector<double> vector,
                        ReadCsvVector(flags.Get("input")));
  DPJL_ASSIGN_OR_RETURN(
      const std::unique_ptr<Engine> engine,
      Engine::Create(static_cast<int64_t>(vector.size()), flags.engine));
  const PrivateSketch sketch = engine->Sketch(vector, flags.secret);
  const std::string output = flags.Get("output");
  DPJL_RETURN_IF_ERROR(WriteFile(output, sketch.Serialize()));
  std::cout << "wrote " << output << ": " << engine->sketcher().Describe()
            << ", d=" << vector.size() << " -> k=" << sketch.values().size()
            << "\n";
  return Status::OK();
}

Status CmdSketchBatch(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const std::vector<std::vector<double>> rows,
                        ReadCsvMatrix(flags.Get("input")));
  DPJL_ASSIGN_OR_RETURN(
      const std::unique_ptr<Engine> engine,
      Engine::Create(static_cast<int64_t>(rows.front().size()), flags.engine));
  DPJL_ASSIGN_OR_RETURN(const int64_t stats_interval_ms,
                        flags.Int("stats-interval-ms", 0, 0, kFlagMax));
  const PeriodicStatsDumper dumper(*engine, stats_interval_ms, std::cerr);
  // The whole batch is one queued request in the batch lane (one admission
  // and one quota unit, however many rows), so interactive queries sharing
  // the engine keep priority over this backfill.
  Timer timer;
  std::vector<PrivateSketch> sketches;
  const auto batch = [&engine, &rows, &sketches, &flags] {
    auto sketched = engine->SketchBatch(rows, flags.secret);
    if (!sketched.ok()) return sketched.status();
    sketches = std::move(*sketched);
    return Status::OK();
  };
  DPJL_RETURN_IF_ERROR(
      engine->SubmitTask(batch, flags.request).Get().status());
  const double seconds = timer.ElapsedSeconds();
  const std::string prefix = flags.Get("output-prefix");
  for (size_t i = 0; i < sketches.size(); ++i) {
    DPJL_RETURN_IF_ERROR(WriteFile(prefix + std::to_string(i) + ".sketch",
                                   sketches[i].Serialize()));
  }
  // Optional bulk ingestion: the rows become an index in one AddBatch
  // (single compatibility check, no per-Add rescan).
  if (const std::string index_path = flags.Get("index"); !index_path.empty()) {
    std::vector<std::pair<std::string, PrivateSketch>> items;
    items.reserve(sketches.size());
    for (size_t i = 0; i < sketches.size(); ++i) {
      items.emplace_back("row" + std::to_string(i), sketches[i]);
    }
    DPJL_RETURN_IF_ERROR(engine->InsertBatch(std::move(items)));
    DPJL_RETURN_IF_ERROR(WriteFile(index_path, engine->SerializeIndex()));
    std::cout << "wrote index " << index_path << ": " << engine->index_size()
              << " sketches\n";
  }
  std::cout << "wrote " << sketches.size() << " sketches to " << prefix
            << "*.sketch: " << engine->sketcher().Describe() << ", d="
            << rows.front().size() << " -> k="
            << sketches.front().values().size() << ", threads="
            << engine->query_threads() << ", "
            << static_cast<int64_t>(static_cast<double>(sketches.size()) /
                                    (seconds > 0 ? seconds : 1e-9))
            << " vectors/sec\n";
  DumpEngineStats(*engine, std::cerr);
  return Status::OK();
}

Status CmdEstimate(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const PrivateSketch a, LoadSketch(flags.Get("a")));
  DPJL_ASSIGN_OR_RETURN(const PrivateSketch b, LoadSketch(flags.Get("b")));
  DPJL_ASSIGN_OR_RETURN(const double dist, EstimateSquaredDistance(a, b));
  // The unbiased estimator can go negative when the true distance is small
  // relative to the noise floor; surface both the raw (unbiased) value and
  // a clamped one, and flag the clamp so scripts can detect it.
  const double clamped = dist < 0.0 ? 0.0 : dist;
  std::printf("squared_distance_estimate\t%.6f\n", dist);
  std::printf("squared_distance_clamped\t%.6f\n", clamped);
  std::printf("distance_estimate\t%.6f\n", EstimateDistance(a, b).value());
  if (dist < 0.0) {
    std::cerr << "warning: negative squared-distance estimate (" << dist
              << "); the pair is below the noise floor for this epsilon — "
                 "treat the distance as ~0 or re-sketch with more budget\n";
  }
  return Status::OK();
}

Status CmdInspect(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const PrivateSketch sketch,
                        LoadSketch(flags.Get("sketch")));
  const SketchMetadata& m = sketch.metadata();
  std::printf("transform\t%s\n", TransformKindName(m.transform).c_str());
  std::printf("input_dim\t%lld\n", static_cast<long long>(m.input_dim));
  std::printf("output_dim\t%lld\n", static_cast<long long>(m.output_dim));
  std::printf("sparsity\t%lld\n", static_cast<long long>(m.sparsity));
  std::printf("projection_seed\t%llu\n",
              static_cast<unsigned long long>(m.projection_seed));
  std::printf("placement\t%s\n", PlacementFlagName(m.placement).c_str());
  std::printf("noise_scale\t%g\n", m.noise_scale);
  std::printf("epsilon\t%g\n", m.epsilon);
  std::printf("delta\t%g\n", m.delta);
  return Status::OK();
}

Status CmdIndexAdd(const Flags& flags) {
  const std::string index_path = flags.Get("index");
  // Load (or start) the index.
  SketchIndex index;
  if (auto bytes = ReadFile(index_path); bytes.ok()) {
    DPJL_ASSIGN_OR_RETURN(index, SketchIndex::Deserialize(*bytes));
  }
  DPJL_ASSIGN_OR_RETURN(PrivateSketch sketch, LoadSketch(flags.Get("sketch")));
  DPJL_RETURN_IF_ERROR(index.Add(flags.Get("id"), std::move(sketch)));
  DPJL_RETURN_IF_ERROR(WriteFile(index_path, index.Serialize()));
  std::cout << "index " << index_path << ": " << index.size() << " sketches\n";
  return Status::OK();
}

// Serving-only engine over released artifacts — the corpus-loading path
// shared by `query` and `serve`: either the deserialized monolithic
// --index snapshot, or an empty index with every --partitions snapshot
// attached (byte-identical results either way, by the engine's
// scatter-gather determinism contract). The dispatcher guarantees exactly
// one of the two flags.
Result<std::unique_ptr<Engine>> ServingEngineFromFlags(const Flags& flags) {
  if (const std::string index_path = flags.Get("index"); !index_path.empty()) {
    DPJL_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(index_path));
    DPJL_ASSIGN_OR_RETURN(SketchIndex index, SketchIndex::Deserialize(bytes));
    return Engine::FromIndex(std::move(index), flags.engine);
  }
  DPJL_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                        Engine::FromIndex(SketchIndex(), flags.engine));
  for (const std::string& path : SplitList(flags.Get("partitions"), ',')) {
    DPJL_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(path));
    Result<SketchIndex> part = SketchIndex::Deserialize(bytes);
    DPJL_RETURN_IF_ERROR(InFile(path, part.status()));
    DPJL_RETURN_IF_ERROR(InFile(
        path, engine->AttachPartition(std::move(part).value()).status()));
  }
  return engine;
}

void PrintNeighbors(const std::vector<SketchIndex::Neighbor>& neighbors) {
  for (const auto& n : neighbors) {
    std::printf("%s\t%.6f\n", n.id.c_str(), n.squared_distance);
  }
}

Result<int64_t> TopFlag(const Flags& flags) {
  return flags.Int("top", 5, 1, kFlagMax);
}

Status CmdIndexQuery(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const int64_t top, TopFlag(flags));
  DPJL_ASSIGN_OR_RETURN(const int64_t stats_interval_ms,
                        flags.Int("stats-interval-ms", 0, 0, kFlagMax));
  DPJL_ASSIGN_OR_RETURN(const PrivateSketch query,
                        LoadSketch(flags.Get("sketch")));
  // The query goes through the submission path so the stats dump below
  // reflects it.
  DPJL_ASSIGN_OR_RETURN(const std::unique_ptr<Engine> engine,
                        ServingEngineFromFlags(flags));
  const PeriodicStatsDumper dumper(*engine, stats_interval_ms, std::cerr);
  DPJL_ASSIGN_OR_RETURN(const auto neighbors,
                        engine->SubmitQuery(query, top, flags.request).Get());
  PrintNeighbors(neighbors);
  DumpEngineStats(*engine, std::cerr);
  return Status::OK();
}

Status CmdIndexExportShards(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const int64_t partitions,
                        flags.Int("partitions", 0, 1, kFlagMax));
  DPJL_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(flags.Get("index")));
  DPJL_ASSIGN_OR_RETURN(const SketchIndex index,
                        SketchIndex::Deserialize(bytes));
  DPJL_ASSIGN_OR_RETURN(const auto exported,
                        index.ExportPartitions(static_cast<int>(partitions)));
  const std::string prefix = flags.Get("output-prefix");
  for (size_t p = 0; p < exported.partitions.size(); ++p) {
    const std::string path = prefix + std::to_string(p) + ".part";
    DPJL_RETURN_IF_ERROR(WriteFile(path, exported.partitions[p]));
    std::cout << "wrote " << path << ": "
              << exported.manifest.partitions[p].count << " sketches\n";
  }
  const std::string manifest_path = prefix + "manifest";
  DPJL_RETURN_IF_ERROR(WriteFile(manifest_path, exported.manifest.Serialize()));
  std::cout << "wrote " << manifest_path << ": " << partitions
            << " partitions, " << exported.manifest.total_count
            << " sketches total\n";
  return Status::OK();
}

Status CmdIndexMergeShards(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const std::string manifest_bytes,
                        ReadFile(flags.Get("manifest")));
  DPJL_ASSIGN_OR_RETURN(const ShardManifest manifest,
                        ShardManifest::Deserialize(manifest_bytes));
  std::vector<std::string> parts;
  for (const std::string& path : SplitList(flags.Get("parts"), ',')) {
    DPJL_ASSIGN_OR_RETURN(std::string part, ReadFile(path));
    parts.push_back(std::move(part));
  }
  DPJL_ASSIGN_OR_RETURN(const SketchIndex merged,
                        SketchIndex::FromPartitions(manifest, parts));
  const std::string output = flags.Get("output");
  DPJL_RETURN_IF_ERROR(WriteFile(output, merged.Serialize()));
  std::cout << "wrote " << output << ": merged " << parts.size()
            << " partitions into " << merged.size() << " sketches\n";
  return Status::OK();
}

Status CmdIndexInspect(const Flags& flags) {
  const std::string manifest_path = flags.Get("manifest");
  DPJL_ASSIGN_OR_RETURN(
      const std::string bytes,
      ReadFile(manifest_path.empty() ? flags.Get("index") : manifest_path));
  if (!manifest_path.empty()) {
    DPJL_ASSIGN_OR_RETURN(const ShardManifest manifest,
                          ShardManifest::Deserialize(bytes));
    std::printf("kind\tshard-manifest\n");
    std::printf("total_count\t%lld\n",
                static_cast<long long>(manifest.total_count));
    std::printf("fingerprint\t%016llx\n",
                static_cast<unsigned long long>(manifest.fingerprint));
    std::printf("partitions\t%zu\n", manifest.partitions.size());
    for (size_t p = 0; p < manifest.partitions.size(); ++p) {
      const ShardManifest::Partition& entry = manifest.partitions[p];
      std::printf("partition.%zu\tcount=%lld checksum=%016llx range=[%s, %s]\n",
                  p, static_cast<long long>(entry.count),
                  static_cast<unsigned long long>(entry.checksum),
                  entry.first_id.c_str(), entry.last_id.c_str());
    }
    return Status::OK();
  }
  DPJL_ASSIGN_OR_RETURN(const SnapshotEnvelope envelope, DecodeSnapshot(bytes));
  std::printf("format\tsnapshot-envelope v%u\n", envelope.version);
  std::printf("payload_kind\t%s\n",
              envelope.kind == SnapshotKind::kIndex ? "index" : "manifest");
  std::printf("payload_bytes\t%zu\n", envelope.payload.size());
  std::printf("payload_checksum\t%016llx\n",
              static_cast<unsigned long long>(envelope.checksum));
  DPJL_ASSIGN_OR_RETURN(const SketchIndex index,
                        SketchIndex::Deserialize(bytes));
  std::printf("sketch_count\t%lld\n", static_cast<long long>(index.size()));
  if (index.size() > 0) {
    std::printf("fingerprint\t%016llx\n",
                static_cast<unsigned long long>(index.Fingerprint()));
  }
  return Status::OK();
}

// --endpoints grammar: one group per manifest partition, ','-separated;
// replicas within a group '|'-separated; '-' (or an empty segment) marks
// an empty group for an empty partition.
Result<std::vector<std::vector<net::Endpoint>>> ParseEndpointGroups(
    const std::string& text) {
  std::vector<std::vector<net::Endpoint>> groups;
  std::istringstream in(text);
  std::string group_text;
  while (std::getline(in, group_text, ',')) {
    std::vector<net::Endpoint> group;
    if (group_text != "-") {
      for (const std::string& replica_text : SplitList(group_text, '|')) {
        DPJL_ASSIGN_OR_RETURN(net::Endpoint endpoint,
                              net::ParseEndpoint(replica_text));
        group.push_back(std::move(endpoint));
      }
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

Status CmdServe(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const int64_t port, flags.Int("port", 0, 0, 65535));
  DPJL_ASSIGN_OR_RETURN(const int64_t serve_seconds,
                        flags.Int("serve-seconds", 0, 0, kFlagMax));
  DPJL_ASSIGN_OR_RETURN(const std::unique_ptr<Engine> engine,
                        ServingEngineFromFlags(flags));
  net::ServerOptions server_options;
  server_options.host = flags.Get("host", "127.0.0.1");
  server_options.port = static_cast<int>(port);
  DPJL_ASSIGN_OR_RETURN(const std::unique_ptr<net::Server> server,
                        net::Server::Start(engine.get(), server_options));
  // The readiness line scripts and routers wait for; flushed so a piped
  // reader sees it immediately.
  std::printf("listening\t%s:%d\n", server_options.host.c_str(),
              server->port());
  std::fflush(stdout);
  std::cerr << "serving " << engine->index_size() << " sketches on "
            << server_options.host << ":" << server->port() << "\n";
  if (serve_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
    server->Stop();
    DumpEngineStats(*engine, std::cerr);
    return Status::OK();
  }
  // Serve until killed (the normal operational shape: a supervisor or the
  // test script owns the process lifetime).
  while (true) {
    std::this_thread::sleep_for(std::chrono::seconds(3600));
  }
}

Result<std::unique_ptr<net::Client>> OpenClient(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const net::Endpoint endpoint,
                        net::ParseEndpoint(flags.Get("connect")));
  return std::make_unique<net::Client>(endpoint.host, endpoint.port);
}

Result<std::unique_ptr<net::Router>> OpenRouter(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const std::string manifest_bytes,
                        ReadFile(flags.Get("manifest")));
  DPJL_ASSIGN_OR_RETURN(ShardManifest manifest,
                        ShardManifest::Deserialize(manifest_bytes));
  DPJL_ASSIGN_OR_RETURN(auto groups,
                        ParseEndpointGroups(flags.Get("endpoints")));
  return net::Router::Create(std::move(manifest), std::move(groups));
}

enum class Rpc { kQuery, kRange, kBatch, kEstimate, kStats };

// The five RPCs net::Client and net::Router both serve, with identical
// signatures: `client <rpc>` and `route <rpc>` are this one function over
// the backend `kOpen` connects to.
template <auto kOpen, Rpc kRpc>
Status RunRpc(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const auto backend, kOpen(flags));
  const RequestOptions& request = flags.request;
  switch (kRpc) {
    case Rpc::kQuery: {
      DPJL_ASSIGN_OR_RETURN(const int64_t top, TopFlag(flags));
      DPJL_ASSIGN_OR_RETURN(const PrivateSketch sketch,
                            LoadSketch(flags.Get("sketch")));
      DPJL_ASSIGN_OR_RETURN(const auto neighbors,
                            backend->NearestNeighbors(sketch, top, request));
      PrintNeighbors(neighbors);
      return Status::OK();
    }
    case Rpc::kRange: {
      DPJL_ASSIGN_OR_RETURN(
          const double radius_sq,
          ParseDoubleFlag("radius-sq", flags.Get("radius-sq")));
      DPJL_ASSIGN_OR_RETURN(const PrivateSketch sketch,
                            LoadSketch(flags.Get("sketch")));
      DPJL_ASSIGN_OR_RETURN(const auto neighbors,
                            backend->RangeQuery(sketch, radius_sq, request));
      PrintNeighbors(neighbors);
      return Status::OK();
    }
    case Rpc::kBatch: {
      DPJL_ASSIGN_OR_RETURN(const int64_t top, TopFlag(flags));
      std::vector<PrivateSketch> probes;
      for (const std::string& path : SplitList(flags.Get("sketches"), ',')) {
        DPJL_ASSIGN_OR_RETURN(PrivateSketch sketch, LoadSketch(path));
        probes.push_back(std::move(sketch));
      }
      DPJL_ASSIGN_OR_RETURN(const auto lists,
                            backend->BatchQuery(probes, top, request));
      for (size_t probe = 0; probe < lists.size(); ++probe) {
        for (const auto& n : lists[probe]) {
          std::printf("%zu\t%s\t%.6f\n", probe, n.id.c_str(),
                      n.squared_distance);
        }
      }
      return Status::OK();
    }
    case Rpc::kEstimate: {
      DPJL_ASSIGN_OR_RETURN(
          const double distance,
          backend->SquaredDistance(flags.Get("id-a"), flags.Get("id-b"),
                                   request));
      std::printf("squared_distance_estimate\t%.6f\n", distance);
      return Status::OK();
    }
    case Rpc::kStats: {
      DPJL_ASSIGN_OR_RETURN(const std::string stats, backend->Stats(request));
      std::cout << stats;
      return Status::OK();
    }
  }
  return Status::Internal("unhandled rpc");
}

Status CmdClientInsert(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const auto client, OpenClient(flags));
  DPJL_ASSIGN_OR_RETURN(const PrivateSketch sketch,
                        LoadSketch(flags.Get("sketch")));
  const std::string id = flags.Get("id");
  DPJL_RETURN_IF_ERROR(client->Insert(id, sketch, flags.request));
  std::cout << "inserted " << id << "\n";
  return Status::OK();
}

Status CmdClientPing(const Flags& flags) {
  DPJL_ASSIGN_OR_RETURN(const auto client, OpenClient(flags));
  DPJL_RETURN_IF_ERROR(client->Ping(flags.request));
  std::cout << "pong\n";
  return Status::OK();
}

int Dispatch(const std::vector<std::string>& args);

Status SelftestFailed(const std::string& what) {
  return Status::Internal("selftest FAILED: " + what);
}

Status SelftestIn(const std::string& dir) {
  // End-to-end: write two CSVs, sketch both, estimate, and check the
  // estimate against a bound calibrated from the library's own variance
  // model. Seeds are fixed, so the run is fully deterministic.
  const int64_t d = 2000;
  std::ofstream a_csv(dir + "/a.csv");
  std::ofstream b_csv(dir + "/b.csv");
  for (int64_t i = 0; i < d; ++i) {
    const double v = (i % 17) * 0.25;
    a_csv << v << (i + 1 < d ? "," : "");
    // b differs by +2 in 16 coordinates: ||a-b||^2 = 64, ||a-b||_4^4 = 256.
    b_csv << (i < 16 ? v + 2.0 : v) << (i + 1 < d ? "," : "");
  }
  a_csv.close();
  b_csv.close();
  const double truth_z2sq = 64.0;
  const double truth_z4p4 = 256.0;

  // High-epsilon / low-noise configuration: the selftest verifies pipeline
  // correctness, not privacy-regime utility, so pick a budget where the
  // noise cannot drown the signal and the bound below is tight.
  const std::string epsilon = "50.0";
  const std::string seed = "9";

  // Every subcommand runs through the same dispatcher as the command line.
  const auto run = [](const std::vector<std::string>& args) {
    const int rc = Dispatch(args);
    return rc == 0 ? Status::OK()
                   : SelftestFailed("`" + args[0] + "` exited " +
                                    std::to_string(rc));
  };
  DPJL_RETURN_IF_ERROR(run({"sketch", "--input", dir + "/a.csv", "--output",
                            dir + "/a.sketch", "--epsilon", epsilon, "--seed",
                            seed, "--noise-seed", "101"}));
  DPJL_RETURN_IF_ERROR(run({"sketch", "--input", dir + "/b.csv", "--output",
                            dir + "/b.sketch", "--epsilon", epsilon, "--seed",
                            seed, "--noise-seed", "202"}));
  // Exercise the estimate subcommand end-to-end too (the calibrated check
  // below recomputes the estimate from the deserialized sketches).
  DPJL_RETURN_IF_ERROR(
      run({"estimate", "--a", dir + "/a.sketch", "--b", dir + "/b.sketch"}));

  DPJL_ASSIGN_OR_RETURN(const PrivateSketch a, LoadSketch(dir + "/a.sketch"));
  DPJL_ASSIGN_OR_RETURN(const PrivateSketch b, LoadSketch(dir + "/b.sketch"));
  DPJL_ASSIGN_OR_RETURN(const double est, EstimateSquaredDistance(a, b));

  // Calibrated acceptance band: rebuild the sketcher the sketch subcommand
  // used, ask the variance model for Var[E_hat] at the known pair, and
  // accept only within the Chebyshev 99% half-width (10 sigma here). A sign
  // flip, a mis-centered estimator, or mismatched projection seeds all land
  // far outside this band, while the fixed-seed draw sits well inside it.
  DPJL_ASSIGN_OR_RETURN(const EngineOptions options,
                        OptionsFromFlags({{"epsilon", epsilon},
                                          {"seed", seed}}));
  DPJL_ASSIGN_OR_RETURN(const std::unique_ptr<Engine> engine,
                        Engine::Create(d, options));
  const double variance =
      engine->sketcher().PredictVariance(truth_z2sq, truth_z4p4).total();
  const double halfwidth = ChebyshevHalfWidth(variance, 1e-2);
  const double rel_error = std::abs(est - truth_z2sq) / truth_z2sq;
  std::cout << "selftest estimate (truth " << truth_z2sq << "): " << est
            << "  rel_error=" << rel_error
            << "  calibrated_halfwidth=" << halfwidth << "\n";
  if (std::abs(est - truth_z2sq) > halfwidth) {
    std::ostringstream what;
    what << "|" << est << " - " << truth_z2sq
         << "| exceeds calibrated half-width " << halfwidth;
    return SelftestFailed(what.str());
  }

  // Index round trip through the file-based subcommands.
  DPJL_RETURN_IF_ERROR(run({"index-add", "--index", dir + "/corpus.index",
                            "--id", "a", "--sketch", dir + "/a.sketch"}));
  DPJL_RETURN_IF_ERROR(run({"index-add", "--index", dir + "/corpus.index",
                            "--id", "b", "--sketch", dir + "/b.sketch"}));
  DPJL_RETURN_IF_ERROR(run({"query", "--index", dir + "/corpus.index",
                            "--sketch", dir + "/a.sketch", "--top", "2"}));

  // The corpus query must rank a's own sketch ahead of b's: at eps = 50
  // the self-distance noise is far smaller than the 64 separating a and b.
  DPJL_ASSIGN_OR_RETURN(const std::string corpus_bytes,
                        ReadFile(dir + "/corpus.index"));
  DPJL_ASSIGN_OR_RETURN(SketchIndex index,
                        SketchIndex::Deserialize(corpus_bytes));
  DPJL_ASSIGN_OR_RETURN(const auto neighbors, index.NearestNeighbors(a, 2));
  if (neighbors.size() != 2 || neighbors[0].id != "a" ||
      neighbors[0].squared_distance >= neighbors[1].squared_distance) {
    return SelftestFailed(
        "corpus query did not rank the query's own sketch first");
  }

  // Batch mode: sketch-batch over the two vectors as a 2-row matrix must
  // reproduce, byte for byte, the serial per-item releases under the
  // documented seed-derivation contract, at any thread count.
  {
    std::ifstream a_in(dir + "/a.csv");
    std::ifstream b_in(dir + "/b.csv");
    std::ostringstream matrix;
    matrix << a_in.rdbuf() << "\n" << b_in.rdbuf() << "\n";
    DPJL_RETURN_IF_ERROR(WriteFile(dir + "/matrix.csv", matrix.str()));
  }
  DPJL_RETURN_IF_ERROR(run({"sketch-batch", "--input", dir + "/matrix.csv",
                            "--output-prefix", dir + "/row",
                            "--base-noise-seed", "303", "--threads", "2",
                            "--epsilon", epsilon, "--seed", seed, "--index",
                            dir + "/batch.index"}));
  // The bulk-ingested index must round-trip and rank row0 (the query's own
  // sketch) first, exactly like the per-Add index above.
  DPJL_RETURN_IF_ERROR(run({"query", "--index", dir + "/batch.index",
                            "--sketch", dir + "/row0.sketch", "--top", "2",
                            "--priority", "interactive", "--tenant",
                            "selftest"}));
  DPJL_ASSIGN_OR_RETURN(const std::string batch_bytes,
                        ReadFile(dir + "/batch.index"));
  DPJL_ASSIGN_OR_RETURN(const SketchIndex batch_index,
                        SketchIndex::Deserialize(batch_bytes));
  DPJL_ASSIGN_OR_RETURN(const PrivateSketch row0,
                        LoadSketch(dir + "/row0.sketch"));
  DPJL_ASSIGN_OR_RETURN(const auto monolithic,
                        batch_index.NearestNeighbors(row0, 2));
  if (monolithic.size() != 2 || monolithic[0].id != "row0") {
    return SelftestFailed(
        "bulk-ingested index did not rank the query's own sketch first");
  }
  for (int64_t i = 0; i < 2; ++i) {
    DPJL_ASSIGN_OR_RETURN(
        const std::string row_bytes,
        ReadFile(dir + "/row" + std::to_string(i) + ".sketch"));
    DPJL_ASSIGN_OR_RETURN(
        const std::vector<double> row,
        ReadCsvVector(i == 0 ? dir + "/a.csv" : dir + "/b.csv"));
    const PrivateSketch serial =
        engine->Sketch(row, BatchItemNoiseSeed(303, i));
    if (row_bytes != serial.Serialize()) {
      return SelftestFailed("sketch-batch row " + std::to_string(i) +
                            " differs from the serial release");
    }
  }

  // Partitioned persistence round trip through the file-based
  // subcommands: export the batch corpus as two shards, merge them back,
  // and require the merged snapshot byte-identical to the original — then
  // serve the query directly from the partition files and require the
  // ranking identical to the monolithic one.
  const std::string parts = dir + "/shard.0.part," + dir + "/shard.1.part";
  DPJL_RETURN_IF_ERROR(run({"index", "export-shards", "--index",
                            dir + "/batch.index", "--output-prefix",
                            dir + "/shard.", "--partitions", "2"}));
  DPJL_RETURN_IF_ERROR(run({"index", "merge-shards", "--manifest",
                            dir + "/shard.manifest", "--parts", parts,
                            "--output", dir + "/merged.index"}));
  DPJL_ASSIGN_OR_RETURN(const std::string merged_bytes,
                        ReadFile(dir + "/merged.index"));
  if (merged_bytes != batch_bytes) {
    return SelftestFailed(
        "merged shards differ from the original index snapshot");
  }
  DPJL_RETURN_IF_ERROR(run({"query", "--partitions", parts, "--sketch",
                            dir + "/row0.sketch", "--top", "2"}));
  DPJL_RETURN_IF_ERROR(
      run({"index", "inspect", "--manifest", dir + "/shard.manifest"}));
  // Neighbor lists agree id for id and bit for bit.
  const auto same = [](const std::vector<SketchIndex::Neighbor>& got,
                       const std::vector<SketchIndex::Neighbor>& want) {
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < want.size(); ++i) {
      if (got[i].id != want[i].id ||
          got[i].squared_distance != want[i].squared_distance) {
        return false;
      }
    }
    return true;
  };
  {
    Flags partitioned;
    partitioned.values = {{"partitions", parts}};
    DPJL_ASSIGN_OR_RETURN(partitioned.engine,
                          OptionsFromFlags({{"threads", "2"}}));
    DPJL_ASSIGN_OR_RETURN(const std::unique_ptr<Engine> server,
                          ServingEngineFromFlags(partitioned));
    const auto scattered = server->NearestNeighbors(row0, 2);
    if (!scattered.ok() || !same(*scattered, monolithic)) {
      return SelftestFailed(
          "partitioned query differs from the monolithic index");
    }
  }

  // Serving facade: a threaded engine over the same index must reproduce
  // the serial query byte for byte, both through the sync call and through
  // the async submission path.
  {
    DPJL_ASSIGN_OR_RETURN(const EngineOptions serve_options,
                          OptionsFromFlags({{"threads", "2"}}));
    DPJL_ASSIGN_OR_RETURN(const std::unique_ptr<Engine> server,
                          Engine::FromIndex(std::move(index), serve_options));
    const auto check =
        [&](const Result<std::vector<SketchIndex::Neighbor>>& got) {
          return got.ok() && same(*got, neighbors);
        };
    if (!check(server->NearestNeighbors(a, 2))) {
      return SelftestFailed("engine query differs from serial");
    }
    if (!check(server->SubmitQuery(a, 2).Get())) {
      return SelftestFailed("async engine query differs from serial");
    }
    const auto async_est = server->SubmitEstimate("a", "b").Get();
    const auto sync_est = server->SquaredDistance("a", "b");
    if (!async_est.ok() || !sync_est.ok() || *async_est != *sync_est) {
      return SelftestFailed("async estimate differs from sync");
    }

    // Batched submission: one admission, two probes, byte-identical to the
    // individual submissions — and the scheduler counted everything.
    RequestOptions batch_request;
    batch_request.priority = Priority::kBatch;
    batch_request.tenant = "selftest";
    const auto batched =
        server->SubmitQueryBatch({a, b}, 2, batch_request).Get();
    const auto individual_b = server->SubmitQuery(b, 2).Get();
    if (!batched.ok() || batched->size() != 2 || !check((*batched)[0]) ||
        !individual_b.ok() || !same((*batched)[1], *individual_b)) {
      return SelftestFailed("batched query differs from individual");
    }
    // A tenant's quota slot is held until its work completes (in-flight
    // accounting), and release happens just after the future resolves —
    // drain the backlog before auditing the counters.
    server->WaitIdle();
    const EngineStats stats = server->Stats();
    if (stats.lane(Priority::kBatch).served < 1 ||
        stats.lane(Priority::kInteractive).served < 1 ||
        !stats.queue.tenant_usage.empty()) {
      return SelftestFailed("engine stats inconsistent with traffic");
    }
  }

  std::cout << "selftest ok\n";
  return Status::OK();
}

// Runs the selftest in a fresh directory of its own under the system temp
// directory and removes it afterwards, pass or fail, so concurrent runs
// never share files.
Status CmdSelftest(const Flags& /*flags*/) {
  std::error_code error;
  std::string dir = (std::filesystem::temp_directory_path(error) /
                     "dpjl_tool_selftest.XXXXXX")
                        .string();
  if (error || mkdtemp(dir.data()) == nullptr) {
    return SelftestFailed("cannot create a temp directory");
  }
  const Status status = SelftestIn(dir);
  std::filesystem::remove_all(dir, error);  // best effort; a leftover is inert
  return status;
}

/// One subcommand: everything the dispatcher needs to accept, reject and
/// run an invocation of it.
struct Command {
  const char* path;  // one or two tokens: "sketch", "index export-shards"
  const char* usage;  // its lines of the usage text; "" when another
                      // entry's lines cover it
  Status (*run)(const Flags&);
  std::vector<std::string> required = {};  // "a|b": exactly one of --a, --b
  std::vector<std::string> optional = {};
  // Set when the command takes the request flags --priority and --tenant
  // (plus --deadline-ms, unless that is already one of its engine flags):
  // the lane its requests run in by default.
  std::optional<Priority> lane = std::nullopt;
  bool engine_flags = false;  // takes the EngineOptions::Parse flags
  const char* secret = nullptr;  // its required non-zero noise-seed flag
};

const std::vector<Command> kCommands = {
    {"sketch",
     "  dpjl_tool sketch --input FILE --output FILE --noise-seed N\n"
     "            [engine flags]\n",
     CmdSketch, {"input", "output"}, {}, std::nullopt, true, "noise-seed"},
    {"sketch-batch",
     "  dpjl_tool sketch-batch --input FILE --output-prefix PREFIX\n"
     "            --base-noise-seed N [--index FILE] [engine flags]\n"
     "            [request flags]  (input: one CSV vector per line;\n"
     "            row i is written to PREFIX + i + '.sketch' with noise\n"
     "            seed derived as splitmix64(base, i) — identical for\n"
     "            any --threads. With --index, the rows are also bulk-\n"
     "            ingested as ids 'row<i>' and the index is written to\n"
     "            FILE. The batch runs as one queued request, default\n"
     "            priority 'batch'; prints engine stats after.)\n",
     CmdSketchBatch, {"input", "output-prefix"}, {"index", "stats-interval-ms"},
     Priority::kBatch, true, "base-noise-seed"},
    {"estimate", "  dpjl_tool estimate --a FILE --b FILE\n", CmdEstimate,
     {"a", "b"}},
    {"inspect", "  dpjl_tool inspect --sketch FILE\n", CmdInspect,
     {"sketch"}},
    {"index-add",
     "  dpjl_tool index-add --index FILE --id NAME --sketch FILE\n",
     CmdIndexAdd, {"index", "id", "sketch"}},
    {"query",
     "  dpjl_tool query {--index FILE | --partitions A.part,B.part,...}\n"
     "            --sketch FILE [--top N] [engine flags] [request flags]\n"
     "            (alias: index-query; submitted async at default\n"
     "            priority 'interactive'; prints engine stats after.\n"
     "            With --partitions, every listed partition snapshot is\n"
     "            attached and the query scatter-gathers across them —\n"
     "            results are byte-identical to the merged index.)\n",
     CmdIndexQuery, {"index|partitions", "sketch"},
     {"top", "stats-interval-ms"}, Priority::kInteractive, true},
    {"index-query", "", CmdIndexQuery, {"index|partitions", "sketch"},
     {"top", "stats-interval-ms"}, Priority::kInteractive, true},
    {"index export-shards",
     "  dpjl_tool index export-shards --index FILE --output-prefix P\n"
     "            --partitions N  (writes P<i>.part for each partition\n"
     "            and the shard manifest to Pmanifest)\n",
     CmdIndexExportShards, {"index", "output-prefix", "partitions"}},
    {"index merge-shards",
     "  dpjl_tool index merge-shards --manifest FILE --parts A,B,...\n"
     "            --output FILE  (all-or-nothing; the merged snapshot is\n"
     "            byte-identical to the index the shards were exported\n"
     "            from)\n",
     CmdIndexMergeShards, {"manifest", "parts", "output"}},
    {"index inspect",
     "  dpjl_tool index inspect {--index FILE | --manifest FILE}\n",
     CmdIndexInspect, {"index|manifest"}},
    {"serve",
     "  dpjl_tool serve {--index FILE | --partitions A.part,...}\n"
     "            [--host H] [--port P] [--serve-seconds S]\n"
     "            [engine flags]  (port 0 = ephemeral; prints\n"
     "            'listening<TAB>HOST:PORT' once ready, then serves\n"
     "            until killed or S seconds elapse)\n",
     CmdServe, {"index|partitions"}, {"host", "port", "serve-seconds"},
     std::nullopt, true},
    {"client query",
     "  dpjl_tool client query --connect HOST:PORT --sketch FILE\n"
     "            [--top N] [request flags]\n",
     RunRpc<OpenClient, Rpc::kQuery>, {"connect", "sketch"}, {"top"},
     Priority::kInteractive},
    {"client range",
     "  dpjl_tool client range --connect HOST:PORT --sketch FILE\n"
     "            --radius-sq R [request flags]\n",
     RunRpc<OpenClient, Rpc::kRange>, {"connect", "sketch", "radius-sq"}, {},
     Priority::kInteractive},
    {"client batch",
     "  dpjl_tool client batch --connect HOST:PORT --sketches A,B,...\n"
     "            [--top N] [request flags]  (each line is\n"
     "            'probe-index<TAB>id<TAB>distance')\n",
     RunRpc<OpenClient, Rpc::kBatch>, {"connect", "sketches"}, {"top"},
     Priority::kInteractive},
    {"client estimate",
     "  dpjl_tool client estimate --connect HOST:PORT --id-a X --id-b Y\n"
     "            [request flags]\n",
     RunRpc<OpenClient, Rpc::kEstimate>, {"connect", "id-a", "id-b"}, {},
     Priority::kInteractive},
    {"client insert",
     "  dpjl_tool client insert --connect HOST:PORT --id NAME\n"
     "            --sketch FILE [request flags]\n",
     CmdClientInsert, {"connect", "id", "sketch"}, {}, Priority::kInteractive},
    {"client stats", "  dpjl_tool client stats --connect HOST:PORT\n",
     RunRpc<OpenClient, Rpc::kStats>, {"connect"}, {}, Priority::kInteractive},
    {"client ping", "  dpjl_tool client ping --connect HOST:PORT\n",
     CmdClientPing, {"connect"}, {}, Priority::kInteractive},
    {"route query",
     "  dpjl_tool route {query|range|batch|estimate|stats} --manifest F\n"
     "            --endpoints 'G0R0|G0R1,G1R0,...' [query flags as for\n"
     "            client]  (one ','-separated group per manifest\n"
     "            partition, replicas '|'-separated within a group;\n"
     "            '-' marks an empty group. Fan-out results are\n"
     "            byte-identical to the merged index; a dead replica\n"
     "            fails over to the next one in its group)\n",
     RunRpc<OpenRouter, Rpc::kQuery>, {"manifest", "endpoints", "sketch"},
     {"top"}, Priority::kInteractive},
    {"route range", "", RunRpc<OpenRouter, Rpc::kRange>,
     {"manifest", "endpoints", "sketch", "radius-sq"}, {},
     Priority::kInteractive},
    {"route batch", "", RunRpc<OpenRouter, Rpc::kBatch>,
     {"manifest", "endpoints", "sketches"}, {"top"}, Priority::kInteractive},
    {"route estimate", "", RunRpc<OpenRouter, Rpc::kEstimate>,
     {"manifest", "endpoints", "id-a", "id-b"}, {}, Priority::kInteractive},
    {"route stats", "", RunRpc<OpenRouter, Rpc::kStats>,
     {"manifest", "endpoints"}, {}, Priority::kInteractive},
    {"selftest", "  dpjl_tool selftest\n", CmdSelftest},
};

void Usage(std::ostream& out) {
  out << "usage:\n";
  for (const Command& command : kCommands) out << command.usage;
  out << "engine flags (one shared config path, see EngineOptions::Parse):\n"
         "  sketcher: --epsilon E --delta D --alpha A --beta B --seed S\n"
         "            --transform sjlt|sjlt-graph|fjlt|gaussian|achlioptas|\n"
         "            sparse-uniform --k-override K --s-override S\n"
         "            --noise auto|laplace|gaussian|none\n"
         "            --placement output|input|post-hadamard\n"
         "  serving:  --threads T (0 = all cores) --serving-threads T\n"
         "            --queue-capacity N\n"
         "            --tenant-quota N (0 = unlimited) --deadline-ms MS\n"
         "            --tenant-rate N (admitted requests/s per tenant,\n"
         "            token bucket, 0 = unmetered)\n"
         "request flags (per-submission scheduling, see RequestOptions):\n"
         "  --priority interactive|batch|best-effort --tenant NAME\n"
         "  --deadline-ms MS (client/route: also bounds the socket wait)\n"
         "observability: --stats-interval-ms N on query/sketch-batch dumps\n"
         "  periodic EngineStats deltas (rates) to stderr while running\n"
         "flags accept both '--key value' and '--key=value'\n"
         "every subcommand accepts --help / -h\n";
}

// The entry `args` names (its two-token path first), with the index of
// its first flag in *first_flag; nullptr when there is none.
const Command* Lookup(const std::vector<std::string>& args,
                      size_t* first_flag) {
  for (size_t tokens = std::min<size_t>(args.size(), 2); tokens > 0;
       --tokens) {
    const std::string path = tokens == 2 ? args[0] + " " + args[1] : args[0];
    for (const Command& command : kCommands) {
      if (path == command.path) {
        *first_flag = tokens;
        return &command;
      }
    }
  }
  return nullptr;
}

bool HasRequired(const Command& command,
                 const std::map<std::string, std::string>& values) {
  for (const std::string& alternatives : command.required) {
    int present = 0;
    for (const std::string& key : SplitList(alternatives, '|')) {
      const auto it = values.find(key);
      present += it != values.end() && !it->second.empty();
    }
    if (present != 1) return false;
  }
  return true;
}

// Every key the command accepts besides the engine flags.
std::vector<std::string> DeclaredKeys(const Command& command) {
  std::vector<std::string> keys = command.optional;
  for (const std::string& alternatives : command.required) {
    for (std::string& key : SplitList(alternatives, '|')) {
      keys.push_back(std::move(key));
    }
  }
  if (command.lane) {
    keys.insert(keys.end(), {"priority", "tenant"});
    if (!command.engine_flags) keys.push_back("deadline-ms");
  }
  if (command.secret != nullptr) keys.push_back(command.secret);
  return keys;
}

// Rejects every key the command does not declare and derives the options
// of its declared flag groups.
Result<Flags> MakeFlags(const Command& command,
                        std::map<std::string, std::string> values) {
  const std::vector<std::string> keys = DeclaredKeys(command);
  Flags flags;
  flags.values = std::move(values);
  if (command.engine_flags) {
    DPJL_ASSIGN_OR_RETURN(flags.engine, OptionsFromFlags(flags.values, keys));
  } else {
    for (const auto& entry : flags.values) {
      if (std::find(keys.begin(), keys.end(), entry.first) == keys.end()) {
        return Status::InvalidArgument("unknown flag --" + entry.first +
                                       " for `" + command.path + "`");
      }
    }
  }
  if (command.lane) {
    flags.request.priority = *command.lane;
    if (const auto it = flags.values.find("priority");
        it != flags.values.end()) {
      DPJL_ASSIGN_OR_RETURN(flags.request.priority, ParsePriority(it->second));
    }
    flags.request.tenant = flags.Get("tenant");
    // A remote call's --deadline-ms also bounds the client's socket wait
    // (one budget, both sides of the wire).
    if (const auto it = flags.values.find("deadline-ms");
        !command.engine_flags && it != flags.values.end()) {
      DPJL_ASSIGN_OR_RETURN(
          flags.request.deadline_ms,
          ParseIntFlag("deadline-ms", it->second, 0,
                       std::numeric_limits<int64_t>::max() / 2));
    }
  }
  if (command.secret != nullptr && flags.values.count(command.secret) > 0) {
    DPJL_ASSIGN_OR_RETURN(flags.secret,
                          ParseSeedFlag(command.secret,
                                        flags.values.at(command.secret)));
  }
  return flags;
}

// The one dispatcher: help → usage on stdout (0); unknown command,
// malformed flags or a missing required flag → usage on stderr (2); a
// missing or zero secret seed → 2; any other failure → its Status (1).
int Dispatch(const std::vector<std::string>& args) {
  if (HelpRequested(args)) {
    Usage(std::cout);
    return 0;
  }
  size_t first_flag = 0;
  const Command* command = Lookup(args, &first_flag);
  std::map<std::string, std::string> values;
  if (command == nullptr || !ParseFlags(args, first_flag, &values) ||
      !HasRequired(*command, values)) {
    Usage(std::cerr);
    return 2;
  }
  const Result<Flags> flags = MakeFlags(*command, std::move(values));
  if (flags.ok() && command->secret != nullptr && flags->secret == 0) {
    std::cerr << "--" << command->secret
              << " must be a non-zero secret; the release's noise is derived "
                 "from it and it must differ per input\n";
    return 2;
  }
  const Status status = flags.ok() ? command->run(*flags) : flags.status();
  if (!status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dpjl

int main(int argc, char** argv) {
  return dpjl::Dispatch(std::vector<std::string>(argv + 1, argv + argc));
}
