// Shared pieces of the dpjl benchmark program: arguments and sizes, latency
// samples, the outside-in span tracer, /proc gauges, the machine block,
// answer digests and the result a workload hands back to main().

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sketch.h"
#include "src/core/sketch_index.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Required; run.py passes BENCHMARK.json's run_seconds by default.
  double seconds = 0;
  bool trace = false;
  /// Tiny sizes for the self-test; never used for measurements.
  bool smoke = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
  /// Identifies the measured sources (git sha or a content hash).
  std::string source_id = "unknown";
};

/// Every size the workloads use. The full sizes are the benchmark; the
/// smoke sizes only exercise the same code paths quickly.
///
/// The library's default sketch has k = 1480 (4 ln(2/β)/α² at α = 0.1,
/// β = 0.05, rounded up to a multiple of s = 74), so one sketch holds
/// 11.6 KB of values. The corpus sizes follow from the working sets the
/// workloads are meant to have: query_local scans ~30 MB (about 15x one
/// core's 2 MB L2), each query_routed partition ~0.76 MB (inside L2).
struct Sizes {
  int64_t dim = 1024;
  int64_t local_corpus = 2560;
  int64_t routed_corpus = 256;
  int64_t all_pairs_corpus = 1024;
  int64_t clusters_local = 64;
  int64_t clusters_routed = 8;
  int partitions = 4;
  int64_t ingest_batch = 256;
  int64_t ingest_singles = 8;
  /// Distinct input vectors ingest cycles through.
  int64_t ingest_pool = 2048;
  /// Vectors one ingest Engine takes before a fresh one replaces it, so
  /// memory stays bounded however fast ingest runs.
  int64_t ingest_engine_capacity = 2048;
  int num_probes = 64;
  int64_t top_n = 10;
  int64_t batch_probes = 8;
  /// query_local runs one all-pairs matrix every this many rounds.
  int64_t all_pairs_every = 16;
  /// query_routed's loop, and every workload's routed layer measurement,
  /// send every this-many-th request through a new Router.
  int64_t churn_every = 50;
  /// Repetitions of the set-up whose median is setup_s.
  int setup_reps = 3;
};

Sizes SizesFor(bool smoke);

/// Per-call measurements of one operation kind.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  double Median() const;
  double Sum() const;

  /// The highest of the 90th/99th/99.9th percentiles that still has at
  /// least ten samples beyond it.
  struct Tail {
    double value = 0;
    double percentile = 0;
    size_t beyond = 0;
  };
  Tail TailValue() const;

 private:
  std::vector<double> values_;
};

/// Outside-in spans: each covers one call into a library layer, made from
/// the benchmark's own code. Spans of one probe share `probe`; `parent`
/// links a call to the request that caused it. Kept in memory, written at
/// exit. A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    int64_t id = 0;
    int64_t parent = 0;
    int64_t probe = 0;
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Runs `fn` and returns its wall time in microseconds, recording a span
  /// when enabled. `parent` is the probe id of the request that caused it.
  template <typename Fn>
  double Time(const char* name, int64_t probe, Fn&& fn, int64_t parent = 0) {
    const int64_t start = NowNs();
    fn();
    const int64_t end = NowNs();
    if (enabled_) {
      spans_.push_back({static_cast<int64_t>(spans_.size()) + 1, parent, probe,
                        name, start, end});
    }
    return static_cast<double>(end - start) / 1000.0;
  }

  /// Durations in microseconds of every span named `name`, in record order.
  std::vector<double> DurationsUs(const char* name) const;
  /// Per-probe duration (microseconds) of the spans named `name`; a probe
  /// with several such spans keeps their sum.
  std::vector<std::pair<int64_t, double>> ByProbe(const char* name) const;

  /// Writes one JSON object per span; false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Median of `values`; 0 for an empty list.
double MedianOf(std::vector<double> values);

/// Point-in-time process health read from /proc/self.
struct ProcGauges {
  int64_t open_fds = 0;
  int64_t threads = 0;
  double rss_mb = 0;
  double peak_rss_mb = 0;
};
ProcGauges ReadProcGauges();

/// The machine block: CPU, nproc, measured parallelism through
/// ThreadPool::Run, the kernel table in use, build type and source id.
std::string MachineJson(const std::string& source_id);

/// FNV-1a over answers, for the per-seed answer digest.
class Digest {
 public:
  void Bytes(const void* data, size_t size);
  void Double(double value) { Bytes(&value, sizeof(value)); }
  void Text(const std::string& text) { Bytes(text.data(), text.size()); }
  void Neighbors(const std::vector<dpjl::SketchIndex::Neighbor>& list);
  void Sketch(const dpjl::PrivateSketch& sketch);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

bool SameBytes(double a, double b);
bool SameNeighbors(const std::vector<dpjl::SketchIndex::Neighbor>& a,
                   const std::vector<dpjl::SketchIndex::Neighbor>& b);
bool SameSketch(const dpjl::PrivateSketch& a, const dpjl::PrivateSketch& b);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run of one workload produced.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Each distinct answer check that failed (empty = correct).
  std::vector<std::string> check_failures;
  int64_t checks_failed = 0;
  /// The metrics BENCHMARK.json names (end-to-end or per-layer).
  std::vector<Metric> metrics;
  /// Extra figures for the report: the per-operation names, sample
  /// counts, traced-vs-untraced numbers, health gauges.
  std::vector<Metric> details;
  uint64_t digest = 0;

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    ++checks_failed;
    for (const std::string& known : check_failures) {
      if (known == what) return;
    }
    check_failures.push_back(what);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
};

std::string JsonEscape(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
