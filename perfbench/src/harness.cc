#include "perfbench/src/harness.h"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "src/common/thread_pool.h"
#include "src/linalg/kernels.h"

namespace perfbench {

Sizes SizesFor(bool smoke) {
  Sizes sizes;
  if (!smoke) return sizes;
  sizes.local_corpus = 512;
  sizes.routed_corpus = 128;
  sizes.all_pairs_corpus = 128;
  sizes.clusters_local = 8;
  sizes.clusters_routed = 4;
  sizes.ingest_batch = 32;
  sizes.ingest_pool = 128;
  sizes.ingest_engine_capacity = 128;
  sizes.num_probes = 16;
  sizes.all_pairs_every = 4;
  sizes.churn_every = 10;
  sizes.setup_reps = 2;
  return sizes;
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double Samples::Median() const { return MedianOf(values_); }

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

Samples::Tail Samples::TailValue() const {
  Tail tail;
  if (values_.empty()) return tail;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    const size_t rank = static_cast<size_t>(std::ceil(n * p / 100.0));
    const size_t index = rank == 0 ? 0 : rank - 1;
    const size_t beyond = sorted.size() - 1 - index;
    if (beyond >= 10 || p == 50.0) {
      tail.value = sorted[index];
      tail.percentile = p;
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

std::vector<double> Tracer::DurationsUs(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    }
  }
  return out;
}

std::vector<std::pair<int64_t, double>> Tracer::ByProbe(const char* name) const {
  std::map<int64_t, double> sums;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      sums[span.probe] += static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
    }
  }
  return {sums.begin(), sums.end()};
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  for (const Span& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"probe\":" << span.probe << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
  return out.good();
}

namespace {

int64_t CountDirEntries(const char* path) {
  DIR* dir = opendir(path);
  if (dir == nullptr) return -1;
  int64_t count = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  closedir(dir);
  return count;
}

// Value of a "Key:   123 kB" line of /proc/self/status, or -1.
int64_t StatusField(const std::string& status, const char* key) {
  const size_t at = status.find(std::string(key) + ":");
  if (at == std::string::npos) return -1;
  return std::strtoll(status.c_str() + at + std::strlen(key) + 1, nullptr, 10);
}

std::string ReadFile(const char* path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// A fixed, memory-free compute loop, so only the cores' count and sharing
// decide how it scales.
double SpinChunk(int64_t chunk) {
  double x = 1.0 + static_cast<double>(chunk) * 1e-9;
  for (int i = 0; i < 400000; ++i) x = x * 1.0000001 + 1e-7;
  return x;
}

double ParallelLoopSeconds(int threads) {
  constexpr int64_t kChunks = 64;
  std::vector<double> sink(kChunks);
  auto body = [&](int64_t begin, int64_t end) {
    for (int64_t c = begin; c < end; ++c) sink[static_cast<size_t>(c)] = SpinChunk(c);
  };
  std::unique_ptr<dpjl::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<dpjl::ThreadPool>(threads);
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t start = NowNs();
    dpjl::ThreadPool::Run(pool.get(), 0, kChunks, 1, body);
    best = std::min(best, static_cast<double>(NowNs() - start) / 1e9);
  }
  volatile double keep = sink[0];
  (void)keep;
  return best;
}

}  // namespace

ProcGauges ReadProcGauges() {
  ProcGauges gauges;
  gauges.open_fds = CountDirEntries("/proc/self/fd");
  gauges.threads = CountDirEntries("/proc/self/task");
  const std::string status = ReadFile("/proc/self/status");
  gauges.rss_mb = static_cast<double>(StatusField(status, "VmRSS")) / 1024.0;
  gauges.peak_rss_mb = static_cast<double>(StatusField(status, "VmHWM")) / 1024.0;
  return gauges;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string MachineJson(const std::string& source_id) {
  std::string cpu = "unknown";
  {
    const std::string info = ReadFile("/proc/cpuinfo");
    const size_t at = info.find("model name");
    if (at != std::string::npos) {
      const size_t colon = info.find(':', at);
      const size_t eol = info.find('\n', at);
      if (colon != std::string::npos && colon < eol) {
        cpu = info.substr(colon + 2, eol - colon - 2);
      }
    }
  }
  const double t1 = ParallelLoopSeconds(1);
  std::ostringstream json;
  json << "{\"cpu\":\"" << JsonEscape(cpu) << "\",\"nproc\":"
       << std::thread::hardware_concurrency() << ",\"parallel_speedup\":{";
  const int counts[] = {1, 2, 4};
  for (size_t i = 0; i < 3; ++i) {
    const double t = counts[i] == 1 ? t1 : ParallelLoopSeconds(counts[i]);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%d\":%.3f", counts[i], t1 / t);
    json << (i ? "," : "") << buf;
  }
  // The single-thread time of the same loop: how fast the host ran this
  // run, to tell host drift from program changes across runs.
  char spin[64];
  std::snprintf(spin, sizeof(spin), "},\"spin_1t_ms\":%.3f", t1 * 1000.0);
  json << spin;
  const char* force_scalar = std::getenv("DPJL_FORCE_SCALAR");
  const char* pick = std::getenv("DPJL_KERNELS");
  json << ",\"kernel_table\":\"" << dpjl::Kernels().name
       << "\",\"kernel_env\":\"DPJL_FORCE_SCALAR="
       << JsonEscape(force_scalar ? force_scalar : "") << " DPJL_KERNELS="
       << JsonEscape(pick ? pick : "") << "\",\"build\":\""
       << JsonEscape(PERFBENCH_BUILD_TYPE) << "\",\"source\":\""
       << JsonEscape(source_id) << "\"}";
  return json.str();
}

void Digest::Bytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ULL;
  }
}

void Digest::Neighbors(const std::vector<dpjl::SketchIndex::Neighbor>& list) {
  const uint64_t count = list.size();
  Bytes(&count, sizeof(count));
  for (const auto& n : list) {
    Text(n.id);
    Double(n.squared_distance);
  }
}

void Digest::Sketch(const dpjl::PrivateSketch& sketch) {
  const auto& values = sketch.values();
  Bytes(values.data(), values.size() * sizeof(double));
}

bool SameBytes(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

bool SameNeighbors(const std::vector<dpjl::SketchIndex::Neighbor>& a,
                   const std::vector<dpjl::SketchIndex::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || !SameBytes(a[i].squared_distance, b[i].squared_distance)) {
      return false;
    }
  }
  return true;
}

bool SameSketch(const dpjl::PrivateSketch& a, const dpjl::PrivateSketch& b) {
  const auto& x = a.values();
  const auto& y = b.values();
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0 &&
         SameBytes(a.RawSquaredNorm(), b.RawSquaredNorm());
}

}  // namespace perfbench
