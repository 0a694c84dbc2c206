// dpjl_perfbench: runs one benchmark workload and prints a report followed
// by one JSON result line. Normally driven by perfbench/run.py:
//
//   dpjl_perfbench --workload query_local --seed 7 --seconds 20 --trace 0
//
// --trace 1 reports the per-layer metrics instead of the end-to-end ones
// and writes its spans to --trace-out. --smoke shrinks every size.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"

namespace {

int Usage(const std::string& problem) {
  std::cerr << "dpjl_perfbench: " << problem << "\n"
            << "usage: dpjl_perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--trace-out PATH] [--source-id ID] [--smoke]\n";
  return 2;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + perfbench::JsonEscape(metrics[i].name) +
            "\": {\"value\": " + Number(metrics[i].value) + ", \"unit\": \"" +
            perfbench::JsonEscape(metrics[i].unit) + "\"}";
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) return Usage("--workload is required");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  const std::string machine = perfbench::MachineJson(args.source_id);
  auto result = perfbench::RunWorkload(args);
  if (!result.ok()) {
    std::cerr << "dpjl_perfbench: " << args.workload << ": "
              << result.status().ToString() << "\n";
    return 1;
  }
  const perfbench::Outcome& out = *result;

  std::cout << "workload " << args.workload << " seed " << args.seed << " seconds "
            << args.seconds << " trace " << args.trace << "\n";
  for (const auto& m : out.metrics) {
    std::cout << "  " << m.name << " = " << Number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "details:\n";
  for (const auto& m : out.details) {
    std::cout << "  " << m.name << " = " << Number(m.value) << " " << m.unit << "\n";
  }
  for (const auto& failure : out.check_failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }

  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(out.digest));
  std::string failures = "[";
  for (size_t i = 0; i < out.check_failures.size(); ++i) {
    failures += (i ? ", \"" : "\"") + perfbench::JsonEscape(out.check_failures[i]) + "\"";
  }
  failures += "]";
  std::cout << "{\"correct\": " << (out.checks_failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": " << MetricsJson(out.metrics)
            << ", \"details\": " << MetricsJson(out.details)
            << ", \"checks_failed\": " << out.checks_failed
            << ", \"check_failures\": " << failures << ", \"digest\": \"" << digest
            << "\", \"machine\": " << machine << "}" << std::endl;
  return 0;
}
