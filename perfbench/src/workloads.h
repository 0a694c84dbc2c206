// The three workloads: ingest, query_local and query_routed. Each is one
// client thread in one process running a closed loop against the library.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/common/result.h"

namespace perfbench {

/// Sets the workload up, runs it for args.seconds and returns its metrics:
/// the end-to-end set untraced, the per-layer set when args.trace.
dpjl::Result<Outcome> RunWorkload(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
