// The four perfbench workloads. Each runs in its own process (the runner
// executes exactly one per invocation), so one workload's peak RSS never
// leaks into another's. perfbench/README.md records why each exists.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: half the time on the untraced path (the overhead
  /// baseline), half with spans around every layer call.
  bool trace = false;
  /// Self-test scale: every dataset shrunk so a run takes seconds.
  bool tiny = false;
  /// Where set-up writes the generated CSV inputs.
  std::string data_dir;
  /// Reference-digest table (perfbench/reference_digests.txt).
  std::string reference;
  /// Chrome-trace output of the traced run ("" = do not write).
  std::string trace_out;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report report;
  DigestBook digests;
};

/// Names of the workloads, in the order the self-test runs them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload; false in `*known` when the name is not a workload.
RunResult RunWorkload(const RunOptions& options, bool* known);

/// The metrics the result line carries: the end-to-end set of an untraced
/// run, the per-layer set of a traced one (BENCHMARK.json lists both).
const std::vector<MetricName>& EndToEndMetrics();
const std::vector<MetricName>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
