// perfbench_runner: runs ONE workload of the repo benchmark and prints its
// result. perfbench/run.py builds this binary and drives it; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --data-dir DIR [--reference FILE] [--trace-out FILE]
//                    [--tiny]
//
// Output: "metric <name> <value> <unit>" and "digest <label> <kind> <hex>"
// lines, then the result as one JSON line (always the last line). Exit code
// 0 when every operation succeeded and every digest matched, 1 when not,
// 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/thread_pool.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0, const char* problem) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload NAME --seed N --seconds S "
               "--trace 0|1 --data-dir DIR [--reference FILE] "
               "[--trace-out FILE] [--tiny]\n",
               problem, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(argv[0], ("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--reference") {
      options.reference = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(argv[0], ("unknown flag " + flag).c_str());
    }
  }
  if (options.data_dir.empty() || !(options.seconds > 0)) {
    return Usage(argv[0], "--data-dir and a positive --seconds are required");
  }

  std::printf("workload %s seed %llu seconds %g trace %d scale %s "
              "threads %zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? "tiny" : "full",
              gsmb::HardwareThreads());
  bool known = false;
  perfbench::RunResult result = perfbench::RunWorkload(options, &known);
  if (!known) {
    return Usage(argv[0], ("unknown workload " + options.workload).c_str());
  }

  for (const std::string& label : result.digests.MissingReferenceLabels()) {
    std::printf("FAILED reference label %s was never produced\n",
                label.c_str());
    ++result.failed;
    ++result.attempted;
  }
  result.report.Set("failed_ratio",
                    static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted),
                    "ratio");
  result.digests.Print();
  result.report.PrintAll();
  const bool correct = result.failed == 0;
  std::printf("%s\n", result.report
                          .ResultJson(correct, result.attempted, result.failed,
                                      options.trace
                                          ? perfbench::PerLayerMetrics()
                                          : perfbench::EndToEndMetrics())
                          .c_str());
  return correct ? 0 : 1;
}
