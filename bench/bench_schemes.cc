// Blocking-scheme benchmark: the SAME dataset and downstream pipeline run
// once per registered blocking scheme, timing the preparation (load +
// block + count) and the end-to-end job, and recording each scheme's
// candidate count and blocking quality (the PC/PQ trade-off every scheme
// navigates differently — Table 2's axes applied to the scheme registry).
//
// One benchmark-shaped JSON row per scheme lands in the artifact so
// bench_diff.py tracks per-scheme prepare cost, run cost and the retained
// digest across commits: timings may drift, retained sets must not.
//
//   GSMB_SCALE    dataset size multiplier (default 0.25)
//   GSMB_THREADS  worker threads (default: all hardware threads)
//   --json PATH   benchmark-shaped JSON artifact for bench_diff.py
//
// Exits non-zero when any scheme fails to prepare or run, so CI can run it
// as a smoke.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gsmb/digest.h"
#include "gsmb/engine.h"
#include "gsmb/job_spec.h"
#include "schemes/scheme_registry.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace {

using namespace gsmb;

double EnvScale() {
  const char* value = std::getenv("GSMB_SCALE");
  if (value == nullptr) return 0.25;
  const double parsed = std::atof(value);
  return parsed > 0.0 ? parsed : 0.25;
}

size_t EnvThreads() {
  const char* value = std::getenv("GSMB_THREADS");
  if (value == nullptr) return HardwareThreads();
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<size_t>(parsed) : HardwareThreads();
}

struct BenchRow {
  std::string name;
  double real_time_ms = 0.0;
  std::string retained_digest;
};

bool EmitBenchJson(const std::string& path, double scale, size_t threads,
                   const std::vector<BenchRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"context\": {\n"
      << "    \"executable\": \"bench_schemes\",\n"
      << "    \"scale\": " << scale << ",\n"
      << "    \"threads\": " << threads << "\n"
      << "  },\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out << "    {\n"
        << "      \"name\": \"" << rows[i].name << "\",\n"
        << "      \"run_type\": \"iteration\",\n"
        << "      \"real_time\": " << rows[i].real_time_ms << ",\n"
        << "      \"time_unit\": \"ms\"";
    if (!rows[i].retained_digest.empty()) {
      out << ",\n      \"retained_digest\": \"" << rows[i].retained_digest
          << "\"";
    }
    out << "\n    }" << (i + 1 == rows.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_schemes [--json out.json]\n");
      return 2;
    }
  }

  const double scale = EnvScale();
  const size_t threads = EnvThreads();
  std::printf("== Blocking-scheme benchmark (scale %.3g, %zu threads) ==\n\n",
              scale, threads);

  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedDirty;
  spec.dataset.name = "D10K";
  spec.dataset.scale = scale;
  spec.blocking.filter_ratio = 1.0;
  spec.pruning.kind = PruningKind::kBlast;
  spec.training.labels_per_class = 50;
  spec.training.seed = 1;
  spec.execution.options.num_threads = threads;

  TablePrinter table({"scheme", "blocks", "candidates", "PC", "PQ",
                      "prepare ms", "run ms", "retained"});
  std::vector<BenchRow> bench_rows;

  bool ok = true;
  for (const std::string& scheme : schemes::BlockerNames()) {
    spec.blocking.scheme = scheme;
    // A fresh engine per scheme: the prepare row times a genuinely cold
    // preparation, never a cache hit.
    Engine engine;
    Stopwatch watch;
    Result<PreparedHandle> prepared = engine.Prepare(spec);
    const double prepare_ms = watch.ElapsedMillis();
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s: prepare failed: %s\n", scheme.c_str(),
                   prepared.status().ToString().c_str());
      ok = false;
      continue;
    }
    const StreamingDataset& stream = (*prepared)->stream;

    watch.Restart();
    Result<JobResult> result = engine.Run(spec);
    const double run_ms = watch.ElapsedMillis();
    if (!result.ok()) {
      std::fprintf(stderr, "%s: run failed: %s\n", scheme.c_str(),
                   result.status().ToString().c_str());
      ok = false;
      continue;
    }

    table.AddRow({scheme, std::to_string(stream.blocks.size()),
                  std::to_string(static_cast<size_t>(
                      (*prepared)->num_candidates())),
                  TablePrinter::Fixed(stream.blocking_quality.recall, 4),
                  TablePrinter::Fixed(stream.blocking_quality.precision, 4),
                  TablePrinter::Fixed(prepare_ms, 1),
                  TablePrinter::Fixed(run_ms, 1),
                  std::to_string(result->metrics.retained)});
    bench_rows.push_back({"schemes/" + scheme + "/prepare", prepare_ms, ""});
    bench_rows.push_back({"schemes/" + scheme + "/run", run_ms,
                          obs::DigestHex(result->retained_digest)});
  }
  std::printf("%s", table.ToString().c_str());

  if (!json_path.empty()) {
    if (!EmitBenchJson(json_path, scale, threads, bench_rows)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!ok) return 1;
  std::printf("SCHEME BENCH OK: every registered scheme prepared and ran\n");
  return 0;
}
