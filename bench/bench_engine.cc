// Engine-facade benchmark: ONE JobSpec driven through every registered
// backend, timing each and asserting the cross-backend equivalence the
// facade promises (batch == streaming retained counts for any spec;
// serving joins them on a shard-pure spec with one shard).
//
// This is the bench-side answer to "what does the facade cost?": the
// engine adds validation + dispatch + spec plumbing on top of the raw
// pipelines, and this harness shows that overhead is noise against the
// pipeline itself while giving one place to compare backend wall-clocks.
// Since the staged API it also times Engine::Prepare cold vs cached — the
// saving every repeated Run()/sweep over one dataset banks — and asserts
// the cached handle is pointer-identical to the cold one.
//
//   GSMB_SCALE    dataset size multiplier (default 0.25)
//   GSMB_THREADS  worker threads (default: all hardware threads)
//   --json PATH   benchmark-shaped JSON artifact (bench_diff.py diffs it
//                 in CI next to the micro / streaming artifacts)
//
// Exits non-zero on any cross-backend retained-count mismatch, so CI can
// run it as a smoke.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gsmb/digest.h"
#include "gsmb/engine.h"
#include "gsmb/job_spec.h"
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
  /// Retained-set provenance digest (gsmb/digest.h), empty on rows that
  /// time non-run work (prepare cold/cached). bench_diff.py hard-fails on
  /// any digest change: timings drift, retained sets must not.
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
      << "    \"executable\": \"bench_engine\",\n"
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
      std::fprintf(stderr, "usage: bench_engine [--json out.json]\n");
      return 2;
    }
  }

  const double scale = EnvScale();
  const size_t threads = EnvThreads();
  std::printf("== Engine facade benchmark (scale %.3g, %zu threads) ==\n\n",
              scale, threads);

  // A serving-compatible spec, so all three backends run the same job:
  // Dirty ER, token blocking, no filtering, linear classifier, one shard.
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedDirty;
  spec.dataset.name = "D10K";
  spec.dataset.scale = scale;
  spec.blocking.filter_ratio = 1.0;
  spec.training.labels_per_class = 50;
  spec.training.seed = 1;
  spec.execution.options.num_threads = threads;
  spec.execution.shards = 1;

  Engine engine;
  TablePrinter table({"backend", "pruning", "retained", "recall",
                      "precision", "engine ms", "pipeline ms"});
  std::vector<BenchRow> bench_rows;

  bool consistent = true;
  for (PruningKind pruning : {PruningKind::kBlast, PruningKind::kRcnp}) {
    spec.pruning.kind = pruning;
    size_t reference_retained = 0;
    uint64_t reference_digest = 0;
    bool have_reference = false;
    for (const std::string& backend : engine.BackendNames()) {
      Stopwatch watch;
      Result<JobResult> result = engine.RunOn(backend, spec);
      const double engine_ms = watch.ElapsedMillis();
      if (!result.ok()) {
        std::fprintf(stderr, "%s/%s failed: %s\n", backend.c_str(),
                     PruningKindName(pruning),
                     result.status().ToString().c_str());
        return 1;
      }
      table.AddRow({backend, PruningKindName(pruning),
                    std::to_string(result->metrics.retained),
                    TablePrinter::Fixed(result->metrics.recall, 4),
                    TablePrinter::Fixed(result->metrics.precision, 4),
                    TablePrinter::Fixed(engine_ms, 1),
                    TablePrinter::Fixed(result->total_seconds * 1e3, 1)});
      bench_rows.push_back({"engine/" + backend + "/" +
                                PruningKindName(pruning),
                            engine_ms,
                            obs::DigestHex(result->retained_digest)});
      if (!have_reference) {
        reference_retained = result->metrics.retained;
        reference_digest = result->retained_digest;
        have_reference = true;
      } else if (result->metrics.retained != reference_retained ||
                 result->retained_digest != reference_digest) {
        std::fprintf(stderr,
                     "MISMATCH: %s retained %zu pairs (digest %s), "
                     "expected %zu (digest %s)\n",
                     backend.c_str(), result->metrics.retained,
                     obs::DigestHex(result->retained_digest).c_str(),
                     reference_retained,
                     obs::DigestHex(reference_digest).c_str());
        consistent = false;
      }
    }
  }
  std::printf("%s", table.ToString().c_str());

  // ---- Cold vs cached preparation: what the staged API saves. ----------
  // A fresh engine pays the full load + block + count once; the second
  // Prepare of the same dataset+blocking is a cache hit returning the SAME
  // handle. Both rows land in the JSON artifact so bench_diff.py tracks
  // the cold cost and the (near-zero) cached cost across commits.
  {
    Engine cold_engine;
    Stopwatch watch;
    Result<PreparedHandle> cold = cold_engine.Prepare(spec);
    const double cold_ms = watch.ElapsedMillis();
    if (!cold.ok()) {
      std::fprintf(stderr, "prepare (cold) failed: %s\n",
                   cold.status().ToString().c_str());
      return 1;
    }
    watch.Restart();
    Result<PreparedHandle> cached = cold_engine.Prepare(spec);
    const double cached_ms = watch.ElapsedMillis();
    if (!cached.ok() || cached->get() != cold->get()) {
      std::fprintf(stderr,
                   "prepare (cached) did not return the shared handle\n");
      return 1;
    }
    const PrepareCacheStats stats = cold_engine.prepare_cache_stats();
    if (stats.misses != 1 || stats.hits != 1) {
      std::fprintf(stderr,
                   "prepare cache counted %zu misses / %zu hits, "
                   "expected 1 / 1\n",
                   stats.misses, stats.hits);
      return 1;
    }
    std::printf(
        "\nEngine::Prepare: cold %.1f ms, cached %.3f ms (%zu candidates, "
        "~%.1f MB resident)\n",
        cold_ms, cached_ms,
        static_cast<size_t>((*cold)->num_candidates()),
        static_cast<double>(stats.bytes) / (1024.0 * 1024.0));
    bench_rows.push_back({"engine/prepare_cold", cold_ms, ""});
    bench_rows.push_back({"engine/prepare_cached", cached_ms, ""});
  }

  // The facade's own overhead: a spec JSON round trip plus validation per
  // Run() is the only cost the engine adds before dispatch.
  Stopwatch watch;
  constexpr int kReps = 1000;
  for (int i = 0; i < kReps; ++i) {
    Result<JobSpec> parsed = JobSpec::FromJson(spec.ToJson());
    if (!parsed.ok() || !parsed->Validate().ok()) return 1;
  }
  std::printf("spec JSON round trip + validation: %.1f us/job\n",
              watch.ElapsedMillis() * 1e3 / kReps);

  if (!json_path.empty()) {
    if (!EmitBenchJson(json_path, scale, threads, bench_rows)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!consistent) return 1;
  std::printf(
      "ENGINE BENCH OK: all backends retained identical sets (digests)\n");
  return 0;
}
