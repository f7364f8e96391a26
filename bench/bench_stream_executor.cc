// Streaming-executor benchmark: peak memory and wall clock of streaming
// (many shards, pairs regenerated from the blocks) against batch
// (RunMetaBlocking, core/pipeline.h: the same executor at one shard over
// the materialised pair list) on a generated Dirty dataset.
//
// VmHWM is a process-wide high-water mark, so the two paths CANNOT be
// measured in one process — whichever runs first would poison the other's
// reading. The parent therefore re-executes itself once per mode
// (`--mode batch|stream`), each child reports its own peak RSS, and the
// parent merges the readings into a google-benchmark-shaped JSON (default
// bench_stream_executor.json) that tools/bench_diff.py diffs in CI, and
// verifies the two paths retained the same number of pairs.
//
//   GSMB_STREAM_ENTITIES  Dirty dataset size (default 20000)
//   GSMB_STREAM_SHARDS    streaming shard count (default 64)
//
// Headline number: peak-RSS reduction of stream vs batch (target >= 4x).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "datasets/dirty_generator.h"
#include "datasets/specs.h"
#include "gsmb/digest.h"
#include "gsmb/telemetry.h"
#include "stream/streaming_dataset.h"
#include "stream/streaming_executor.h"
#include "util/mem_stats.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace gsmb;

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long long parsed = std::atoll(value);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

GeneratedDirty MakeDataset() {
  DirtySpec spec;
  spec.name = "StreamBench";
  spec.num_entities = EnvSize("GSMB_STREAM_ENTITIES", 20000);
  spec.seed = 17;
  return DirtyGenerator().Generate(spec);
}

MetaBlockingConfig BenchConfig() {
  MetaBlockingConfig config;
  config.features = FeatureSet::BlastOptimal();
  config.pruning = PruningKind::kBlast;
  config.train_per_class = 50;
  config.execution.num_threads = HardwareThreads();
  return config;
}

using Props = std::map<std::string, std::string>;

void WriteProps(const std::string& path, const Props& props) {
  std::ofstream out(path);
  for (const auto& [key, value] : props) out << key << "=" << value << "\n";
}

Props ReadProps(const std::string& path) {
  Props props;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (eq != std::string::npos) {
      props[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }
  return props;
}

double PropDouble(const Props& props, const std::string& key) {
  auto it = props.find(key);
  return it == props.end() ? 0.0 : std::atof(it->second.c_str());
}

// ---- child: one measured pipeline in a fresh process ----------------------

int RunChild(const std::string& mode, const std::string& props_path) {
  const GeneratedDirty data = MakeDataset();
  const MetaBlockingConfig config = BenchConfig();
  BlockingOptions blocking;
  blocking.execution.num_threads = config.execution.num_threads;

  Props props;
  props["mode"] = mode;
  props["entities"] = std::to_string(data.entities.size());

  Stopwatch total;
  if (mode == "batch") {
    Stopwatch watch;
    GroundTruth gt = data.ground_truth;
    const PreparedDataset prep =
        PrepareDirty("bench", data.entities, std::move(gt), blocking);
    props["prep_ms"] = std::to_string(watch.ElapsedMillis());
    MetaBlockingConfig digest_config = config;
    digest_config.keep_retained = true;
    watch.Restart();
    const MetaBlockingResult result = RunMetaBlocking(prep, digest_config);
    props["run_ms"] = std::to_string(watch.ElapsedMillis());
    obs::PairSetDigest digest;
    for (uint32_t index : result.retained_indices) {
      const CandidatePair& pair = prep.pairs[index];
      digest.AddPair(data.entities[pair.left].external_id(),
                     data.entities[pair.right].external_id());
    }
    props["pairs"] = std::to_string(prep.pairs.size());
    props["retained"] = std::to_string(result.metrics.retained);
    props["retained_digest"] = digest.Hex();
  } else {
    Stopwatch watch;
    GroundTruth gt = data.ground_truth;
    const StreamingDataset prep =
        PrepareStreamingDirty("bench", data.entities, std::move(gt),
                              blocking);
    props["prep_ms"] = std::to_string(watch.ElapsedMillis());
    StreamingOptions options;
    options.num_shards = EnvSize("GSMB_STREAM_SHARDS", 64);
    // Per-shard fold times come from the telemetry registry's
    // stream.shard.fold_us histogram, recorded by the executor itself.
    obs::TelemetrySink sink;
    obs::InstallSink(&sink);
    obs::PairSetDigest digest;
    const StreamingExecutor::RetainedSink retained_sink =
        [&](uint32_t, const CandidatePair& pair, double) {
          digest.AddPair(data.entities[pair.left].external_id(),
                         data.entities[pair.right].external_id());
        };
    watch.Restart();
    const MetaBlockingResult result =
        StreamingExecutor(prep, options).Run(config, retained_sink);
    props["run_ms"] = std::to_string(watch.ElapsedMillis());
    props["retained_digest"] = digest.Hex();
    obs::InstallSink(nullptr);
    const obs::MetricsSnapshot snapshot = sink.SnapshotMetrics();
    const auto fold = snapshot.histograms.find("stream.shard.fold_us");
    if (fold != snapshot.histograms.end() && fold->second.count > 0) {
      props["fold_p50_us"] = std::to_string(fold->second.Percentile(0.50));
      props["fold_p95_us"] = std::to_string(fold->second.Percentile(0.95));
      props["fold_p99_us"] = std::to_string(fold->second.Percentile(0.99));
    }
    props["pairs"] = std::to_string(prep.num_candidates());
    props["retained"] = std::to_string(result.metrics.retained);
    props["shards"] = std::to_string(result.num_shards_used);
    props["arena_pairs"] = std::to_string(result.max_shard_candidates);
    props["sweeps"] = std::to_string(result.sweeps);
  }
  props["total_ms"] = std::to_string(total.ElapsedMillis());
  props["peak_rss_mb"] =
      std::to_string(static_cast<double>(PeakRssKb()) / 1024.0);
  WriteProps(props_path, props);
  return 0;
}

// ---- parent: spawn both modes, merge, verify ------------------------------

int RunChildProcess(const char* self, const std::string& mode,
                    const std::string& props_path) {
  std::ostringstream cmd;
  cmd << '"' << self << "\" --mode " << mode << " --props \"" << props_path
      << '"';
  // Each mode must run in a fresh process so peak-RSS numbers don't bleed
  // into each other; this bench is its own coordinator by design.
  // gsmb-lint: allow(raw-process)
  return std::system(cmd.str().c_str());
}

void EmitBenchJson(const std::string& path, const Props& stream,
                   const Props& batch, double rss_ratio) {
  std::ofstream out(path);
  auto row = [&](const Props& props, const char* name, bool last) {
    out << "    {\n"
        << "      \"name\": \"" << name << "\",\n"
        << "      \"run_type\": \"iteration\",\n"
        << "      \"real_time\": " << PropDouble(props, "run_ms") << ",\n"
        << "      \"time_unit\": \"ms\",\n"
        << "      \"prep_ms\": " << PropDouble(props, "prep_ms") << ",\n"
        << "      \"pairs\": " << PropDouble(props, "pairs") << ",\n"
        << "      \"retained\": " << PropDouble(props, "retained") << ",\n"
        << "      \"peak_rss_mb\": " << PropDouble(props, "peak_rss_mb");
    // Registry-derived percentile keys, present on the stream row only;
    // bench_diff.py tolerates keys one side lacks.
    for (const char* key : {"fold_p50_us", "fold_p95_us", "fold_p99_us"}) {
      if (props.count(key) != 0) {
        out << ",\n      \"" << key << "\": " << PropDouble(props, key);
      }
    }
    if (props.count("retained_digest") != 0) {
      out << ",\n      \"retained_digest\": \""
          << props.at("retained_digest") << "\"";
    }
    out << "\n    }" << (last ? "\n" : ",\n");
  };
  out << "{\n  \"context\": {\n"
      << "    \"executable\": \"bench_stream_executor\",\n"
      << "    \"entities\": " << PropDouble(stream, "entities") << ",\n"
      << "    \"stream_shards\": " << PropDouble(stream, "shards") << ",\n"
      << "    \"stream_arena_pairs\": " << PropDouble(stream, "arena_pairs")
      << ",\n"
      << "    \"stream_rss_reduction_vs_batch\": " << rss_ratio << "\n"
      << "  },\n  \"benchmarks\": [\n";
  row(batch, "stream_executor/batch", false);
  row(stream, "stream_executor/stream", true);
  out << "  ]\n}\n";
}

int RunParent(const char* self, const std::string& json_path) {
  const std::string dir =
      std::filesystem::temp_directory_path().string();
  const std::string stream_props = dir + "/gsmb_stream_bench_stream.props";
  const std::string batch_props = dir + "/gsmb_stream_bench_batch.props";

  std::printf("== Streaming-executor benchmark (%zu entities, %zu shards, "
              "%zu threads) ==\n",
              EnvSize("GSMB_STREAM_ENTITIES", 20000),
              EnvSize("GSMB_STREAM_SHARDS", 64), HardwareThreads());

  if (RunChildProcess(self, "stream", stream_props) != 0 ||
      RunChildProcess(self, "batch", batch_props) != 0) {
    std::fprintf(stderr, "error: child benchmark process failed\n");
    return 1;
  }
  const Props stream = ReadProps(stream_props);
  const Props batch = ReadProps(batch_props);

  const double stream_rss = PropDouble(stream, "peak_rss_mb");
  const double batch_rss = PropDouble(batch, "peak_rss_mb");
  const double ratio = stream_rss > 0.0 ? batch_rss / stream_rss : 0.0;

  std::printf("\n%-8s %12s %12s %12s %12s\n", "mode", "pairs", "retained",
              "run ms", "peak MB");
  for (const Props* props : {&batch, &stream}) {
    std::printf("%-8s %12.0f %12.0f %12.1f %12.1f\n",
                props->at("mode").c_str(), PropDouble(*props, "pairs"),
                PropDouble(*props, "retained"), PropDouble(*props, "run_ms"),
                PropDouble(*props, "peak_rss_mb"));
  }
  std::printf("\nstreaming: %.0f shards, arena %.0f pairs, %.0f sweep(s)\n",
              PropDouble(stream, "shards"),
              PropDouble(stream, "arena_pairs"),
              PropDouble(stream, "sweeps"));
  if (stream.count("fold_p50_us") != 0) {
    std::printf("shard fold: p50 %.0f us | p95 %.0f us | p99 %.0f us "
                "(registry)\n",
                PropDouble(stream, "fold_p50_us"),
                PropDouble(stream, "fold_p95_us"),
                PropDouble(stream, "fold_p99_us"));
  }
  std::printf("peak-RSS reduction (batch / stream): %.2fx\n", ratio);

  EmitBenchJson(json_path, stream, batch, ratio);
  std::printf("wrote %s\n", json_path.c_str());

  const auto prop = [](const Props& props, const char* key) {
    auto it = props.find(key);
    return it == props.end() ? std::string() : it->second;
  };
  if (PropDouble(stream, "retained") != PropDouble(batch, "retained") ||
      PropDouble(stream, "pairs") != PropDouble(batch, "pairs") ||
      prop(stream, "retained_digest") != prop(batch, "retained_digest") ||
      prop(stream, "retained_digest").empty()) {
    std::fprintf(stderr,
                 "FAIL: streaming and batch disagree on candidate/retained "
                 "counts or retained-set digests\n");
    return 1;
  }
  std::printf("STREAM BENCH OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode, props_path;
  std::string json_path = "bench_stream_executor.json";
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--mode") == 0) {
      mode = value("--mode");
    } else if (std::strcmp(argv[i], "--props") == 0) {
      props_path = value("--props");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = value("--json");
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (!mode.empty()) {
    if (props_path.empty()) {
      std::fprintf(stderr, "error: --mode needs --props\n");
      return 2;
    }
    return RunChild(mode, props_path);
  }
  return RunParent(argv[0], json_path);
}
