#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/candidate_pairs.h"
#include "core/features.h"
#include "core/pruning.h"
#include "datasets/clean_clean_generator.h"
#include "datasets/dirty_generator.h"
#include "datasets/io.h"
#include "datasets/specs.h"
#include "gsmb/digest.h"
#include "gsmb/engine.h"
#include "ml/classifier.h"
#include "ml/sampler.h"
#include "schemes/scheme_registry.h"
#include "serve/session.h"
#include "stream/streaming_dataset.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using gsmb::BlockCollection;
using gsmb::CandidatePair;
using gsmb::DatasetSource;
using gsmb::Engine;
using gsmb::EntityCollection;
using gsmb::EntityProfile;
using gsmb::ExecutionMode;
using gsmb::FeatureSet;
using gsmb::GroundTruth;
using gsmb::JobInputs;
using gsmb::JobResult;
using gsmb::JobSpec;
using gsmb::MetaBlockingSession;
using gsmb::PreparedHandle;
using gsmb::PruningKind;
using gsmb::Result;
using gsmb::StreamingDataset;

// Set-up repeats this often per run; setup_s is the median.
constexpr int kSetupReps = 5;
// The open loop's measurement window, seconds of its schedule.
constexpr double kServeWindowSeconds = 2.0;

const std::vector<MetricName> kEndToEnd = {
    {"setup_s", "s"},      {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"},
    {"peak_rss_mb", "MB"}, {"recall", "ratio"},
};

const std::vector<MetricName> kPerLayer = {
    {"datasets.generate_ms", "ms"},
    {"datasets.load_ms", "ms"},
    {"schemes.build_ms", "ms"},
    {"schemes.blocks", "count"},
    {"blocking.purge_ms", "ms"},
    {"blocking.purged_blocks", "count"},
    {"blocking.filter_ms", "ms"},
    {"blocking.kept_assignment_ratio", "ratio"},
    {"stream.index_count_ms", "ms"},
    {"stream.candidates", "count"},
    {"obs.digest_ms", "ms"},
    {"blocking.pairs_ms", "ms"},
    {"core.features_ms", "ms"},
    {"ml.train_ms", "ms"},
    {"ml.training_size", "count"},
    {"ml.classify_ms", "ms"},
    {"core.prune_ms", "ms"},
    {"core.retained_ratio", "ratio"},
    {"core.match_ratio", "ratio"},
    {"stream.regen_ms", "ms"},
    {"stream.shards", "count"},
    {"stream.sweeps", "count"},
    {"serve.ingest_ms", "ms"},
    {"serve.refresh_ms", "ms"},
    {"serve.dirty_shards", "count"},
    {"serve.refresh.pairs_ms", "ms"},
    {"serve.refresh.features_ms", "ms"},
    {"serve.refresh.classify_ms", "ms"},
    {"serve.refresh.prune_ms", "ms"},
    {"serve.query_ms", "ms"},
    {"serve.query_wait_ms", "ms"},
    {"serve.generator_late_p99_ms", "ms"},
    {"serve.generator_late_max_ms", "ms"},
    {"api.overhead_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

/// Per-run state shared by every workload.
struct Ctx {
  explicit Ctx(const RunOptions& run_options)
      : options(run_options),
        tracer(run_options.trace),
        threads(gsmb::HardwareThreads()) {
    result.digests.LoadReference(options.reference,
                                 options.tiny ? "tiny" : "full",
                                 options.workload, options.seed);
  }

  const RunOptions& options;
  Tracer tracer;
  /// Stand-in for `tracer` on the untraced half of a traced run.
  Tracer off{false};
  RunResult result;
  size_t threads;
  std::vector<double> setup_seconds;
  /// Operation latencies (ms) of the untraced path by operation label.
  std::map<std::string, std::vector<double>> latency_ms;
  /// The same latencies in measurement windows — one per cycle of a closed
  /// loop, one per kServeWindowSeconds of the open loop's schedule — for
  /// the untraced path and the traced one.
  std::vector<std::vector<double>> windows;
  std::vector<std::vector<double>> traced_windows;
  int64_t next_op = 0;

  void NewWindow(bool traced) {
    (traced ? traced_windows : windows).emplace_back();
  }
  void AddLatency(bool traced, const std::string& label, double ms) {
    if (!traced) latency_ms[label].push_back(ms);
    (traced ? traced_windows : windows).back().push_back(ms);
  }

  /// Seconds of each half of the loop (all of it on an untraced run).
  double LoopSeconds() const {
    return options.trace ? options.seconds / 2 : options.seconds;
  }

  void Failure(const std::string& what) {
    ++result.failed;
    std::printf("FAILED %s\n", what.c_str());
  }

  void CheckDigest(const std::string& label, const std::string& kind,
                   uint64_t digest) {
    if (!result.digests.Check(label, kind, digest)) {
      Failure(kind + " digest of " + label + " is " +
              gsmb::obs::DigestHex(digest));
    }
  }

  /// A set-up digest counts as one more operation (so a mismatch shows in
  /// failed / attempted like any other).
  void CheckSetupDigest(const std::string& label, const std::string& kind,
                        uint64_t digest) {
    ++result.attempted;
    CheckDigest(label, kind, digest);
  }

  /// Runs one operation: counted as attempted, and as failed when `body`
  /// throws (a non-ok Status or a digest mismatch is reported by `body`).
  template <typename F>
  void Attempt(const std::string& what, F&& body) {
    ++result.attempted;
    try {
      body();
    } catch (const std::exception& e) {
      Failure(what + ": " + e.what());
    }
  }

  std::string DataPath(const std::string& file) const {
    const std::filesystem::path dir =
        std::filesystem::path(options.data_dir) /
        (options.workload + "-seed" + std::to_string(options.seed));
    std::filesystem::create_directories(dir);
    return (dir / file).string();
  }
};

/// The generator spec's own seed mixed with the run's seed: every seed
/// gives another dataset of the same shape.
uint64_t MixSeed(uint64_t base, uint64_t seed) {
  return gsmb::obs::Mix64(base ^ gsmb::obs::Mix64(seed));
}

template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw std::runtime_error(what + ": " + result.status().ToString());
  }
  return std::move(*result);
}

/// Repeats set-up kSetupReps times (op ids -1, -2, ...), timing each.
void SetUp(Ctx& ctx, const std::function<void(int64_t op)>& rep) {
  for (int r = 0; r < kSetupReps; ++r) {
    const auto start = Clock::now();
    rep(-(r + 1));
    ctx.setup_seconds.push_back(MsBetween(start, Clock::now()) / 1e3);
  }
}

/// Closed loop with one client: whole cycles until `seconds` have passed
/// (at least one), so every variant of the cycle runs equally often. Each
/// cycle is one measurement window. Returns the loop's wall seconds.
double ClosedLoop(Ctx& ctx, bool traced, double seconds,
                  const std::function<void()>& cycle) {
  const auto start = Clock::now();
  do {
    ctx.NewWindow(traced);
    cycle();
  } while (MsBetween(start, Clock::now()) < seconds * 1e3);
  return MsBetween(start, Clock::now()) / 1e3;
}

JobSpec CsvSpec(const Ctx& ctx, const std::string& e1, const std::string& e2,
                const std::string& ground_truth) {
  JobSpec spec;
  spec.dataset.source = DatasetSource::kCsv;
  spec.dataset.e1 = e1;
  spec.dataset.e2 = e2;
  spec.dataset.ground_truth = ground_truth;
  spec.execution.options.num_threads = ctx.threads;
  return spec;
}

JobSpec WriteCleanClean(Ctx& ctx, const gsmb::CleanCleanSpec& data_spec,
                        int64_t op) {
  gsmb::GeneratedCleanClean data;
  {
    ScopedSpan span(ctx.tracer, "datasets.generate", op);
    data = gsmb::CleanCleanGenerator().Generate(data_spec);
  }
  ScopedSpan span(ctx.tracer, "datasets.write", op);
  JobSpec spec = CsvSpec(ctx, ctx.DataPath("e1.csv"), ctx.DataPath("e2.csv"),
                         ctx.DataPath("matches.csv"));
  gsmb::SaveCollectionCsv(data.e1, spec.dataset.e1);
  gsmb::SaveCollectionCsv(data.e2, spec.dataset.e2);
  gsmb::SaveGroundTruthCsv(data.ground_truth, data.e1, data.e2,
                           spec.dataset.ground_truth);
  return spec;
}

/// The engine every workload drives. The prepare cache is off: a
/// preparation is either set-up work or the measured operation itself,
/// never a cache hit.
gsmb::EngineOptions ColdEngineOptions() {
  gsmb::EngineOptions options;
  options.prepare_cache_max_entries = 0;
  return options;
}

uint64_t RetainedDigest(const JobInputs& inputs,
                        const std::vector<CandidatePair>& pairs,
                        const std::vector<uint32_t>& indices) {
  gsmb::obs::PairSetDigest digest;
  for (uint32_t index : indices) {
    digest.AddPair(inputs.ExternalLeftId(pairs[index].left),
                   inputs.ExternalRightId(pairs[index].right));
  }
  return digest.Value();
}

// ---------------------------------------------------------------------------
// Layer-by-layer paths of the traced run: the same public functions the
// Engine composes, called one by one with a span around each.

struct LayerPrepared {
  JobInputs inputs;
  StreamingDataset stream;
  uint64_t fingerprint = 0;
  uint64_t digest = 0;
};

/// Engine::Prepare's work: load, block, purge, filter, index + count, and
/// the provenance digests.
LayerPrepared PrepareByLayer(Ctx& ctx, Tracer& tracer, const JobSpec& spec,
                             int64_t op, int parent) {
  LayerPrepared out;
  {
    ScopedSpan span(tracer, "datasets.load", op, parent);
    out.inputs.dirty = spec.dataset.e2.empty();
    out.inputs.e1 = gsmb::LoadCollectionCsv(spec.dataset.e1, "dataset.e1");
    if (!out.inputs.dirty) {
      out.inputs.e2 = gsmb::LoadCollectionCsv(spec.dataset.e2, "dataset.e2");
    }
    out.inputs.ground_truth = gsmb::LoadGroundTruthCsv(
        spec.dataset.ground_truth, out.inputs.e1,
        out.inputs.dirty ? out.inputs.e1 : out.inputs.e2, out.inputs.dirty);
  }
  const gsmb::schemes::Blocker* blocker =
      gsmb::schemes::FindBlocker(spec.blocking.scheme);
  if (blocker == nullptr) {
    throw std::runtime_error("unknown scheme " + spec.blocking.scheme);
  }
  BlockCollection raw = [&] {
    ScopedSpan span(tracer, "schemes.build", op, parent);
    return blocker->Build(out.inputs, spec.blocking, ctx.threads);
  }();
  tracer.Value("schemes.blocks", op, static_cast<double>(raw.size()));
  const gsmb::BlockPurging purging(spec.blocking.purge_size_fraction);
  const BlockCollection purged = [&] {
    ScopedSpan span(tracer, "blocking.purge", op, parent);
    return purging.Apply(raw);
  }();
  tracer.Value("blocking.purged_blocks", op,
               static_cast<double>(purging.last_purged_count()));
  BlockCollection filtered = [&] {
    ScopedSpan span(tracer, "blocking.filter", op, parent);
    return gsmb::BlockFiltering(spec.blocking.filter_ratio).Apply(purged);
  }();
  if (purged.TotalEntityOccurrences() > 0) {
    tracer.Value("blocking.kept_assignment_ratio", op,
                 static_cast<double>(filtered.TotalEntityOccurrences()) /
                     static_cast<double>(purged.TotalEntityOccurrences()));
  }
  {
    ScopedSpan span(tracer, "stream.index_count", op, parent);
    out.stream = gsmb::PrepareStreamingFromBlocks(
        "job", std::move(filtered), out.inputs.ground_truth, ctx.threads);
  }
  tracer.Value("stream.candidates", op,
               static_cast<double>(out.stream.num_candidates()));
  {
    ScopedSpan span(tracer, "obs.digest", op, parent);
    out.fingerprint = gsmb::obs::DatasetFingerprint(out.inputs);
    out.digest = gsmb::obs::PreparedStreamDigest(out.stream);
  }
  return out;
}

/// PreparedInputs::Batch()'s work: the materialised candidates + labels.
struct LayerBatch {
  std::vector<CandidatePair> pairs;
  std::vector<uint8_t> is_positive;
};

LayerBatch MaterializeByLayer(Ctx& ctx, const LayerPrepared& prep,
                              int64_t op) {
  ScopedSpan span(ctx.tracer, "blocking.pairs", op);
  LayerBatch batch;
  batch.pairs = gsmb::GenerateCandidatePairs(*prep.stream.index, ctx.threads);
  batch.is_positive.resize(batch.pairs.size());
  for (size_t i = 0; i < batch.pairs.size(); ++i) {
    batch.is_positive[i] = prep.stream.ground_truth.IsMatch(
                               batch.pairs[i].left, batch.pairs[i].right)
                               ? 1
                               : 0;
  }
  return batch;
}

/// One batch execution (features, train, classify, prune) through the
/// layer functions; returns the retained digest.
uint64_t ExecuteByLayer(Ctx& ctx, const JobSpec& spec,
                        const LayerPrepared& prep, const LayerBatch& batch,
                        int64_t op, int parent) {
  Tracer& tracer = ctx.tracer;
  const gsmb::Matrix features = [&] {
    ScopedSpan span(tracer, "core.features", op, parent);
    return gsmb::FeatureExtractor(*prep.stream.index, batch.pairs)
        .Compute(spec.features, ctx.threads);
  }();
  std::unique_ptr<gsmb::ProbabilisticClassifier> model;
  {
    ScopedSpan span(tracer, "ml.train", op, parent);
    gsmb::Rng rng(spec.training.seed);
    const gsmb::TrainingSet training = gsmb::SampleBalanced(
        batch.is_positive, spec.training.labels_per_class, &rng);
    if (training.size() < 2) {
      throw std::runtime_error("not enough labelled pairs to train");
    }
    const gsmb::Matrix train_x = features.SelectRows(training.row_indices);
    model = gsmb::MakeClassifier(spec.classifier, spec.training.seed);
    model->Fit(train_x, training.labels);
    tracer.Value("ml.training_size", op,
                 static_cast<double>(training.size()));
  }
  const std::vector<double> probabilities = [&] {
    ScopedSpan span(tracer, "ml.classify", op, parent);
    return model->PredictBatch(features, ctx.threads);
  }();
  const std::vector<uint32_t> retained = [&] {
    ScopedSpan span(tracer, "core.prune", op, parent);
    gsmb::PruningContext context = gsmb::PruningContext::FromIndex(
        *prep.stream.index, prep.stream.stats);
    context.blast_ratio = spec.pruning.blast_ratio;
    context.validity_threshold = spec.pruning.validity_threshold;
    context.execution.num_threads = ctx.threads;
    return gsmb::MakePruningAlgorithm(spec.pruning.kind)
        ->Prune(batch.pairs, probabilities, context);
  }();
  size_t true_positives = 0;
  for (uint32_t index : retained) true_positives += batch.is_positive[index];
  tracer.Value(
      "core.retained_ratio", op,
      static_cast<double>(retained.size()) /
          static_cast<double>(std::max<size_t>(1, batch.pairs.size())));
  tracer.Value("core.match_ratio", op,
               static_cast<double>(true_positives) /
                   static_cast<double>(std::max<size_t>(1, retained.size())));
  return RetainedDigest(prep.inputs, batch.pairs, retained);
}

// ---------------------------------------------------------------------------
// Engine-path operations shared by sweep-clean and stream-dirty.

struct Variant {
  std::string label;
  JobSpec spec;
};

/// Per-variant effectiveness (deterministic; recorded once per label).
struct Effectiveness {
  std::map<std::string, std::pair<double, double>> by_label;

  void Record(const std::string& label, double recall, double precision) {
    by_label.emplace(label, std::make_pair(recall, precision));
  }
  void ReportTo(Report& report) const {
    std::vector<double> recalls;
    std::vector<double> precisions;
    for (const auto& [label, rp] : by_label) {
      recalls.push_back(rp.first);
      precisions.push_back(rp.second);
    }
    report.Set("recall", Mean(recalls), "ratio");
    report.Set("precision", Mean(precisions), "ratio");
  }
};

/// Throughput bookkeeping of an Engine::Execute loop.
struct ExecuteLoop {
  uint64_t candidates = 0;
  std::vector<double> overhead_ms;
};

/// One Engine::Execute of `variant`; `traced` additionally records the
/// library-reported phases as per-operation values.
void ExecuteOp(Ctx& ctx, const Engine& engine, const gsmb::PreparedInputs& prep,
               const Variant& variant, bool traced, ExecuteLoop* loop,
               Effectiveness* effectiveness) {
  Tracer& tracer = traced ? ctx.tracer : ctx.off;
  const int64_t op = ctx.next_op++;
  ctx.Attempt(variant.label, [&] {
    const int span = tracer.Begin("op", op);
    const auto start = Clock::now();
    Result<JobResult> run = engine.Execute(variant.spec, prep);
    const double wall_ms = MsBetween(start, Clock::now());
    tracer.End(span);
    if (!run.ok()) {
      ctx.Failure(variant.label + ": " + run.status().ToString());
      return;
    }
    ctx.AddLatency(traced, variant.label, wall_ms);
    ctx.CheckDigest(variant.label, "retained", run->retained_digest);
    loop->candidates += run->num_candidates;
    effectiveness->Record(variant.label, run->metrics.recall,
                          run->metrics.precision);
    // Batch reports its one-off materialisation as generate_seconds on
    // every run; only streaming regenerates pairs inside the call.
    const double in_call_generate =
        run->backend == "streaming" ? run->generate_seconds : 0.0;
    const double phases_ms =
        (in_call_generate + run->feature_seconds + run->train_seconds +
         run->classify_seconds + run->prune_seconds) *
        1e3;
    loop->overhead_ms.push_back(wall_ms - phases_ms);
    tracer.Value("stream.regen", op, in_call_generate * 1e3);
    tracer.Value("core.features", op, run->feature_seconds * 1e3);
    tracer.Value("ml.train", op, run->train_seconds * 1e3);
    tracer.Value("ml.classify", op, run->classify_seconds * 1e3);
    tracer.Value("core.prune", op, run->prune_seconds * 1e3);
    tracer.Value("ml.training_size", op,
                 static_cast<double>(run->training_size));
    tracer.Value("stream.shards", op, static_cast<double>(run->shards_used));
    tracer.Value("stream.sweeps", op, static_cast<double>(run->sweeps));
    tracer.Value("core.retained_ratio", op,
                 static_cast<double>(run->retained_count) /
                     static_cast<double>(std::max<uint64_t>(
                         1, run->num_candidates)));
    tracer.Value("core.match_ratio", op,
                 static_cast<double>(run->metrics.true_positives) /
                     static_cast<double>(std::max<uint64_t>(
                         1, run->retained_count)));
  });
}

size_t SampleCount(const std::map<std::string, std::vector<double>>& by_label) {
  size_t count = 0;
  for (const auto& [label, samples] : by_label) count += samples.size();
  return count;
}

/// The q-quantile of operation latency: the median over the measurement
/// windows of each window's q-quantile. A slow patch of machine time
/// skews the windows it falls in, not the run's figure.
double WindowedQuantile(const std::vector<std::vector<double>>& windows,
                        double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) per_window.push_back(Quantile(window, q));
  }
  return Median(per_window);
}

void ReportLatency(Ctx& ctx) {
  for (const auto& [label, samples] : ctx.latency_ms) {
    std::printf("op %s median %s ms n %zu\n", label.c_str(),
                FormatDouble(Median(samples)).c_str(), samples.size());
  }
  Report& report = ctx.result.report;
  report.Set("setup_s", Median(ctx.setup_seconds), "s");
  report.Set("op_p50_ms", WindowedQuantile(ctx.windows, 0.5), "ms");
  report.Set("op_p90_ms", WindowedQuantile(ctx.windows, 0.9), "ms");
  report.Set("op_samples", static_cast<double>(SampleCount(ctx.latency_ms)),
             "count");
  report.Set("op_windows", static_cast<double>(ctx.windows.size()), "count");
  if (ctx.options.trace) {
    report.Set("trace.overhead_ms",
               WindowedQuantile(ctx.traced_windows, 0.5) -
                   WindowedQuantile(ctx.windows, 0.5),
               "ms");
  }
}

void ReportThroughput(Ctx& ctx, double loop_seconds, const ExecuteLoop& loop) {
  Report& report = ctx.result.report;
  report.Set("ops_per_s",
             static_cast<double>(SampleCount(ctx.latency_ms)) / loop_seconds,
             "1/s");
  report.Set("candidates_per_s",
             static_cast<double>(loop.candidates) / loop_seconds, "1/s");
  report.Set("api.overhead_ms", Median(loop.overhead_ms), "ms");
  report.Set("candidates",
             static_cast<double>(loop.candidates) /
                 static_cast<double>(std::max<size_t>(
                     1, SampleCount(ctx.latency_ms))),
             "count");
}

std::vector<Variant> PruningVariants(const JobSpec& base,
                                     const std::vector<FeatureSet>& sets) {
  std::vector<Variant> variants;
  for (const FeatureSet& features : sets) {
    for (PruningKind kind : gsmb::AllPruningKinds()) {
      Variant variant;
      variant.spec = base;
      variant.spec.features = features;
      variant.spec.pruning.kind = kind;
      variant.label = gsmb::FeatureSetSpecName(features) + "/" +
                      gsmb::PruningShortName(kind);
      variants.push_back(std::move(variant));
    }
  }
  return variants;
}

/// Per-layer metrics from the traced run's spans and values: a metric
/// `<layer>_ms` is the per-operation total of spans named `<layer>`, any
/// other metric the per-operation value of that name; either is reported
/// as the median over the operations that have it.
void ReportLayers(const Tracer& tracer, Report& report) {
  for (const MetricName& metric : kPerLayer) {
    if (report.Has(metric.name)) continue;
    std::string key = metric.name;
    if (key.size() > 3 && key.compare(key.size() - 3, 3, "_ms") == 0) {
      key.resize(key.size() - 3);
    }
    const std::vector<double> per_op = tracer.PerOp(key);
    if (!per_op.empty()) report.Set(metric.name, Median(per_op), metric.unit);
  }
}

/// Completes a run: per-layer metrics and the span file of a traced run.
RunResult Finish(Ctx& ctx) {
  if (ctx.options.trace) {
    ReportLayers(ctx.tracer, ctx.result.report);
    if (!ctx.options.trace_out.empty() &&
        !ctx.tracer.WriteChromeTrace(ctx.options.trace_out)) {
      ctx.Failure("cannot write " + ctx.options.trace_out);
    }
  }
  return std::move(ctx.result);
}

// ---------------------------------------------------------------------------
// sweep-clean: the paper's sweep on the batch backend.

RunResult SweepClean(const RunOptions& options) {
  Ctx ctx(options);
  gsmb::CleanCleanSpec data_spec =
      gsmb::CleanCleanSpecByName("DblpAcm", options.tiny ? 0.1 : 2.0);
  data_spec.seed = MixSeed(data_spec.seed, options.seed);
  const Engine engine(ColdEngineOptions());

  JobSpec base;
  PreparedHandle prepared;
  SetUp(ctx, [&](int64_t op) {
    base = WriteCleanClean(ctx, data_spec, op);
    base.execution.mode = ExecutionMode::kBatch;
    prepared = Unwrap(engine.Prepare(base), "prepare");
    ScopedSpan span(ctx.tracer, "blocking.pairs", op);
    prepared->Batch(ctx.threads);
  });
  ctx.CheckSetupDigest("prepared", "prepared", prepared->prepared_digest);

  const std::vector<Variant> variants = PruningVariants(
      base, {FeatureSet::BlastOptimal(), FeatureSet::RcnpOptimal()});
  ExecuteLoop loop;
  Effectiveness effectiveness;
  const double loop_seconds = ClosedLoop(ctx, false, ctx.LoopSeconds(), [&] {
    for (const Variant& variant : variants) {
      ExecuteOp(ctx, engine, *prepared, variant, false, &loop, &effectiveness);
    }
  });
  const double peak_rss_mb = PeakRssMb();

  if (options.trace) {
    // Layer by layer: the preparation must reproduce the Engine's digest,
    // and each variant its retained digest (same labels as the Engine ops).
    const int64_t prep_op = -(kSetupReps + 1);
    const LayerPrepared layer = PrepareByLayer(ctx, ctx.tracer, base, prep_op,
                                               /*parent=*/-1);
    ctx.CheckSetupDigest("prepared", "prepared", layer.digest);
    const LayerBatch batch = MaterializeByLayer(ctx, layer, prep_op);
    ClosedLoop(ctx, true, ctx.LoopSeconds(), [&] {
      for (const Variant& variant : variants) {
        const int64_t op = ctx.next_op++;
        ctx.Attempt(variant.label, [&] {
          const auto start = Clock::now();
          uint64_t digest = 0;
          {
            ScopedSpan span(ctx.tracer, "op", op);
            digest = ExecuteByLayer(ctx, variant.spec, layer, batch, op,
                                    span.id());
          }
          ctx.AddLatency(true, variant.label, MsBetween(start, Clock::now()));
          ctx.CheckDigest(variant.label, "retained", digest);
        });
      }
    });
  } else {
    // Independent path: the streaming backend must retain the same pairs.
    for (const Variant& variant : variants) {
      JobSpec streaming = variant.spec;
      streaming.execution.mode = ExecutionMode::kStreaming;
      const JobResult run =
          Unwrap(engine.Execute(streaming, *prepared), variant.label);
      ctx.result.failed +=
          ctx.result.digests.Verify(variant.label, run.retained_digest);
    }
  }

  ReportLatency(ctx);
  ReportThroughput(ctx, loop_seconds, loop);
  effectiveness.ReportTo(ctx.result.report);
  ctx.result.report.Set("peak_rss_mb", peak_rss_mb, "MB");
  return Finish(ctx);
}

// ---------------------------------------------------------------------------
// stream-dirty: Dirty ER on the streaming backend with a bounded arena.

RunResult StreamDirty(const RunOptions& options) {
  Ctx ctx(options);
  gsmb::DirtySpec data_spec =
      gsmb::PaperDirtySpecs(options.tiny ? 0.1 : 1.2).front();  // D10K
  data_spec.seed = MixSeed(data_spec.seed, options.seed);
  const Engine engine(ColdEngineOptions());

  JobSpec base;
  PreparedHandle prepared;
  SetUp(ctx, [&](int64_t op) {
    gsmb::GeneratedDirty data;
    {
      ScopedSpan span(ctx.tracer, "datasets.generate", op);
      data = gsmb::DirtyGenerator().Generate(data_spec);
    }
    {
      ScopedSpan span(ctx.tracer, "datasets.write", op);
      base = CsvSpec(ctx, ctx.DataPath("profiles.csv"), "",
                     ctx.DataPath("matches.csv"));
      gsmb::SaveCollectionCsv(data.entities, base.dataset.e1);
      gsmb::SaveGroundTruthCsv(data.ground_truth, data.entities,
                               data.entities, base.dataset.ground_truth);
    }
    base.training.labels_per_class = 250;
    base.execution.mode = ExecutionMode::kStreaming;
    // At least 8 shards; the arena budget raises that further at full
    // scale, so the run is shaped by the bounded arena, not the count.
    base.execution.shards = 8;
    base.execution.memory_budget_mb = options.tiny ? 1 : 12;
    prepared = Unwrap(engine.Prepare(base), "prepare");
  });
  ctx.CheckSetupDigest("prepared", "prepared", prepared->prepared_digest);

  const std::vector<Variant> variants =
      PruningVariants(base, {FeatureSet::BlastOptimal()});
  ExecuteLoop loop;
  Effectiveness effectiveness;
  const double loop_seconds = ClosedLoop(ctx, false, ctx.LoopSeconds(), [&] {
    for (const Variant& variant : variants) {
      ExecuteOp(ctx, engine, *prepared, variant, false, &loop, &effectiveness);
    }
  });
  if (options.trace) {
    ExecuteLoop traced_loop;
    ClosedLoop(ctx, true, ctx.LoopSeconds(), [&] {
      for (const Variant& variant : variants) {
        ExecuteOp(ctx, engine, *prepared, variant, true, &traced_loop,
                  &effectiveness);
      }
    });
  }
  // Read before the batch cross-check below materialises O(|C|) arrays.
  const double peak_rss_mb = PeakRssMb();

  // Independent path: the batch backend must retain the same pairs.
  for (const Variant& variant : variants) {
    JobSpec batch = variant.spec;
    batch.execution.mode = ExecutionMode::kBatch;
    const JobResult run = Unwrap(engine.Execute(batch, *prepared),
                                 variant.label);
    ctx.result.failed +=
        ctx.result.digests.Verify(variant.label, run.retained_digest);
  }

  ReportLatency(ctx);
  ReportThroughput(ctx, loop_seconds, loop);
  effectiveness.ReportTo(ctx.result.report);
  ctx.result.report.Set("peak_rss_mb", peak_rss_mb, "MB");
  return Finish(ctx);
}

// ---------------------------------------------------------------------------
// prepare-schemes: cold preparations across every blocking scheme.

RunResult PrepareSchemes(const RunOptions& options) {
  Ctx ctx(options);
  gsmb::CleanCleanSpec data_spec =
      gsmb::CleanCleanSpecByName("AbtBuy", options.tiny ? 0.2 : 1.0);
  data_spec.seed = MixSeed(data_spec.seed, options.seed);
  const Engine engine(ColdEngineOptions());

  JobSpec base;
  SetUp(ctx, [&](int64_t op) { base = WriteCleanClean(ctx, data_spec, op); });

  std::vector<Variant> variants;
  for (const std::string& scheme : gsmb::schemes::BlockerNames()) {
    Variant variant;
    variant.label = scheme;
    variant.spec = base;
    variant.spec.blocking.scheme = scheme;
    variants.push_back(std::move(variant));
  }

  Effectiveness effectiveness;
  const auto prepare_op = [&](const Variant& variant) {
    ctx.Attempt(variant.label, [&] {
      const auto start = Clock::now();
      const PreparedHandle prepared =
          Unwrap(engine.Prepare(variant.spec), variant.label);
      ctx.AddLatency(false, variant.label, MsBetween(start, Clock::now()));
      ctx.CheckDigest(variant.label, "prepared", prepared->prepared_digest);
      ctx.CheckDigest("dataset", "fingerprint", prepared->dataset_fingerprint);
      effectiveness.Record(variant.label,
                           prepared->stream.blocking_quality.recall,
                           prepared->stream.blocking_quality.precision);
    });
  };
  const double loop_seconds = ClosedLoop(ctx, false, ctx.LoopSeconds(), [&] {
    for (const Variant& variant : variants) prepare_op(variant);
  });
  const double peak_rss_mb = PeakRssMb();

  const auto by_layer = [&](const Variant& variant, Tracer& tracer) {
    const int64_t op = ctx.next_op++;
    const auto start = Clock::now();
    LayerPrepared layer;
    {
      ScopedSpan span(tracer, "op", op);
      layer = PrepareByLayer(ctx, tracer, variant.spec, op, span.id());
    }
    ctx.CheckDigest("dataset", "fingerprint", layer.fingerprint);
    return std::make_pair(layer.digest, MsBetween(start, Clock::now()));
  };
  if (options.trace) {
    ClosedLoop(ctx, true, ctx.LoopSeconds(), [&] {
      for (const Variant& variant : variants) {
        ctx.Attempt(variant.label, [&] {
          const auto [digest, ms] = by_layer(variant, ctx.tracer);
          ctx.AddLatency(true, variant.label, ms);
          ctx.CheckDigest(variant.label, "prepared", digest);
        });
      }
    });
  } else {
    // Independent path: the layer-by-layer preparation, untraced.
    for (const Variant& variant : variants) {
      ctx.result.failed += ctx.result.digests.Verify(
          variant.label, by_layer(variant, ctx.off).first);
    }
  }

  ReportLatency(ctx);
  ctx.result.report.Set(
      "ops_per_s",
      static_cast<double>(SampleCount(ctx.latency_ms)) / loop_seconds, "1/s");
  effectiveness.ReportTo(ctx.result.report);
  ctx.result.report.Set("peak_rss_mb", peak_rss_mb, "MB");
  return Finish(ctx);
}

// ---------------------------------------------------------------------------
// serve-mixed: an open loop of queries with a write trickle beside it.

struct ServeShape {
  size_t shards;
  double query_rate;       ///< queries per second, fixed schedule
  size_t queries_per_write;
  size_t profiles_per_write;
};

uint64_t SessionDigest(const MetaBlockingSession& session) {
  const EntityCollection& profiles = session.profiles();
  gsmb::obs::PairSetDigest digest;
  for (const CandidatePair& pair : session.RetainedPairs()) {
    digest.AddPair(profiles[pair.left].external_id(),
                   profiles[pair.right].external_id());
  }
  return digest.Value();
}

RunResult ServeMixed(const RunOptions& options) {
  Ctx ctx(options);
  const ServeShape shape = options.tiny ? ServeShape{16, 200.0, 20, 1}
                                        : ServeShape{16, 200.0, 80, 1};
  gsmb::DirtySpec data_spec =
      gsmb::PaperDirtySpecs(options.tiny ? 0.1 : 0.5).front();  // D10K
  data_spec.seed = MixSeed(data_spec.seed, options.seed);
  const Engine engine(ColdEngineOptions());

  // The last 10% of the profiles are held back for the write trickle.
  gsmb::GeneratedDirty data;
  size_t resident = 0;
  std::optional<MetaBlockingSession> session;
  SetUp(ctx, [&](int64_t op) {
    {
      ScopedSpan span(ctx.tracer, "datasets.generate", op);
      data = gsmb::DirtyGenerator().Generate(data_spec);
    }
    resident = data.entities.size() - data.entities.size() / 10;
    JobSpec spec = CsvSpec(ctx, ctx.DataPath("resident.csv"), "",
                           ctx.DataPath("matches.csv"));
    {
      ScopedSpan span(ctx.tracer, "datasets.write", op);
      EntityCollection profiles;
      for (size_t id = 0; id < resident; ++id) {
        profiles.Add(data.entities[static_cast<gsmb::EntityId>(id)]);
      }
      GroundTruth matches(/*dirty=*/true);
      for (const gsmb::MatchPair& pair : data.ground_truth.pairs()) {
        if (pair.left < resident && pair.right < resident) {
          matches.AddMatch(pair.left, pair.right);
        }
      }
      gsmb::SaveCollectionCsv(profiles, spec.dataset.e1);
      gsmb::SaveGroundTruthCsv(matches, profiles, profiles,
                               spec.dataset.ground_truth);
    }
    spec.execution.mode = ExecutionMode::kServing;
    spec.execution.shards = shape.shards;
    spec.execution.serving_max_block_size = 100;
    spec.training.labels_per_class = 250;
    spec.blocking.filter_ratio = 1.0;  // serving applies no Block Filtering
    session.reset();
    session.emplace(Unwrap(engine.OpenSession(spec), "open session"));
  });
  ctx.CheckSetupDigest("cold-refresh", "retained", SessionDigest(*session));

  size_t next_profile = resident;
  size_t query_index = 0;
  std::vector<double> refresh_ms;
  // Lateness of the generator itself: the wait of queries that were not
  // queued behind a refresh.
  std::vector<double> generator_late_ms;
  const std::vector<EntityProfile>& all = data.entities.profiles();

  const auto open_loop = [&](double seconds, bool traced) {
    Tracer& tracer = traced ? ctx.tracer : ctx.off;
    const auto total = static_cast<size_t>(seconds * shape.query_rate);
    const auto per_window = std::max<size_t>(
        1, static_cast<size_t>(kServeWindowSeconds * shape.query_rate));
    const auto t0 = Clock::now();
    bool behind_refresh = false;
    for (size_t i = 0; i < total; ++i) {
      if (i % per_window == 0) ctx.NewWindow(traced);
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) /
                                                 shape.query_rate));
      if (Clock::now() < due) {
        std::this_thread::sleep_until(due);
        behind_refresh = false;
      }
      const int64_t op = ctx.next_op++;
      // Resident probes, scored as the residents they are.
      const auto probe =
          static_cast<gsmb::EntityId>((query_index++ * 7919) % resident);
      ctx.Attempt("query", [&] {
        const auto start = Clock::now();
        {
          ScopedSpan span(tracer, "serve.query", op);
          session->QueryCandidates(all[probe], 10, probe);
        }
        const auto end = Clock::now();
        ctx.AddLatency(traced, "query", MsBetween(due, end));
        tracer.Value("serve.query_wait", op, MsBetween(due, start));
        if (!behind_refresh && !traced) {
          generator_late_ms.push_back(MsBetween(due, start));
        }
      });
      if ((i + 1) % shape.queries_per_write != 0 ||
          next_profile + shape.profiles_per_write > all.size()) {
        continue;
      }
      const int64_t write_op = ctx.next_op++;
      ctx.Attempt("write", [&] {
        const std::vector<EntityProfile> batch(
            all.begin() + static_cast<std::ptrdiff_t>(next_profile),
            all.begin() + static_cast<std::ptrdiff_t>(
                              next_profile + shape.profiles_per_write));
        next_profile += shape.profiles_per_write;
        {
          ScopedSpan span(tracer, "serve.ingest", write_op);
          session->AddProfiles(batch);
        }
        tracer.Value("serve.dirty_shards", write_op,
                     static_cast<double>(session->DirtyShardCount()));
        const gsmb::obs::PhaseTimings before = session->AccumulatedPhases();
        const auto start = Clock::now();
        {
          ScopedSpan span(tracer, "serve.refresh", write_op);
          session->Refresh();
        }
        if (!traced) refresh_ms.push_back(MsBetween(start, Clock::now()));
        const gsmb::obs::PhaseTimings after = session->AccumulatedPhases();
        const auto delta_ms = [&](gsmb::obs::Phase phase) {
          return (after.Get(phase) - before.Get(phase)) * 1e3;
        };
        tracer.Value("serve.refresh.pairs", write_op,
                     delta_ms(gsmb::obs::Phase::kPairs));
        tracer.Value("serve.refresh.features", write_op,
                     delta_ms(gsmb::obs::Phase::kFeatures));
        tracer.Value("serve.refresh.classify", write_op,
                     delta_ms(gsmb::obs::Phase::kClassify));
        tracer.Value("serve.refresh.prune", write_op,
                     delta_ms(gsmb::obs::Phase::kPrune));
      });
      behind_refresh = true;
    }
  };
  open_loop(ctx.LoopSeconds(), false);
  if (options.trace) open_loop(ctx.LoopSeconds(), true);
  const double peak_rss_mb = PeakRssMb();

  // Effectiveness of the final retained set over the ingested profiles.
  const size_t ingested = session->profiles().size();
  for (size_t id = 0; id < ingested; ++id) {
    if (session->profiles()[static_cast<gsmb::EntityId>(id)].external_id() !=
        all[id].external_id()) {
      ctx.Failure("session profile order differs from ingest order");
      break;
    }
  }
  size_t ground_truth = 0;
  for (const gsmb::MatchPair& pair : data.ground_truth.pairs()) {
    if (pair.left < ingested && pair.right < ingested) ++ground_truth;
  }
  const std::vector<CandidatePair> retained = session->RetainedPairs();
  size_t true_positives = 0;
  for (const CandidatePair& pair : retained) {
    if (data.ground_truth.IsMatch(pair.left, pair.right)) ++true_positives;
  }

  // Independent path: a cold session over the same profiles must retain
  // the same pairs and answer probes identically.
  MetaBlockingSession cold(session->options(), session->model());
  cold.AddProfiles(session->profiles().profiles());
  cold.Refresh();
  if (SessionDigest(cold) != SessionDigest(*session)) {
    ctx.Failure("incremental retained set differs from a cold rebuild");
  }
  for (size_t k = 0; k < 32; ++k) {
    const auto probe = static_cast<gsmb::EntityId>((k * 104729) % ingested);
    const auto live = session->QueryCandidates(all[probe], 10, probe);
    const auto rebuilt = cold.QueryCandidates(all[probe], 10, probe);
    const bool same = std::equal(
        live.begin(), live.end(), rebuilt.begin(), rebuilt.end(),
        [](const gsmb::QueryMatch& a, const gsmb::QueryMatch& b) {
          return a.id == b.id && a.probability == b.probability;
        });
    if (!same) {
      ctx.Failure("query " + std::to_string(probe) +
                  " differs from a cold rebuild");
      break;
    }
  }

  ReportLatency(ctx);
  Report& report = ctx.result.report;
  report.Set("op_p99_ms", Quantile(ctx.latency_ms["query"], 0.99), "ms");
  report.Set("refresh_p50_ms", Median(refresh_ms), "ms");
  report.Set("refresh_samples", static_cast<double>(refresh_ms.size()),
             "count");
  report.Set("serve.generator_late_p99_ms", Quantile(generator_late_ms, 0.99),
             "ms");
  report.Set("serve.generator_late_max_ms",
             Quantile(generator_late_ms, 1.0), "ms");
  report.Set("recall",
             static_cast<double>(true_positives) /
                 static_cast<double>(std::max<size_t>(1, ground_truth)),
             "ratio");
  report.Set("precision",
             static_cast<double>(true_positives) /
                 static_cast<double>(std::max<size_t>(1, retained.size())),
             "ratio");
  report.Set("peak_rss_mb", peak_rss_mb, "MB");
  return Finish(ctx);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "sweep-clean", "stream-dirty", "prepare-schemes", "serve-mixed"};
  return names;
}

const std::vector<MetricName>& EndToEndMetrics() { return kEndToEnd; }
const std::vector<MetricName>& PerLayerMetrics() { return kPerLayer; }

RunResult RunWorkload(const RunOptions& options, bool* known) {
  *known = true;
  if (options.workload == "sweep-clean") return SweepClean(options);
  if (options.workload == "stream-dirty") return StreamDirty(options);
  if (options.workload == "prepare-schemes") return PrepareSchemes(options);
  if (options.workload == "serve-mixed") return ServeMixed(options);
  *known = false;
  return RunResult();
}

}  // namespace perfbench
