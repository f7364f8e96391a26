// The serving backend: a cold-built MetaBlockingSession behind the Executor
// interface. One-shot Run() trains the spec's classifier on the shared
// prepared handle's counting preparation (the streaming executor's
// trainer: the balanced sample, its pairs regenerated, their rows, the
// fit), folds it into the raw-space serving model, ingests the
// collection, refreshes every shard and reports the session's retained
// set.
//
// Supports() narrows the spec to what a shard-pure session can honour:
// Dirty ER (a session holds ONE resident collection), token blocking (the
// session tokenizes ingests itself), no Block Filtering (a cross-shard
// per-entity top-k) and a linear classifier (the resident model must be
// serialisable raw-space weights). Within that envelope a single-shard cold
// build retains the same pairs as batch/streaming — the cross-backend
// equivalence tests/api_engine_test.cc pins down; with more shards the
// documented per-shard union semantics of serve/session.h applies.

#include <algorithm>
#include <cmath>
#include <utility>

#include "api/backends.h"
#include "gsmb/digest.h"
#include "gsmb/log.h"
#include "gsmb/telemetry.h"
#include "serve/serving_model.h"

namespace gsmb::api {

namespace {

class ServingBackend : public Executor {
 public:
  std::string name() const override { return "serving"; }

  Status Supports(const JobSpec& spec) const override {
    if (!spec.dataset.dirty()) {
      return Status::FailedPrecondition(
          "the serving backend requires a single-collection (Dirty ER) "
          "dataset: a session holds one resident collection (drop "
          "dataset.e2 or use a generated-dirty source)");
    }
    if (spec.blocking.scheme != kSchemeToken) {
      return Status::FailedPrecondition(
          "the serving backend blocks by tokens (a session tokenizes every "
          "ingest itself); set blocking.scheme to token");
    }
    if (spec.blocking.filter_ratio < 1.0) {
      return Status::FailedPrecondition(
          "the serving backend cannot apply Block Filtering (a cross-shard "
          "per-entity top-k would make shard caches interdependent); set "
          "blocking.filter_ratio to 1");
    }
    if (spec.classifier == ClassifierKind::kGaussianNaiveBayes) {
      return Status::FailedPrecondition(
          "the serving backend needs a classifier with a raw-space linear "
          "form for its resident model; use logreg or svc");
    }
    return Status::Ok();
  }

  // The staged path: model training reads the handle's counting
  // preparation (TrainServingModelFromPrepared), so a cold build neither
  // re-blocks nor materialises the candidate set, and a cached handle lets
  // repeat cold builds skip preparation entirely. The session still
  // tokenizes its own ingests; only the bootstrap training reuses the
  // preparation.
  bool AcceptsPrepared() const override { return true; }

  Result<JobResult> ExecutePrepared(
      const JobSpec& spec, const PreparedInputs& prepared) const override {
    return RunServingOn(spec, prepared);
  }

  // Legacy path (direct Execute callers): a private preparation, same code.
  Result<JobResult> Execute(const JobSpec& spec) const override {
    Result<PreparedHandle> prepared = BuildPreparedInputs(spec);
    if (!prepared.ok()) return prepared.status();
    return RunServingOn(spec, **prepared);
  }
};

}  // namespace

Result<JobResult> RunServingOn(const JobSpec& spec,
                               const PreparedInputs& prepared) {
  const JobInputs& inputs = prepared.inputs;
  size_t training_size = 0;
  obs::PhaseTimings phases;
  Result<MetaBlockingSession> session =
      BuildServingSession(spec, prepared, /*cold_build_universe=*/true,
                          &training_size, &phases);
  if (!session.ok()) return session.status();

  JobResult result;
  result.backend = "serving";
  result.training_size = training_size;

  const std::vector<CandidatePair> retained = session->RetainedPairs();
  size_t true_positives = 0;
  for (const CandidatePair& pair : retained) {
    if (inputs.ground_truth.IsMatch(pair.left, pair.right)) {
      ++true_positives;
    }
  }
  result.metrics = MetricsFromCounts(true_positives, retained.size(),
                                     inputs.ground_truth.size());

  const SessionStats stats = session->Stats();
  obs::CounterAdd("pairs.generated", stats.num_candidates);
  obs::CounterAdd("pairs.retained", retained.size());
  result.num_blocks = stats.num_blocks;
  result.num_candidates = stats.num_candidates;
  result.shards_used = stats.num_shards;
  result.model_coefficients = session->model().weights;
  result.model_coefficients.push_back(session->model().intercept);
  // The handle's one-off preparation cost is the prepare phase; the
  // session's own refresh re-block lands in kBlocking as before.
  ApplyPhaseTimings(phases, prepared.prepare_seconds, &result);

  // Provenance: the cold build trains from the prepared handle, so it
  // carries the handle's fingerprint and digest exactly like batch and
  // streaming: report diff compares all three backends on equal terms.
  result.dataset_fingerprint = prepared.dataset_fingerprint;
  result.prepared_digest = prepared.prepared_digest;
  obs::PairSetDigest digest;
  for (const CandidatePair& pair : retained) {
    digest.AddPair(inputs.ExternalLeftId(pair.left),
                   inputs.ExternalRightId(pair.right));
  }
  result.retained_digest = digest.Value();
  result.retained_count = digest.count;
  GSMB_LOG_INFO("run.done", {"backend", "serving"},
                {"retained", digest.count},
                {"shards", stats.num_shards},
                {"retained_digest", obs::DigestHex(result.retained_digest)});

  // Session pairs are sorted ascending (left, right) — the same order the
  // batch indices and the streaming sink produce.
  if (!spec.output.retained_csv.empty()) {
    Result<std::ofstream> csv = OpenRetainedCsv(spec.output.retained_csv);
    if (!csv.ok()) return csv.status();
    for (const CandidatePair& pair : retained) {
      AppendRetainedCsvRow(*csv, inputs.ExternalLeftId(pair.left),
                           inputs.ExternalRightId(pair.right));
    }
    Status finished = FinishRetainedCsv(*csv, spec.output.retained_csv);
    if (!finished.ok()) return finished;
    result.retained_csv_rows = retained.size();
  }
  if (spec.output.keep_retained) {
    result.retained.reserve(retained.size());
    for (const CandidatePair& pair : retained) {
      result.retained.push_back({inputs.ExternalLeftId(pair.left),
                                 inputs.ExternalRightId(pair.right)});
    }
  }
  return result;
}

Result<MetaBlockingSession> BuildServingSession(const JobSpec& spec,
                                                const PreparedInputs& prepared,
                                                bool cold_build_universe,
                                                size_t* training_size,
                                                obs::PhaseTimings* phases) {
  // Train exactly like the batch backend trains: the same trainer over the
  // same preparation, sample seed and classifier, on the sampled pairs
  // alone. The serving model folds the standardisation into raw-space
  // weights, the one representation a snapshot can carry.
  const JobInputs& inputs = prepared.inputs;
  ServingModelTraining training;
  training.classifier = spec.classifier;
  training.train_per_class = spec.training.labels_per_class;
  training.seed = spec.training.seed;
  training.execution = ResolvedExecution(spec);
  obs::PhaseTimings build_phases;
  ServingModel model =
      TrainServingModelFromPrepared(prepared.stream, spec.features, training,
                                    training_size, &build_phases);

  SessionOptions options;
  options.num_shards = spec.execution.shards;
  options.execution = ResolvedExecution(spec);
  options.min_token_length = spec.blocking.min_token_length;
  options.pruning = spec.pruning.kind;
  options.blast_ratio = spec.pruning.blast_ratio;
  options.validity_threshold = spec.pruning.validity_threshold;
  if (spec.execution.serving_max_block_size > 0) {
    options.max_block_size = spec.execution.serving_max_block_size;
  } else if (spec.blocking.purge_size_fraction < 1.0) {
    // Derive the session's absolute purge cap from the batch fraction:
    // batch drops |b| > fraction * |E| (strict), which for integer sizes
    // equals |b| > floor(fraction * |E|).
    options.max_block_size = static_cast<size_t>(std::floor(
        spec.blocking.purge_size_fraction *
        static_cast<double>(inputs.e1.size())));
  }
  if (cold_build_universe) {
    options.cnp_entity_universe = inputs.e1.size();
  }

  MetaBlockingSession session(options, std::move(model));
  session.AddProfiles(inputs.e1.profiles());
  session.Refresh();
  if (phases != nullptr) {
    build_phases.MergeFrom(session.AccumulatedPhases());
    phases->MergeFrom(build_phases);
  }
  return session;
}

std::unique_ptr<Executor> MakeServingBackend() {
  return std::make_unique<ServingBackend>();
}

}  // namespace gsmb::api
