// The batch backend: the in-memory pipeline of core/ behind the Executor
// interface. Supports every spec — it is the reference semantics the other
// backends are equivalent to. Executes against a shared PreparedInputs
// handle, materialising the handle's O(|C|) candidate arrays lazily (at
// most once per handle, however many configurations run against it).

#include <utility>

#include "api/backends.h"
#include "gsmb/digest.h"
#include "gsmb/log.h"

namespace gsmb::api {

namespace {

class BatchBackend : public Executor {
 public:
  std::string name() const override { return "batch"; }

  Status Supports(const JobSpec&) const override { return Status::Ok(); }

  Result<JobResult> ExecutePrepared(
      const JobSpec& spec, const PreparedInputs& prepared) const override {
    return RunBatchOn(spec, prepared);
  }
};

}  // namespace

Result<JobResult> RunBatchOn(const JobSpec& spec,
                             const PreparedInputs& prepared) {
  const JobInputs& inputs = prepared.inputs;
  const PreparedInputs::BatchArrays& batch =
      prepared.Batch(ResolvedExecution(spec).num_threads);

  MetaBlockingConfig config = ConfigFromSpec(spec);
  const bool want_csv = !spec.output.retained_csv.empty();
  // The retained indices always survive the pipeline now: the provenance
  // digest below folds every retained pair, CSV output or not. The cost is
  // one uint32 per retained pair, dwarfed by the materialised batch arrays.
  config.keep_retained = true;

  PreparedRef ref;
  ref.name = &prepared.stream.name;
  ref.index = prepared.stream.index.get();
  ref.stats = &prepared.stream.stats;
  ref.pairs = &batch.pairs;
  ref.positive_indices = &prepared.stream.positive_indices;
  ref.num_ground_truth = prepared.stream.ground_truth.size();

  MetaBlockingResult run = RunMetaBlocking(ref, config);

  JobResult result;
  result.backend = "batch";
  result.metrics = run.metrics;
  result.blocking_quality = prepared.stream.blocking_quality;
  result.num_blocks = prepared.stream.blocks.size();
  result.num_candidates = batch.pairs.size();
  result.training_size = run.training_size;
  result.model_coefficients = run.model_coefficients;
  // Phase breakdown from the pipeline's telemetry clock; the handle's lazy
  // candidate materialisation is this backend's pair-generation cost
  // (one-off per handle, reported by every run against it).
  obs::PhaseTimings phases = run.phases;
  phases.Add(obs::Phase::kPairs, batch.materialize_seconds);
  ApplyPhaseTimings(phases, prepared.prepare_seconds, &result);
  result.shards_used = 1;

  // Provenance: always computed — with or without keep_retained/CSV — so
  // every run carries the semantic-drift signal reports compare on.
  result.dataset_fingerprint = prepared.dataset_fingerprint;
  result.prepared_digest = prepared.prepared_digest;
  obs::PairSetDigest digest;
  for (uint32_t index : run.retained_indices) {
    const CandidatePair& pair = batch.pairs[index];
    digest.AddPair(inputs.ExternalLeftId(pair.left),
                   inputs.ExternalRightId(pair.right));
  }
  result.retained_digest = digest.Value();
  result.retained_count = digest.count;
  GSMB_LOG_INFO("run.done", {"backend", "batch"},
                {"retained", digest.count},
                {"retained_digest", obs::DigestHex(result.retained_digest)});

  // Retained indices are ascending, and the candidate order is ascending
  // (left, right) — the same order the streaming sink and a serving cold
  // build emit, which is what makes the CSVs byte-comparable.
  if (want_csv) {
    Result<std::ofstream> csv = OpenRetainedCsv(spec.output.retained_csv);
    if (!csv.ok()) return csv.status();
    for (uint32_t index : run.retained_indices) {
      const CandidatePair& pair = batch.pairs[index];
      AppendRetainedCsvRow(*csv, inputs.ExternalLeftId(pair.left),
                           inputs.ExternalRightId(pair.right));
    }
    Status finished = FinishRetainedCsv(*csv, spec.output.retained_csv);
    if (!finished.ok()) return finished;
    result.retained_csv_rows = run.retained_indices.size();
  }
  if (spec.output.keep_retained) {
    result.retained.reserve(run.retained_indices.size());
    for (uint32_t index : run.retained_indices) {
      const CandidatePair& pair = batch.pairs[index];
      result.retained.push_back({inputs.ExternalLeftId(pair.left),
                                 inputs.ExternalRightId(pair.right)});
    }
  }
  return result;
}

std::unique_ptr<Executor> MakeBatchBackend() {
  return std::make_unique<BatchBackend>();
}

}  // namespace gsmb::api
