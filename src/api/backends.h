// Internal plumbing shared by the Engine's standard backends.
//
// Each backend's one entry point is ExecutePrepared(spec, prepared): the
// Engine loads + blocks + counts ONCE per distinct dataset+blocking pair
// (gsmb/prepared.h, served from the prepare cache) and every backend
// executes its per-configuration stages against that shared, immutable
// handle — which is what keeps cross-backend equivalence testable at the
// API boundary: every backend's implied candidate set derives from the SAME
// preparation.

#ifndef GSMB_API_BACKENDS_H_
#define GSMB_API_BACKENDS_H_

#include <fstream>
#include <memory>
#include <string>

#include "blocking/block_collection.h"
#include "core/pipeline.h"
#include "er/entity_collection.h"
#include "er/ground_truth.h"
#include "gsmb/engine.h"
#include "gsmb/job_spec.h"
#include "gsmb/prepared.h"
#include "gsmb/status.h"
#include "stream/streaming_dataset.h"
#include "stream/streaming_executor.h"

namespace gsmb::api {

/// Loads CSV files or generates the named synthetic dataset. Missing paths
/// and empty parses are NotFound/InvalidArgument with the offending path.
Result<JobInputs> LoadJobInputs(const JobSpec& spec);

/// Builds the spec's blocking scheme over the inputs and applies Block
/// Purging + Block Filtering with the spec's parameters — the exact
/// preprocessing every backend's implied candidate set derives from.
BlockCollection BuildPreprocessedBlocks(const JobSpec& spec,
                                        const JobInputs& inputs);

/// The full preparation stage: load inputs, build + preprocess blocks, run
/// the counting preparation. Everything Engine::Prepare caches.
Result<PreparedHandle> BuildPreparedInputs(const JobSpec& spec);

/// spec.execution.options with threads == 0 resolved to the hardware count.
ExecutionOptions ResolvedExecution(const JobSpec& spec);
BlockingOptions BlockingOptionsFromSpec(const JobSpec& spec);
MetaBlockingConfig ConfigFromSpec(const JobSpec& spec);

/// Arena-bytes model shared with StreamingExecutor::PlanShards: per
/// candidate, the pair + feature row + probability + aggregation slack.
uint64_t EstimateCandidateBytes(uint64_t num_candidates, size_t feature_dims);

// -- Retained-pair CSV ------------------------------------------------------
// One writer for every backend, so backends that retain the same pairs in
// the same order produce byte-identical files.

Result<std::ofstream> OpenRetainedCsv(const std::string& path);
void AppendRetainedCsvRow(std::ofstream& out, const std::string& left_id,
                          const std::string& right_id);
Status FinishRetainedCsv(std::ofstream& out, const std::string& path);

/// The one place JobResult timing fields are written. Every backend runs
/// its pipeline against an obs::PhaseTimings (the telemetry clock) and
/// finishes through here: `prepare_seconds` is the prepared handle's
/// one-off cost (plus any in-run re-blocking the backend put in
/// Phase::kBlocking), the phase array fills the `*_seconds` breakdown,
/// and the per-run metric snapshot (result->telemetry) is derived from
/// the result's own counters — so every backend reports the same
/// canonical phase set from the same clock.
void ApplyPhaseTimings(const obs::PhaseTimings& phases,
                       double prepare_seconds, JobResult* result);

// -- Backend pipelines ------------------------------------------------------
// The ExecutePrepared() bodies: per-configuration execution against a
// shared preparation. Batch and streaming are one pipeline, the executor
// (stream/streaming_executor.h): batch runs it at one shard over the
// handle's lazily materialised O(|C|) pair list, streaming at the spec's
// shards straight off the counting preparation. The serving path trains
// its resident model on the counting preparation too, from the sampled
// pairs alone (the session still tokenizes its own ingests).

/// Runs the spec on the executor at `options`' shards, reading `batch`'s
/// pairs when given, and fills the JobResult of the named backend: metrics,
/// provenance digests, the retained CSV/pairs the spec asks for, and the
/// phase timings — to which `batch`'s one-off materialisation adds as
/// pair generation.
Result<JobResult> RunExecutorOn(const JobSpec& spec,
                                const PreparedInputs& prepared,
                                const std::string& backend,
                                const StreamingOptions& options,
                                const PreparedInputs::BatchArrays* batch);
Result<JobResult> RunServingOn(const JobSpec& spec,
                               const PreparedInputs& prepared);

std::unique_ptr<Executor> MakeBatchBackend();
std::unique_ptr<Executor> MakeStreamingBackend();
std::unique_ptr<Executor> MakeServingBackend();

/// The serving backend's session construction, shared with
/// Engine::OpenSession: trains the resident model on `prepared` (a
/// preparation of the SAME spec) with the batch and streaming paths'
/// trainer, then ingests prepared.inputs and refreshes every shard.
/// Training reads the counting preparation and the sampled pairs only,
/// never the batch arrays. `cold_build_universe` pins the CNP entity
/// universe to the profile count (one-shot Run; batch parity); OpenSession
/// leaves it unset for the incremental present-entity semantics.
/// `training_size` (optional) receives the balanced training sample's
/// actual size; `phases` (optional) receives the cold build's phase
/// breakdown: kTrain for sample + rows + fit plus the session's
/// accumulated refresh phases.
Result<MetaBlockingSession> BuildServingSession(
    const JobSpec& spec, const PreparedInputs& prepared,
    bool cold_build_universe, size_t* training_size = nullptr,
    obs::PhaseTimings* phases = nullptr);

}  // namespace gsmb::api

#endif  // GSMB_API_BACKENDS_H_
