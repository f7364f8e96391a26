// Engine facade: cross-backend equivalence at the API boundary.
//
// The load-bearing assertion of the whole facade: one JobSpec, run through
// the batch, streaming and serving backends, retains the SAME pairs — for
// every one of the paper's 8 pruning algorithms. Batch and streaming are
// bit-identical by construction for ANY spec; a serving cold build joins
// them when the spec is shard-pure-compatible (Dirty ER, token blocking,
// no Block Filtering, linear classifier) and runs single-shard.
//
// Also covered: `auto` mode resolution by the arena-bytes model, backend
// registration, Supports() diagnostics, and OpenSession incremental reuse.

#include "gsmb/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gsmb/job_spec.h"

namespace gsmb {
namespace {

const Engine& SharedEngine() {
  static const Engine* engine = new Engine();
  return *engine;
}

/// A Dirty ER spec every backend supports: generated D10K stand-in at a
/// small scale, no Block Filtering, derived purge cap, single shard.
JobSpec ServingCompatibleSpec(PruningKind pruning) {
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedDirty;
  spec.dataset.name = "D10K";
  spec.dataset.scale = 0.03;
  spec.blocking.filter_ratio = 1.0;     // serving cannot filter
  spec.blocking.purge_size_fraction = 0.5;
  spec.pruning.kind = pruning;
  spec.training.labels_per_class = 15;
  spec.training.seed = 3;
  spec.execution.shards = 1;
  spec.output.keep_retained = true;
  return spec;
}

JobResult MustRun(const JobSpec& spec) {
  Result<JobResult> result = SharedEngine().Run(spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

TEST(EngineEquivalence, AllPruningKindsAcrossAllThreeBackends) {
  for (PruningKind pruning : AllPruningKinds()) {
    JobSpec spec = ServingCompatibleSpec(pruning);

    spec.execution.mode = ExecutionMode::kBatch;
    const JobResult batch = MustRun(spec);
    ASSERT_GT(batch.metrics.retained, 0u)
        << PruningKindName(pruning) << ": empty retained set";
    // Batch is the executor at one shard: every kind fills it once.
    EXPECT_EQ(batch.shards_used, 1u) << PruningKindName(pruning);
    EXPECT_EQ(batch.sweeps, 1u) << PruningKindName(pruning);

    spec.execution.mode = ExecutionMode::kStreaming;
    const JobResult streaming = MustRun(spec);

    spec.execution.mode = ExecutionMode::kServing;
    const JobResult serving = MustRun(spec);

    EXPECT_EQ(batch.retained, streaming.retained)
        << PruningKindName(pruning) << ": batch vs streaming diverge";
    EXPECT_EQ(batch.retained, serving.retained)
        << PruningKindName(pruning) << ": batch vs serving diverge";
    EXPECT_EQ(batch.metrics.retained, serving.metrics.retained);
    EXPECT_EQ(batch.metrics.true_positives, serving.metrics.true_positives);
    // One trainer: every backend fits the same model.
    EXPECT_EQ(batch.model_coefficients, streaming.model_coefficients)
        << PruningKindName(pruning);
    EXPECT_EQ(batch.model_coefficients, serving.model_coefficients)
        << PruningKindName(pruning);
  }
}

TEST(EngineEquivalence, MinTokenLengthThreadsThroughEveryBackend) {
  // Regression: the serving backend's model training must tokenize with
  // the spec's min_token_length, not the default — a divergence here only
  // shows up for non-default values.
  JobSpec spec = ServingCompatibleSpec(PruningKind::kBlast);
  spec.blocking.min_token_length = 3;

  spec.execution.mode = ExecutionMode::kBatch;
  const JobResult batch = MustRun(spec);
  ASSERT_GT(batch.metrics.retained, 0u);

  spec.execution.mode = ExecutionMode::kStreaming;
  const JobResult streaming = MustRun(spec);
  spec.execution.mode = ExecutionMode::kServing;
  const JobResult serving = MustRun(spec);

  EXPECT_EQ(batch.retained, streaming.retained);
  EXPECT_EQ(batch.retained, serving.retained);
}

TEST(EngineEquivalence, StreamingShardCountNeverChangesTheAnswer) {
  JobSpec spec = ServingCompatibleSpec(PruningKind::kBlast);
  spec.execution.mode = ExecutionMode::kBatch;
  const JobResult batch = MustRun(spec);

  spec.execution.mode = ExecutionMode::kStreaming;
  for (size_t shards : {1u, 7u, 64u}) {
    spec.execution.shards = shards;
    const JobResult streaming = MustRun(spec);
    EXPECT_EQ(batch.retained, streaming.retained) << shards << " shards";
  }
}

TEST(EngineEquivalence, ThreadCountNeverChangesTheAnswer) {
  JobSpec spec = ServingCompatibleSpec(PruningKind::kRcnp);
  spec.execution.mode = ExecutionMode::kBatch;
  const JobResult serial = MustRun(spec);
  spec.execution.options.num_threads = 4;
  const JobResult threaded = MustRun(spec);
  EXPECT_EQ(serial.retained, threaded.retained);
}

TEST(EngineEquivalence, CleanCleanBatchVsStreaming) {
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedCleanClean;
  spec.dataset.name = "AbtBuy";
  spec.dataset.scale = 0.1;
  spec.training.labels_per_class = 20;
  spec.output.keep_retained = true;
  spec.execution.mode = ExecutionMode::kBatch;
  const JobResult batch = MustRun(spec);
  ASSERT_GT(batch.metrics.retained, 0u);

  spec.execution.mode = ExecutionMode::kStreaming;
  spec.execution.shards = 5;
  const JobResult streaming = MustRun(spec);
  EXPECT_EQ(batch.retained, streaming.retained);
  EXPECT_EQ(batch.model_coefficients, streaming.model_coefficients);
}

// ---------------------------------------------------------------------------
// auto mode
// ---------------------------------------------------------------------------

TEST(EngineAuto, NoBudgetResolvesToBatch) {
  JobSpec spec = ServingCompatibleSpec(PruningKind::kBlast);
  spec.execution.mode = ExecutionMode::kAuto;
  const JobResult result = MustRun(spec);
  EXPECT_EQ(result.backend, "batch");
}

TEST(EngineAuto, TinyBudgetResolvesToStreamingWithSameAnswer) {
  JobSpec spec = ServingCompatibleSpec(PruningKind::kBlast);
  spec.execution.mode = ExecutionMode::kBatch;
  const JobResult batch = MustRun(spec);

  spec.execution.mode = ExecutionMode::kAuto;
  spec.execution.memory_budget_mb = 1;  // candidates exceed 1 MiB of arena
  const JobResult result = MustRun(spec);
  EXPECT_EQ(result.backend, "streaming");
  EXPECT_GT(result.shards_used, 1u);
  EXPECT_EQ(result.retained, batch.retained);
}

TEST(EngineAuto, LargeBudgetStaysBatch) {
  JobSpec spec = ServingCompatibleSpec(PruningKind::kBlast);
  spec.execution.mode = ExecutionMode::kAuto;
  spec.execution.memory_budget_mb = 4096;
  const JobResult result = MustRun(spec);
  EXPECT_EQ(result.backend, "batch");
}

// ---------------------------------------------------------------------------
// Registry, diagnostics, error model
// ---------------------------------------------------------------------------

TEST(EngineRegistry, StandardBackendsAreRegistered) {
  const std::vector<std::string> names = SharedEngine().BackendNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "batch");
  EXPECT_EQ(names[1], "streaming");
  EXPECT_EQ(names[2], "serving");
  EXPECT_NE(SharedEngine().FindBackend("serving"), nullptr);
  EXPECT_EQ(SharedEngine().FindBackend("spark"), nullptr);

  JobSpec spec = ServingCompatibleSpec(PruningKind::kBlast);
  Result<JobResult> missing = SharedEngine().RunOn("absent", spec);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(EngineDiagnostics, InvalidSpecNeverReachesABackend) {
  JobSpec spec;  // csv source without paths
  Result<JobResult> result = SharedEngine().Run(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineDiagnostics, MissingCsvPathIsNotFoundNotACrash) {
  JobSpec spec;
  spec.dataset.e1 = "no_such_file.csv";
  spec.dataset.ground_truth = "also_missing.csv";
  Result<JobResult> result = SharedEngine().Run(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("dataset path does not exist"),
            std::string::npos)
      << result.status().message();
}

TEST(EngineDiagnostics, ServingSupportsNamesTheOffendingSetting) {
  JobSpec spec = ServingCompatibleSpec(PruningKind::kBlast);
  spec.execution.mode = ExecutionMode::kServing;

  JobSpec filtering = spec;
  filtering.blocking.filter_ratio = 0.8;
  Result<JobResult> result = SharedEngine().Run(filtering);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("filter_ratio"),
            std::string::npos);

  JobSpec clean_clean = spec;
  clean_clean.dataset.source = DatasetSource::kGeneratedCleanClean;
  clean_clean.dataset.name = "AbtBuy";
  result = SharedEngine().Run(clean_clean);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  JobSpec bayes = spec;
  bayes.classifier = ClassifierKind::kGaussianNaiveBayes;
  result = SharedEngine().Run(bayes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("linear"), std::string::npos);
}

// ---------------------------------------------------------------------------
// OpenSession: the facade's door to the long-lived incremental layer
// ---------------------------------------------------------------------------

TEST(EngineOpenSession, LiveSessionMatchesOneShotRun) {
  JobSpec spec = ServingCompatibleSpec(PruningKind::kBlast);
  spec.execution.mode = ExecutionMode::kServing;
  spec.execution.shards = 4;  // incremental shape, not the 1-shard parity
  const JobResult one_shot = MustRun(spec);

  Result<MetaBlockingSession> session = SharedEngine().OpenSession(spec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->RetainedPairs().size(), one_shot.metrics.retained);
  EXPECT_EQ(session->Stats().num_shards, 4u);
  EXPECT_EQ(session->DirtyShardCount(), 0u);  // Refresh()ed on open
}

TEST(EngineOpenSession, RejectsUnsupportedSpecs) {
  JobSpec spec = ServingCompatibleSpec(PruningKind::kBlast);
  spec.blocking.filter_ratio = 0.8;
  Result<MetaBlockingSession> session = SharedEngine().OpenSession(spec);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace gsmb
