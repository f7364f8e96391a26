// Engine::Prepare and the engine-level prepare cache: hit-vs-miss handle
// identity, LRU eviction under entry and byte budgets, cross-thread
// build sharing, failure non-caching, and auto-mode resolution being
// identical on cold and cached paths.

#include "gsmb/engine.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "gsmb/job_spec.h"
#include "gsmb/prepared.h"

namespace gsmb {
namespace {

/// A small generated Dirty ER spec (the prepare path is identical for CSV
/// sources; generated datasets keep the tests hermetic).
JobSpec SmallSpec(double scale = 0.03) {
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedDirty;
  spec.dataset.name = "D10K";
  spec.dataset.scale = scale;
  spec.blocking.filter_ratio = 1.0;
  spec.training.labels_per_class = 15;
  spec.training.seed = 3;
  spec.execution.shards = 1;
  spec.output.keep_retained = true;
  return spec;
}

TEST(PrepareCacheKeyFn, CoversExactlyDatasetAndBlocking) {
  JobSpec spec = SmallSpec();
  const std::string key = PrepareCacheKey(spec);

  // Execution/pipeline knobs never enter the key...
  JobSpec same = spec;
  same.execution.options.num_threads = 7;
  same.execution.mode = ExecutionMode::kStreaming;
  same.pruning.kind = PruningKind::kCnp;
  same.features = FeatureSet::Paper2014();
  same.training.seed = 99;
  EXPECT_EQ(PrepareCacheKey(same), key);

  // ...while any dataset or blocking change does.
  JobSpec other_blocking = spec;
  other_blocking.blocking.min_token_length = 2;
  EXPECT_NE(PrepareCacheKey(other_blocking), key);
  JobSpec other_dataset = spec;
  other_dataset.dataset.scale = 0.04;
  EXPECT_NE(PrepareCacheKey(other_dataset), key);
}

TEST(PrepareCache, HitReturnsPointerIdenticalHandle) {
  Engine engine;
  JobSpec spec = SmallSpec();

  Result<PreparedHandle> first = engine.Prepare(spec);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT((*first)->num_candidates(), 0u);

  Result<PreparedHandle> second = engine.Prepare(spec);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get()) << "cache hit must share the handle";

  // A spec differing only in execution knobs maps to the same preparation.
  JobSpec threaded = spec;
  threaded.execution.options.num_threads = 4;
  threaded.execution.mode = ExecutionMode::kStreaming;
  Result<PreparedHandle> third = engine.Prepare(threaded);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(first->get(), third->get());

  const PrepareCacheStats stats = engine.prepare_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(PrepareCache, RunIsPrepareThenExecute) {
  Engine engine;
  JobSpec spec = SmallSpec();

  Result<JobResult> first = engine.Run(spec);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<JobResult> second = engine.Run(spec);
  ASSERT_TRUE(second.ok());

  // Identical answers, one preparation.
  EXPECT_EQ(first->retained, second->retained);
  const PrepareCacheStats stats = engine.prepare_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(PrepareCache, EvictionFollowsLruOrder) {
  EngineOptions options;
  options.prepare_cache_max_entries = 2;
  Engine engine(options);

  const JobSpec a = SmallSpec(0.02);
  const JobSpec b = SmallSpec(0.025);
  const JobSpec c = SmallSpec(0.03);

  ASSERT_TRUE(engine.Prepare(a).ok());
  ASSERT_TRUE(engine.Prepare(b).ok());
  ASSERT_TRUE(engine.Prepare(a).ok());  // touch a: b is now LRU
  ASSERT_TRUE(engine.Prepare(c).ok());  // evicts b, not a

  PrepareCacheStats stats = engine.prepare_cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  ASSERT_TRUE(engine.Prepare(a).ok());  // still cached
  EXPECT_EQ(engine.prepare_cache_stats().misses, 3u);  // a, b, c built

  ASSERT_TRUE(engine.Prepare(b).ok());  // evicted above: rebuilt
  stats = engine.prepare_cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);  // b's re-insert evicted the LRU (c)
}

TEST(PrepareCache, ByteBudgetBoundsResidency) {
  // A 1 MiB budget below a single preparation's footprint degrades to
  // pass-through: the entry is dropped right after insert, never wrongly
  // served, and the next Prepare rebuilds.
  EngineOptions options;
  options.prepare_cache_budget_mb = 1;
  Engine engine(options);

  const JobSpec spec = SmallSpec(0.3);  // ~2 MB resident
  Result<PreparedHandle> first = engine.Prepare(spec);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT((*first)->ApproxBytes(), 1u << 20)
      << "fixture must exceed the byte budget for this test to bite";

  PrepareCacheStats stats = engine.prepare_cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_GE(stats.evictions, 1u);

  Result<PreparedHandle> second = engine.Prepare(spec);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->get(), second->get());
  EXPECT_EQ(engine.prepare_cache_stats().misses, 2u);
}

TEST(PrepareCache, DisabledCacheStillPrepares) {
  EngineOptions options;
  options.prepare_cache_max_entries = 0;
  Engine engine(options);

  const JobSpec spec = SmallSpec();
  Result<PreparedHandle> first = engine.Prepare(spec);
  Result<PreparedHandle> second = engine.Prepare(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->get(), second->get());
  const PrepareCacheStats stats = engine.prepare_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(PrepareCache, CrossThreadRaceSharesOneBuild) {
  // Run under the `tsan` preset as well as plain builds: the racing
  // threads exercise the cache's shared_future slot hand-off, and TSan
  // checks the happens-before edges the assertions below rely on.
  Engine engine;
  const JobSpec spec = SmallSpec();

  constexpr size_t kThreads = 8;
  std::vector<const PreparedInputs*> handles(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<PreparedHandle> prepared = engine.Prepare(spec);
      if (prepared.ok()) handles[t] = prepared->get();
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(handles[t], nullptr) << "thread " << t << " failed to prepare";
    EXPECT_EQ(handles[t], handles[0]) << "thread " << t << " got its own build";
  }
  const PrepareCacheStats stats = engine.prepare_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1);
}

TEST(PrepareCache, FailedPreparationIsNeverCached) {
  Engine engine;
  JobSpec spec;
  spec.dataset.e1 = "no_such_file.csv";
  spec.dataset.ground_truth = "also_missing.csv";

  Result<PreparedHandle> first = engine.Prepare(spec);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.prepare_cache_stats().entries, 0u);

  // The retry must rebuild (and re-fail), not serve the cached failure.
  Result<PreparedHandle> second = engine.Prepare(spec);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(engine.prepare_cache_stats().misses, 2u);
}

TEST(EngineExecute, RejectsAMismatchedHandle) {
  Engine engine;
  Result<PreparedHandle> prepared = engine.Prepare(SmallSpec());
  ASSERT_TRUE(prepared.ok());

  JobSpec other = SmallSpec();
  other.blocking.min_token_length = 2;  // different preparation
  Result<JobResult> result = engine.Execute(other, **prepared);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("do not match"),
            std::string::npos);
}

TEST(EngineExecute, MatchesPlainRunBitForBit) {
  Engine engine;
  JobSpec spec = SmallSpec();
  Result<PreparedHandle> prepared = engine.Prepare(spec);
  ASSERT_TRUE(prepared.ok());

  for (ExecutionMode mode :
       {ExecutionMode::kBatch, ExecutionMode::kStreaming}) {
    spec.execution.mode = mode;
    Result<JobResult> staged = engine.Execute(spec, **prepared);
    ASSERT_TRUE(staged.ok()) << staged.status().ToString();

    Engine independent;
    Result<JobResult> direct = independent.Run(spec);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(staged->retained, direct->retained)
        << ExecutionModeName(mode);
    EXPECT_EQ(staged->model_coefficients, direct->model_coefficients);
  }
}

TEST(EngineAutoStaged, ResolutionIdenticalColdAndCached) {
  // Streaming resolution (tiny budget): the cold run decides from the
  // fresh preparation, the cached run from the shared handle — same
  // backend, same retained pairs.
  Engine engine;
  JobSpec spec = SmallSpec();
  spec.execution.mode = ExecutionMode::kAuto;
  spec.execution.memory_budget_mb = 1;

  Result<JobResult> cold = engine.Run(spec);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  Result<JobResult> cached = engine.Run(spec);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cold->backend, "streaming");
  EXPECT_EQ(cached->backend, "streaming");
  EXPECT_EQ(cold->retained, cached->retained);
  EXPECT_EQ(engine.prepare_cache_stats().misses, 1u);

  // Batch resolution (no budget): same contract.
  Engine batch_engine;
  JobSpec batch_spec = SmallSpec();
  batch_spec.execution.mode = ExecutionMode::kAuto;
  Result<JobResult> batch_cold = batch_engine.Run(batch_spec);
  Result<JobResult> batch_cached = batch_engine.Run(batch_spec);
  ASSERT_TRUE(batch_cold.ok());
  ASSERT_TRUE(batch_cached.ok());
  EXPECT_EQ(batch_cold->backend, "batch");
  EXPECT_EQ(batch_cached->backend, "batch");
  EXPECT_EQ(batch_cold->retained, batch_cached->retained);
}

TEST(PreparedInputsLazyBatch, StreamingNeverMaterialises) {
  Engine engine;
  JobSpec spec = SmallSpec();
  spec.execution.mode = ExecutionMode::kStreaming;
  Result<PreparedHandle> prepared = engine.Prepare(spec);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(engine.Execute(spec, **prepared).ok());
  EXPECT_FALSE((*prepared)->batch_materialized())
      << "a streaming-only handle must stay free of O(|C|) arrays";

  spec.execution.mode = ExecutionMode::kBatch;
  ASSERT_TRUE(engine.Execute(spec, **prepared).ok());
  EXPECT_TRUE((*prepared)->batch_materialized());
}

// A serving cold build trains on the sampled pairs of the counting
// preparation, so neither a one-shot serving run nor a session opened on
// the cached handle materialises the batch arrays.
TEST(PreparedInputsLazyBatch, ServingNeverMaterialises) {
  Engine engine;
  JobSpec spec = SmallSpec();
  spec.execution.mode = ExecutionMode::kServing;
  Result<PreparedHandle> prepared = engine.Prepare(spec);
  ASSERT_TRUE(prepared.ok());
  Result<JobResult> run = engine.Execute(spec, **prepared);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<MetaBlockingSession> session = engine.OpenSession(spec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(engine.prepare_cache_stats().misses, 1u)
      << "OpenSession must reuse the cached handle";
  EXPECT_FALSE((*prepared)->batch_materialized())
      << "a serving handle must stay free of O(|C|) arrays";
}

}  // namespace
}  // namespace gsmb
