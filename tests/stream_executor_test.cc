// Streaming-vs-batch equivalence: the StreamingExecutor must retain pairs
// BIT-IDENTICAL to RunMetaBlocking for all 8 pruning kinds, at every
// tested shard count x thread count, on both Clean-Clean and Dirty
// fixtures. This is the load-bearing guarantee of stream/ — everything
// else (memory bounds, sweeps, sinks) is checked afterwards.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/candidate_pairs.h"
#include "core/pipeline.h"
#include "datasets/dirty_generator.h"
#include "datasets/specs.h"
#include "gsmb/telemetry.h"
#include "stream/streaming_dataset.h"
#include "stream/streaming_executor.h"
#include "test_support.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace gsmb {
namespace {

using testing::MediumDataset;
using testing::SmallDirtyDataset;

StreamingDataset StreamingTwin(const PreparedDataset& prep) {
  return PrepareStreamingFromBlocks(prep.name, prep.blocks,
                                    prep.ground_truth, /*num_threads=*/2);
}

MetaBlockingConfig BaseConfig(PruningKind kind) {
  MetaBlockingConfig config;
  config.features = FeatureSet::BlastOptimal();
  config.pruning = kind;
  config.train_per_class = 25;
  config.seed = 7;
  config.keep_retained = true;
  return config;
}

void ExpectIdentical(const MetaBlockingResult& batch,
                     const StreamingResult& stream, PruningKind kind,
                     size_t shards, size_t threads) {
  SCOPED_TRACE(std::string(PruningKindName(kind)) + " shards=" +
               std::to_string(shards) + " threads=" +
               std::to_string(threads));
  EXPECT_EQ(batch.retained_indices, stream.retained_indices);
  EXPECT_EQ(batch.metrics.retained, stream.metrics.retained);
  EXPECT_EQ(batch.metrics.true_positives, stream.metrics.true_positives);
  EXPECT_EQ(batch.metrics.recall, stream.metrics.recall);
  EXPECT_EQ(batch.metrics.precision, stream.metrics.precision);
  EXPECT_EQ(batch.metrics.f1, stream.metrics.f1);
  EXPECT_EQ(batch.training_size, stream.training_size);
  EXPECT_EQ(batch.model_coefficients, stream.model_coefficients);
}

void RunEquivalenceSweep(const PreparedDataset& prep) {
  const StreamingDataset twin = StreamingTwin(prep);
  ASSERT_EQ(prep.pairs.size(), twin.num_candidates());
  for (PruningKind kind : AllPruningKinds()) {
    const MetaBlockingConfig config = BaseConfig(kind);
    const MetaBlockingResult batch = RunMetaBlocking(prep, config);
    for (size_t shards : {size_t{1}, size_t{4}, size_t{128}}) {
      for (size_t threads : {size_t{1}, size_t{8}}) {
        StreamingOptions options;
        options.num_shards = shards;
        MetaBlockingConfig stream_config = config;
        stream_config.execution.num_threads = threads;
        const StreamingResult stream =
            StreamingExecutor(twin, options).Run(stream_config);
        ExpectIdentical(batch, stream, kind, shards, threads);
      }
    }
  }
}

TEST(StreamExecutorTest, PreparationMatchesBatchGeometry) {
  const PreparedDataset& prep = MediumDataset();
  const StreamingDataset twin = StreamingTwin(prep);

  ASSERT_EQ(twin.num_candidates(), prep.pairs.size());
  ASSERT_EQ(twin.pivot_offsets.size(),
            NumCandidatePivots(*prep.index) + 1);
  // The offsets must reproduce the grouped-by-pivot order of the batch
  // candidate list.
  for (size_t i = 0; i < prep.pairs.size(); ++i) {
    const size_t pivot = prep.pairs[i].left;
    EXPECT_GE(i, twin.pivot_offsets[pivot]);
    EXPECT_LT(i, twin.pivot_offsets[pivot + 1]);
  }
  // positive_indices are exactly the ascending candidate indices the batch
  // path labels positive.
  std::vector<uint64_t> expected;
  for (size_t i = 0; i < prep.is_positive.size(); ++i) {
    if (prep.is_positive[i]) expected.push_back(i);
  }
  EXPECT_EQ(expected, twin.positive_indices);
  EXPECT_EQ(prep.blocking_quality.num_candidates,
            twin.blocking_quality.num_candidates);
  EXPECT_EQ(prep.blocking_quality.duplicates_covered,
            twin.blocking_quality.duplicates_covered);
  EXPECT_EQ(prep.blocking_quality.recall, twin.blocking_quality.recall);
  EXPECT_EQ(prep.blocking_quality.precision,
            twin.blocking_quality.precision);
  EXPECT_EQ(prep.blocking_quality.f1, twin.blocking_quality.f1);
}

TEST(StreamExecutorTest, AllKindsMatchBatchCleanClean) {
  RunEquivalenceSweep(MediumDataset());
}

TEST(StreamExecutorTest, AllKindsMatchBatchDirty) {
  RunEquivalenceSweep(SmallDirtyDataset());
}

// LCP forces the precomputed-per-entity path (and the 2014 feature set is
// the one whose rows depend on a feature the shard cannot see locally).
TEST(StreamExecutorTest, LcpFeaturesMatchBatch) {
  const PreparedDataset& prep = MediumDataset();
  const StreamingDataset twin = StreamingTwin(prep);
  MetaBlockingConfig config = BaseConfig(PruningKind::kRcnp);
  config.features = FeatureSet::Paper2014();
  const MetaBlockingResult batch = RunMetaBlocking(prep, config);
  StreamingOptions options;
  options.num_shards = 5;
  MetaBlockingConfig stream_config = config;
  stream_config.execution.num_threads = 4;
  const StreamingResult stream =
      StreamingExecutor(twin, options).Run(stream_config);
  ExpectIdentical(batch, stream, config.pruning, 5, 4);
}

// A dataset large enough for dozens of chunks, so shard boundaries cut
// through pivot groups many times (the truncated-group path).
TEST(StreamExecutorTest, ManyShardDirtyDatasetMatchesBatch) {
  DirtySpec spec;
  spec.name = "StreamD6K";
  spec.num_entities = 6000;
  spec.seed = 5;
  GeneratedDirty data = DirtyGenerator().Generate(spec);
  GroundTruth gt_copy = data.ground_truth;
  const PreparedDataset prep =
      PrepareDirty(spec.name, data.entities, std::move(gt_copy),
                   BlockingOptions{.execution = {.num_threads = 4}});
  const StreamingDataset twin = StreamingTwin(prep);

  for (PruningKind kind : {PruningKind::kBlast, PruningKind::kWep,
                           PruningKind::kCnp}) {
    MetaBlockingConfig config = BaseConfig(kind);
    config.execution.num_threads = 4;
    const MetaBlockingResult batch = RunMetaBlocking(prep, config);
    for (size_t shards : {size_t{3}, size_t{32}}) {
      StreamingOptions options;
      options.num_shards = shards;
      const StreamingResult stream =
          StreamingExecutor(twin, options).Run(config);
      EXPECT_GT(stream.num_shards_used, 1u);
      ExpectIdentical(batch, stream, kind, shards, 4);
    }
  }
}

TEST(StreamExecutorTest, MemoryBudgetDerivesShardCountAndBoundsArena) {
  const PreparedDataset& prep = MediumDataset();
  const StreamingDataset twin = StreamingTwin(prep);
  MetaBlockingConfig config = BaseConfig(PruningKind::kBlast);
  const MetaBlockingResult batch = RunMetaBlocking(prep, config);

  StreamingOptions options;
  options.num_shards = 1;
  options.memory_budget_mb = 1;  // ~1 MiB arena => multiple shards
  const StreamingExecutor executor(twin, options);
  const StreamingResult stream = executor.Run(config);

  EXPECT_GT(stream.num_shards_used, 1u);
  // One candidate costs ~sizeof(pair) + feature row + probability; the
  // high-water arena must respect the derived per-shard budget (chunk
  // granularity makes it exact only up to one chunk).
  const size_t bytes_per_pair =
      sizeof(CandidatePair) + 8 * config.features.Dimensions() + 16;
  EXPECT_LE(stream.max_shard_candidates * bytes_per_pair,
            (options.memory_budget_mb << 20) + bytes_per_pair * 8192);
  ExpectIdentical(batch, stream, config.pruning, stream.num_shards_used, 1);
}

// Every kind at several shards: the cardinality kinds emit from their heap
// entries and the weight-based kinds from sweep 1's survivors, so each
// emitted pair and probability must equal the batch path's at that index.
TEST(StreamExecutorTest, SinkReceivesRetainedAscendingWithPairs) {
  const PreparedDataset& prep = MediumDataset();
  const StreamingDataset twin = StreamingTwin(prep);
  for (PruningKind kind : AllPruningKinds()) {
    SCOPED_TRACE(PruningKindName(kind));
    MetaBlockingConfig config = BaseConfig(kind);
    config.keep_probabilities = true;
    const MetaBlockingResult batch = RunMetaBlocking(prep, config);
    ASSERT_EQ(batch.probabilities.size(), prep.pairs.size());
    StreamingOptions options;
    options.num_shards = 4;
    std::vector<uint32_t> seen;
    StreamingResult stream = StreamingExecutor(twin, options).Run(
        config, [&](uint32_t index, const CandidatePair& pair,
                    double probability) {
          if (!seen.empty()) {
            EXPECT_LT(seen.back(), index);
          }
          seen.push_back(index);
          EXPECT_EQ(prep.pairs[index], pair);
          EXPECT_EQ(batch.probabilities[index], probability);
          EXPECT_GE(probability, 0.5);  // default validity threshold
        });
    EXPECT_EQ(seen.size(), stream.metrics.retained);
    EXPECT_EQ(seen, stream.retained_indices);
    EXPECT_EQ(batch.retained_indices, stream.retained_indices);
  }
}

// Above the validity floor every kind fills each shard once: the
// weight-based kinds emit from sweep 1's survivors, the cardinality kinds
// from their folded top-k structures.
TEST(StreamExecutorTest, SweepCountsPerAlgorithmFamily) {
  const StreamingDataset twin = StreamingTwin(MediumDataset());
  StreamingOptions options;
  options.num_shards = 4;
  for (PruningKind kind : AllPruningKinds()) {
    const StreamingResult stream =
        StreamingExecutor(twin, options).Run(BaseConfig(kind));
    EXPECT_EQ(stream.num_shards_used, 4u);
    EXPECT_EQ(stream.sweeps, 1u) << PruningKindName(kind);
  }
}

// At one shard the arena filled by sweep 1 is still resident, so the
// weight-based kinds apply their thresholds to it without a second fill.
TEST(StreamExecutorTest, OneShardFillsTheArenaOnce) {
  const PreparedDataset& prep = MediumDataset();
  const StreamingDataset twin = StreamingTwin(prep);
  StreamingOptions options;
  options.num_shards = 1;
  for (PruningKind kind : {PruningKind::kBlast, PruningKind::kWep,
                           PruningKind::kWnp, PruningKind::kRwnp}) {
    const MetaBlockingConfig config = BaseConfig(kind);
    const StreamingResult stream =
        StreamingExecutor(twin, options).Run(config);
    EXPECT_EQ(stream.num_shards_used, 1u);
    EXPECT_EQ(stream.sweeps, 1u) << PruningKindName(kind);
    ExpectIdentical(RunMetaBlocking(prep, config), stream, kind, 1, 1);
  }
}

// A shard fill interleaves pairs, features and classify inside each
// worker; the three get attributed shares of the fills' wall time, which
// with the other phases never exceed the run's own wall time.
TEST(StreamExecutorTest, FusedFillReportsEveryPhaseWithinWallTime) {
  const StreamingDataset twin = StreamingTwin(MediumDataset());
  StreamingOptions options;
  options.num_shards = 4;
  MetaBlockingConfig config = BaseConfig(PruningKind::kBlast);
  config.execution.num_threads = 2;
  Stopwatch watch;
  const StreamingResult stream = StreamingExecutor(twin, options).Run(config);
  const double wall = watch.ElapsedSeconds();
  ASSERT_EQ(stream.num_shards_used, 4u);
  EXPECT_GT(stream.generate_seconds, 0.0);
  EXPECT_GT(stream.feature_seconds, 0.0);
  EXPECT_GT(stream.classify_seconds, 0.0);
  EXPECT_GT(stream.train_seconds, 0.0);
  EXPECT_GT(stream.prune_seconds, 0.0);
  EXPECT_LE(stream.phases.Total(), wall);
  EXPECT_DOUBLE_EQ(stream.total_seconds, stream.phases.Total());
}

/// The executor's shard plan: `shards` near-equal numbers of whole
/// DeterministicChunks, the earlier shards one chunk larger, as [first,
/// end) candidate ranges.
std::vector<std::pair<size_t, size_t>> ShardRanges(size_t n, size_t shards) {
  const std::vector<ChunkRange> chunks = DeterministicChunks(n);
  std::vector<std::pair<size_t, size_t>> ranges;
  size_t chunk = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t take =
        chunks.size() / shards + (s < chunks.size() % shards ? 1 : 0);
    ranges.push_back({chunks[chunk].begin, chunks[chunk + take - 1].end});
    chunk += take;
  }
  return ranges;
}

/// Runs `config` on `shards` shards and returns the run's gauges.
std::map<std::string, double> Gauges(const StreamingDataset& twin,
                                     size_t shards,
                                     const MetaBlockingConfig& config,
                                     StreamingResult* result) {
  StreamingOptions options;
  options.num_shards = shards;
  obs::TelemetrySink sink;
  obs::InstallSink(&sink);
  *result = StreamingExecutor(twin, options).Run(config);
  obs::InstallSink(nullptr);
  return sink.SnapshotMetrics().gauges;
}

// The arena holds a shard's kept rows only: the candidates at or above the
// validity floor, each with its global index, pair and probability
// (kKeptRowBytes), or at a floor <= 0 every candidate with an implicit
// index (16 bytes). The arena.bytes.peak gauge reports those bytes, not the
// planning model's.
TEST(StreamExecutorTest, ArenaGaugeReportsTheBytesItHolds) {
  const PreparedDataset& prep = MediumDataset();
  const StreamingDataset twin = StreamingTwin(prep);
  MetaBlockingConfig probe = BaseConfig(PruningKind::kBlast);
  probe.keep_probabilities = true;
  const std::vector<double> probabilities =
      RunMetaBlocking(prep, probe).probabilities;
  const auto above_floor = [&](size_t first, size_t end) {
    return static_cast<size_t>(
        std::count_if(probabilities.begin() + first, probabilities.begin() + end,
                      [](double p) { return p >= 0.5; }));
  };

  StreamingResult stream;
  const MetaBlockingConfig config = BaseConfig(PruningKind::kBlast);
  const size_t kept = above_floor(0, probabilities.size());
  ASSERT_GT(kept, 0u);
  ASSERT_LT(kept, probabilities.size());
  EXPECT_EQ(Gauges(twin, 1, config, &stream).at("arena.bytes.peak"),
            static_cast<double>(kept * kKeptRowBytes));

  std::map<std::string, double> gauges = Gauges(twin, 4, config, &stream);
  ASSERT_EQ(stream.num_shards_used, 4u);
  size_t largest = 0;
  for (const auto& [first, end] : ShardRanges(probabilities.size(), 4)) {
    largest = std::max(largest, above_floor(first, end));
  }
  EXPECT_EQ(gauges.at("arena.bytes.peak"),
            static_cast<double>(largest * kKeptRowBytes));

  MetaBlockingConfig every_row = config;
  every_row.validity_threshold = 0.0;
  gauges = Gauges(twin, 4, every_row, &stream);
  EXPECT_EQ(gauges.at("arena.bytes.peak"),
            static_cast<double>(stream.max_shard_candidates *
                                (sizeof(CandidatePair) + sizeof(double))));
}

// Weight-based kinds keep the kept rows of every shard but the last in a
// survivor list capped at StreamingArenaBytesPerPair(1) - kKeptRowBytes
// bytes per candidate of the largest shard, so the list and one arena of
// kept rows stay within the planning model's StreamingArenaBytesPerPair(1).
// At the default floor, or at a floor equal to the probability of the
// weakest pair BLAST retains (which BLAST must still retain), they fit and
// each shard is filled once. A floor that lets through half as many pairs
// again as the cap overflows after some shards have survived; a floor of 0
// keeps every candidate, which overflows at the first shard, so the list
// never holds any. Either overflow drops the list and fills each shard a
// second time, still matching the batch path.
TEST(StreamExecutorTest, SurvivorsFitOneArenaOrFallBackToASecondFill) {
  const PreparedDataset& prep = MediumDataset();
  const StreamingDataset twin = StreamingTwin(prep);
  StreamingOptions options;
  options.num_shards = 4;
  MetaBlockingConfig probe = BaseConfig(PruningKind::kBlast);
  probe.keep_probabilities = true;
  const MetaBlockingResult probed = RunMetaBlocking(prep, probe);
  ASSERT_FALSE(probed.retained_indices.empty());
  double weakest_kept = 1.0;
  for (uint32_t index : probed.retained_indices) {
    weakest_kept = std::min(weakest_kept, probed.probabilities[index]);
  }
  std::vector<double> descending = probed.probabilities;
  std::sort(descending.begin(), descending.end(), std::greater<>());
  const size_t max_shard =
      StreamingExecutor(twin, options).Run(probe).max_shard_candidates;
  const size_t cap_bytes =
      (StreamingArenaBytesPerPair(1) - kKeptRowBytes) * max_shard;
  const size_t cap = cap_bytes / kKeptRowBytes;
  ASSERT_LT(cap + cap / 2, descending.size());
  const double mid_run_floor = descending[cap + cap / 2];
  ASSERT_GT(mid_run_floor, 0.0);

  const struct {
    double floor;
    size_t sweeps;
  } cases[] = {{0.5, 1}, {weakest_kept, 1}, {mid_run_floor, 2}, {0.0, 2}};
  for (const auto& [floor, sweeps] : cases) {
    for (PruningKind kind : {PruningKind::kWep, PruningKind::kWnp,
                             PruningKind::kRwnp, PruningKind::kBlast}) {
      MetaBlockingConfig config = BaseConfig(kind);
      config.validity_threshold = floor;
      const MetaBlockingResult batch = RunMetaBlocking(prep, config);
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE("floor=" + std::to_string(floor));
        MetaBlockingConfig stream_config = config;
        stream_config.execution.num_threads = threads;
        StreamingResult stream;
        const std::map<std::string, double> gauges =
            Gauges(twin, options.num_shards, stream_config, &stream);
        ASSERT_EQ(gauges.count("arena.bytes.peak"), 1u);
        ASSERT_EQ(gauges.count("survivors.bytes.peak"), 1u);
        const double survivor_bytes = gauges.at("survivors.bytes.peak");
        EXPECT_LE(survivor_bytes, static_cast<double>(cap_bytes));
        EXPECT_LE(survivor_bytes + gauges.at("arena.bytes.peak"),
                  static_cast<double>(StreamingArenaBytesPerPair(1) *
                                      max_shard));
        EXPECT_EQ(survivor_bytes > 0.0, floor > 0.0);
        EXPECT_EQ(stream.num_shards_used, 4u);
        EXPECT_EQ(stream.sweeps, sweeps);
        ExpectIdentical(batch, stream, kind, 4, threads);
      }
    }
  }
}

// Every kind at floors 0 (every candidate kept, indices implicit), 0.5 and
// 0.9 (a shard holds only the rows at or above it), at one shard and at
// four, on both ER modes: the retained set equals the batch path's.
TEST(StreamExecutorTest, EveryFloorShardCountAndKindMatchesBatch) {
  for (const PreparedDataset* prep : {&MediumDataset(), &SmallDirtyDataset()}) {
    const StreamingDataset twin = StreamingTwin(*prep);
    for (double floor : {0.0, 0.5, 0.9}) {
      for (PruningKind kind : AllPruningKinds()) {
        MetaBlockingConfig config = BaseConfig(kind);
        config.validity_threshold = floor;
        const MetaBlockingResult batch = RunMetaBlocking(*prep, config);
        for (size_t shards : {size_t{1}, size_t{4}}) {
          for (size_t threads : {size_t{1}, size_t{4}}) {
            SCOPED_TRACE(prep->name + " floor=" + std::to_string(floor));
            StreamingOptions options;
            options.num_shards = shards;
            MetaBlockingConfig stream_config = config;
            stream_config.execution.num_threads = threads;
            const StreamingResult stream =
                StreamingExecutor(twin, options).Run(stream_config);
            ExpectIdentical(batch, stream, kind, shards, threads);
          }
        }
      }
    }
  }
}

TEST(StreamExecutorTest, RejectsUnusableOptions) {
  const StreamingDataset twin = StreamingTwin(MediumDataset());
  StreamingOptions options;
  options.num_shards = 0;
  options.memory_budget_mb = 0;
  EXPECT_THROW(StreamingExecutor(twin, options), std::invalid_argument);
}

}  // namespace
}  // namespace gsmb
