#include "stream/streaming_executor.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/features.h"
#include "core/pruning_aggregates.h"
#include "gsmb/telemetry.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

/// The floor a shard fill keeps rows at: the validity threshold, or 0 when
/// the job keeps every probability.
double FillFloor(const MetaBlockingConfig& config) {
  return config.keep_probabilities ? 0.0 : config.validity_threshold;
}

/// A weight-based kind's kept rows of every shard but the resident last
/// one, each shard's rows ascending by global index. Every weight-based
/// Keep() is false below the validity threshold, so emission applies the
/// finalized Keep() to these rows and to the resident shard's instead of
/// filling every shard again. A shard's rows join the list whole — the
/// arena's buffers move in, nothing is copied — while the list stays within
/// `max_bytes`; the shard that would pass that drops the list for good
/// (overflowed()), and emission falls back to a second fill.
class SurvivorList {
 public:
  explicit SurvivorList(size_t max_bytes) : max_bytes_(max_bytes) {}

  bool overflowed() const { return overflowed_; }
  const std::vector<ScoredCandidates>& parts() const { return parts_; }

  /// Takes the shard's rows, leaving `shard` empty, or drops the list when
  /// they do not fit.
  void Take(ScoredCandidates* shard) {
    if (overflowed_) return;
    if (shard->Bytes() > max_bytes_ - bytes_) {
      std::vector<ScoredCandidates>().swap(parts_);
      overflowed_ = true;
    } else {
      bytes_ += shard->Bytes();
      parts_.push_back(std::move(*shard));
      *shard = ScoredCandidates();
    }
    // The most the list has held: it never grows past an overflow.
    obs::GaugeMax("survivors.bytes.peak", static_cast<double>(bytes_));
  }

 private:
  size_t max_bytes_;
  size_t bytes_ = 0;
  std::vector<ScoredCandidates> parts_;
  bool overflowed_ = false;
};

}  // namespace

StreamingExecutor::StreamingExecutor(
    const StreamingDataset& dataset, StreamingOptions options,
    const std::vector<CandidatePair>* resident)
    : dataset_(dataset), options_(options), resident_(resident) {
  if (options_.num_shards == 0 && options_.memory_budget_mb == 0) {
    throw std::invalid_argument(
        "StreamingExecutor: options need num_shards > 0 or a positive "
        "memory budget");
  }
}

std::vector<StreamingExecutor::ShardSlice> StreamingExecutor::PlanShards(
    size_t num_chunks, size_t feature_dims) const {
  const uint64_t n = dataset_.num_candidates();
  size_t shards = options_.num_shards;
  if (options_.memory_budget_mb > 0) {
    const uint64_t budget_bytes = static_cast<uint64_t>(
                                      options_.memory_budget_mb)
                                  << 20;
    const uint64_t bytes_per_pair = StreamingArenaBytesPerPair(feature_dims);
    const uint64_t pairs_per_shard =
        std::max<uint64_t>(1, budget_bytes / bytes_per_pair);
    const uint64_t derived =
        n == 0 ? 1 : (n + pairs_per_shard - 1) / pairs_per_shard;
    shards = std::max(shards, static_cast<size_t>(derived));
  }
  shards = std::clamp<size_t>(shards, 1, std::max<size_t>(1, num_chunks));

  std::vector<ShardSlice> slices;
  if (num_chunks == 0) return slices;
  const size_t base = num_chunks / shards;
  const size_t extra = num_chunks % shards;
  size_t chunk = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t take = base + (s < extra ? 1 : 0);
    if (take == 0) continue;
    ShardSlice slice;
    slice.chunk_begin = chunk;
    slice.chunk_end = chunk + take;
    slice.first_index = chunk * kDefaultChunkGrain;
    slice.end_index = std::min<size_t>(static_cast<size_t>(n),
                                       slice.chunk_end * kDefaultChunkGrain);
    slices.push_back(slice);
    chunk += take;
  }
  return slices;
}

void StreamingExecutor::FillArena(const ShardSlice& shard,
                                  const MetaBlockingConfig& config,
                                  const ProbabilisticClassifier& model,
                                  const FeatureTerms& terms,
                                  ScoredCandidates* arena,
                                  obs::PhaseTimings* phases) const {
  // Pairs, features and classify interleave per pivot tile inside each
  // worker, so the fill's wall time is split over the three phases by the
  // workers' busy tallies (features and classify alone when the pairs are
  // read from the resident list).
  {
    obs::FusedPhases fused(phases, resident_ != nullptr
                                       ? obs::Phase::kFeatures
                                       : obs::Phase::kPairs);
    ScoreCandidateRange(*dataset_.index, dataset_.pivot_offsets,
                        shard.first_index, shard.end_index, config.features,
                        model, FillFloor(config), config.execution.num_threads,
                        &terms, arena, fused.busy(), resident_);
  }
  obs::GaugeMax("arena.bytes.peak", static_cast<double>(arena->Bytes()));
}

MetaBlockingResult StreamingExecutor::Run(const MetaBlockingConfig& config,
                                          const RetainedSink& sink) const {
  const EntityIndex& index = *dataset_.index;
  const uint64_t n64 = dataset_.num_candidates();
  if (n64 > std::numeric_limits<uint32_t>::max()) {
    throw std::runtime_error(
        "StreamingExecutor: candidate count exceeds the 32-bit pair index "
        "space");
  }
  const auto n = static_cast<size_t>(n64);
  const std::vector<ChunkRange> chunks = DeterministicChunks(n);

  MetaBlockingResult result;
  const std::vector<ShardSlice> shards =
      PlanShards(chunks.size(), config.features.Dimensions());
  result.num_shards_used = shards.size();
  for (const ShardSlice& shard : shards) {
    result.max_shard_candidates = std::max(
        result.max_shard_candidates, shard.end_index - shard.first_index);
  }

  // ---- The kernel's per-entity and per-block terms once (LCP, the
  // logarithms, the block weights and, when the fill is filtered against a
  // floor, the block ranges), read by the training rows and every fill. ----
  const FeatureTerms terms = [&] {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kFeatures);
    return FeatureTerms(index, config.features, config.execution.num_threads,
                        /*block_bounds=*/FillFloor(config) > 0.0);
  }();

  // ---- Training: the balanced sample, its rows and fit. ----
  const TrainedClassifier trained =
      TrainClassifier(dataset_, config, &terms, &result.phases, resident_);
  const ProbabilisticClassifier& model = *trained.model;
  result.training_size = trained.training_size;
  result.model_coefficients = model.CoefficientsWithIntercept();

  // ---- Pruning context, identical to the in-memory pruners'. ----
  PruningContext context =
      PruningContext::FromIndex(index, dataset_.stats);
  context.blast_ratio = config.blast_ratio;
  context.validity_threshold = config.validity_threshold;
  context.execution = config.execution;

  std::unique_ptr<PruningAggregator> aggregator =
      MakePruningAggregator(config.pruning, chunks.size(), context);
  const size_t threads = config.execution.num_threads;
  // The resident shard: the candidates its fill kept, those at or above
  // the validity threshold (every candidate at a threshold <= 0 or when
  // the config keeps every probability).
  ScoredCandidates arena;
  // Weight-based kinds keep every shard's rows but the last for emission.
  // Those may hold (StreamingArenaBytesPerPair(1) - kKeptRowBytes) bytes per
  // candidate of the largest shard, so with a fill of kKeptRowBytes per
  // candidate at most, arena and survivors stay within the planning model.
  std::optional<SurvivorList> survivors;
  if (aggregator->needs_accumulation() &&
      !aggregator->emits_from_aggregates()) {
    survivors.emplace((StreamingArenaBytesPerPair(1) - kKeptRowBytes) *
                      result.max_shard_candidates);
  }

  size_t retained_count = 0;
  size_t true_positives = 0;
  // Emission ascends by index, as the ground-truth matches' indices do, so
  // one cursor over those counts the true positives.
  const std::vector<uint64_t>& positives = dataset_.positive_indices;
  size_t next_positive = 0;
  int64_t last_emitted = -1;
  auto emit = [&](uint32_t idx, const CandidatePair& pair,
                  double probability) {
    assert(static_cast<int64_t>(idx) > last_emitted);
    last_emitted = idx;
    ++retained_count;
    while (next_positive < positives.size() && positives[next_positive] < idx) {
      ++next_positive;
    }
    if (next_positive < positives.size() && positives[next_positive] == idx) {
      ++true_positives;
    }
    if (config.keep_retained) result.retained_indices.push_back(idx);
    if (sink) sink(idx, pair, probability);
  };
  // Applies the finalized Keep() to kept rows in parallel over fixed row
  // ranges, then emits the accepted ones in row order: ascending.
  const auto emit_kept = [&](const ScoredCandidates& rows) {
    const std::vector<ChunkRange> ranges = DeterministicChunks(rows.size());
    std::vector<std::vector<uint32_t>> accepted(ranges.size());
    ParallelFor(ranges.size(), threads, [&](size_t begin, size_t end) {
      for (size_t r = begin; r < end; ++r) {
        for (size_t j = ranges[r].begin; j < ranges[r].end; ++j) {
          if (aggregator->Keep(rows.IndexOf(j), rows.pairs[j],
                               rows.probabilities[j])) {
            accepted[r].push_back(static_cast<uint32_t>(j));
          }
        }
      }
    });
    for (const std::vector<uint32_t>& part : accepted) {
      for (uint32_t j : part) {
        emit(static_cast<uint32_t>(rows.IndexOf(j)), rows.pairs[j],
             rows.probabilities[j]);
      }
    }
  };

  // ---- Sweep 1: accumulate per-chunk aggregates, folding after each
  // shard — the identical fold sequence PruneWithAggregator performs. A
  // chunk's view holds the chunk's kept rows, which are every row the
  // aggregator folds. BCl needs no aggregates and emits each shard's kept
  // rows as it goes. ----
  ++result.sweeps;
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardSlice& shard = shards[s];
    FillArena(shard, config, model, terms, &arena, &result.phases);
    if (config.keep_probabilities && shards.size() > 1) {
      result.probabilities.insert(result.probabilities.end(),
                                  arena.probabilities.begin(),
                                  arena.probabilities.end());
    }
    obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
    if (!aggregator->needs_accumulation()) {
      emit_kept(arena);
      continue;
    }
    {
      // Per-shard accumulate+fold latency feeds the fold-time histogram the
      // streaming bench reports percentiles from.
      GSMB_SPAN("shard.fold", "stream.shard.fold_us");
      const size_t shard_chunks = shard.chunk_end - shard.chunk_begin;
      ParallelFor(shard_chunks, threads, [&](size_t begin, size_t end) {
        std::unique_ptr<AggregatorScratch> scratch = aggregator->MakeScratch();
        for (size_t sc = begin; sc < end; ++sc) {
          const size_t c = shard.chunk_begin + sc;
          const size_t row = arena.LowerRow(chunks[c].begin);
          PairChunkView view;
          view.chunk_index = c;
          view.first_index = chunks[c].begin;
          view.indices =
              arena.indices.empty() ? nullptr : arena.indices.data() + row;
          view.pairs = arena.pairs.data() + row;
          view.probabilities = arena.probabilities.data() + row;
          view.count = arena.LowerRow(chunks[c].end) - row;
          aggregator->AccumulateChunk(view, scratch.get());
        }
      });
      aggregator->FoldChunks(shard.chunk_begin, shard.chunk_end);
    }
    if (survivors && s + 1 < shards.size()) survivors->Take(&arena);
  }
  if (aggregator->needs_accumulation()) {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
    aggregator->Finalize();
  }

  // ---- Emit the retained set, ascending by global index. ----
  if (aggregator->emits_from_aggregates()) {
    // Cardinality kinds: the aggregator's compacted row list holds the
    // retained candidates, pairs included.
    obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
    for (const RetainedCandidate& c : aggregator->TakeRetained()) {
      emit(c.index, c.pair, c.probability);
    }
  } else if (survivors && !survivors->overflowed()) {
    // Weight-based kinds: the finalized thresholds apply to the kept rows
    // of sweep 1, which are every pair Keep() can accept — the earlier
    // shards' from the survivor list, the last shard's from the arena.
    obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
    for (const ScoredCandidates& part : survivors->parts()) emit_kept(part);
    emit_kept(arena);
  } else if (survivors) {
    // The survivors overflowed: fill each shard again and apply Keep().
    ++result.sweeps;
    for (const ShardSlice& shard : shards) {
      FillArena(shard, config, model, terms, &arena, &result.phases);
      obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
      emit_kept(arena);
    }
  }
  // At one shard the arena holds every probability already, in order.
  if (config.keep_probabilities && shards.size() == 1) {
    result.probabilities = std::move(arena.probabilities);
  }

  obs::CounterAdd("pairs.generated", n64);
  obs::CounterAdd("pairs.retained", retained_count);

  result.metrics = MetricsFromCounts(true_positives, retained_count,
                                     dataset_.ground_truth.size());
  return result;
}

}  // namespace gsmb
