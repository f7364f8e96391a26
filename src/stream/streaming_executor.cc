#include "stream/streaming_executor.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/features.h"
#include "core/pruning_aggregates.h"
#include "gsmb/telemetry.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

/// A weight-based kind's above-floor pairs from sweep 1, one part per shard,
/// ascending by global index. Every weight-based Keep() is false below the
/// validity threshold, so emission applies the finalized Keep() to these
/// instead of filling every shard again. Holds at most `max_entries`
/// entries, each part allocated once at its exact size; the shard that
/// would pass that drops the list for good (overflowed()), and emission
/// falls back to a second fill.
class SurvivorList {
 public:
  explicit SurvivorList(size_t max_entries) : max_entries_(max_entries) {}

  bool overflowed() const { return overflowed_; }
  const std::vector<std::vector<RetainedCandidate>>& parts() const {
    return parts_;
  }

  /// Appends the pairs with P >= `floor` of the shard whose first global
  /// candidate index is `first_index`: chunks are counted, then copied to
  /// their offsets in the part, both in parallel.
  void Append(size_t first_index, const std::vector<CandidatePair>& pairs,
              const std::vector<double>& probabilities, double floor,
              size_t num_threads) {
    if (overflowed_) return;
    const auto above_floor = [floor](double p) { return p >= floor; };
    const std::vector<ChunkRange> chunks =
        DeterministicChunks(probabilities.size());
    std::vector<size_t> offsets(chunks.size() + 1, 0);
    ParallelFor(chunks.size(), num_threads, [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; ++c) {
        offsets[c + 1] = static_cast<size_t>(
            std::count_if(probabilities.begin() + chunks[c].begin,
                          probabilities.begin() + chunks[c].end, above_floor));
      }
    });
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    const size_t count = offsets.back();
    if (count > max_entries_ - size_) {
      std::vector<std::vector<RetainedCandidate>>().swap(parts_);
      overflowed_ = true;
    } else {
      std::vector<RetainedCandidate>& part = parts_.emplace_back(count);
      ParallelFor(chunks.size(), num_threads, [&](size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          size_t out = offsets[c];
          for (size_t local = chunks[c].begin; local < chunks[c].end;
               ++local) {
            if (above_floor(probabilities[local])) {
              part[out++] = {static_cast<uint32_t>(first_index + local),
                             pairs[local], probabilities[local]};
            }
          }
        }
      });
      size_ += count;
    }
    // The most the list has held: it never grows past an overflow.
    obs::GaugeMax("survivors.bytes.peak",
                  static_cast<double>(size_ * sizeof(RetainedCandidate)));
  }

 private:
  size_t max_entries_;
  size_t size_ = 0;
  std::vector<std::vector<RetainedCandidate>> parts_;
  bool overflowed_ = false;
};

}  // namespace

struct StreamingExecutor::ShardArena {
  static constexpr size_t kBytesPerPair =
      sizeof(CandidatePair) + sizeof(double);

  std::vector<CandidatePair> pairs;
  std::vector<double> probabilities;

  /// Bytes the arena's buffers hold (capacity: they are reused across
  /// shards, so this is the high-water mark so far).
  size_t Bytes() const {
    return pairs.capacity() * sizeof(CandidatePair) +
           probabilities.capacity() * sizeof(double);
  }
};

StreamingExecutor::StreamingExecutor(const StreamingDataset& dataset,
                                     StreamingOptions options)
    : dataset_(dataset), options_(options) {
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
                                  const std::vector<double>* lcp,
                                  ShardArena* arena,
                                  StreamingResult* timings) const {
  // Pairs, features and classify interleave per pivot tile inside each
  // worker, so the fill's wall time is split over the three phases by the
  // workers' busy tallies.
  {
    obs::FusedPhases phases(&timings->phases, obs::Phase::kPairs);
    ScoreCandidateRange(*dataset_.index, dataset_.pivot_offsets,
                        shard.first_index, shard.end_index, config.features,
                        model, config.execution.num_threads, lcp,
                        &arena->pairs, &arena->probabilities, phases.busy());
  }
  obs::GaugeMax("arena.bytes.peak", static_cast<double>(arena->Bytes()));
}

StreamingResult StreamingExecutor::Run(const MetaBlockingConfig& config,
                                       const RetainedSink& sink) const {
  const EntityIndex& index = *dataset_.index;
  const uint64_t n64 = dataset_.num_candidates();
  if (n64 > std::numeric_limits<uint32_t>::max()) {
    throw std::runtime_error(
        "StreamingExecutor: candidate count exceeds the 32-bit pair index "
        "space shared with the batch path");
  }
  const auto n = static_cast<size_t>(n64);
  const std::vector<ChunkRange> chunks = DeterministicChunks(n);

  StreamingResult result;
  const std::vector<ShardSlice> shards =
      PlanShards(chunks.size(), config.features.Dimensions());
  result.num_shards_used = shards.size();
  for (const ShardSlice& shard : shards) {
    result.max_shard_candidates = std::max(
        result.max_shard_candidates, shard.end_index - shard.first_index);
  }

  // ---- LCP once, reused by every per-shard extraction. ----
  static const std::vector<CandidatePair> kNoPairs;
  std::vector<double> lcp;
  const std::vector<double>* lcp_ptr = nullptr;
  if (config.features.Contains(Feature::kLcp)) {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kFeatures);
    lcp = FeatureExtractor(index, kNoPairs)
              .ComputeLcpPerEntity(config.execution.num_threads);
    lcp_ptr = &lcp;
  }

  // ---- Training: the batch path's sample, its rows and fit. ----
  const TrainedClassifier trained =
      TrainClassifier(dataset_, config, lcp_ptr, &result.phases);
  const ProbabilisticClassifier& model = *trained.model;
  result.training_size = trained.training_size;
  result.model_coefficients = model.CoefficientsWithIntercept();

  // ---- Pruning context, identical to the batch path's. ----
  PruningContext context =
      PruningContext::FromIndex(index, dataset_.stats);
  context.blast_ratio = config.blast_ratio;
  context.validity_threshold = config.validity_threshold;
  context.execution = config.execution;

  std::unique_ptr<PruningAggregator> aggregator =
      MakePruningAggregator(config.pruning, chunks.size(), context);
  ShardArena arena;
  // A weight-based kind spread over several shards keeps its above-floor
  // pairs for emission, in at most one full arena's bytes. (At one shard
  // the arena itself stays resident.)
  std::optional<SurvivorList> survivors;
  if (aggregator->needs_accumulation() &&
      !aggregator->emits_from_aggregates() && shards.size() > 1) {
    survivors.emplace(result.max_shard_candidates * ShardArena::kBytesPerPair /
                      sizeof(RetainedCandidate));
  }

  // ---- Sweep 1: accumulate per-chunk aggregates, folding after each
  // shard — the identical fold sequence PruneWithAggregator performs. ----
  if (aggregator->needs_accumulation()) {
    ++result.sweeps;
    for (const ShardSlice& shard : shards) {
      FillArena(shard, config, model, lcp_ptr, &arena, &result);
      obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
      // Per-shard accumulate+fold latency feeds the fold-time histogram the
      // streaming bench reports percentiles from.
      GSMB_SPAN("shard.fold", "stream.shard.fold_us");
      const size_t shard_chunks = shard.chunk_end - shard.chunk_begin;
      ParallelFor(shard_chunks, config.execution.num_threads,
                  [&](size_t begin, size_t end) {
                    std::unique_ptr<AggregatorScratch> scratch =
                        aggregator->MakeScratch();
                    for (size_t sc = begin; sc < end; ++sc) {
                      const size_t c = shard.chunk_begin + sc;
                      PairChunkView view;
                      view.chunk_index = c;
                      view.first_index = chunks[c].begin;
                      view.pairs = arena.pairs.data() +
                                   (chunks[c].begin - shard.first_index);
                      view.probabilities =
                          arena.probabilities.data() +
                          (chunks[c].begin - shard.first_index);
                      view.count = chunks[c].end - chunks[c].begin;
                      aggregator->AccumulateChunk(view, scratch.get());
                    }
                  });
      aggregator->FoldChunks(shard.chunk_begin, shard.chunk_end);
      if (survivors) {
        survivors->Append(shard.first_index, arena.pairs, arena.probabilities,
                          context.validity_threshold,
                          config.execution.num_threads);
      }
    }
    {
      obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
      aggregator->Finalize();
    }
  }

  // ---- Emit the retained set, ascending by global index. ----
  size_t retained_count = 0;
  size_t true_positives = 0;
  auto emit = [&](uint32_t idx, const CandidatePair& pair,
                  double probability) {
    ++retained_count;
    if (dataset_.ground_truth.IsMatch(pair.left, pair.right)) {
      ++true_positives;
    }
    if (config.keep_retained) result.retained_indices.push_back(idx);
    if (sink) sink(idx, pair, probability);
  };

  if (aggregator->emits_from_aggregates()) {
    // Cardinality kinds: the folded top-k structures hold the retained
    // candidates, pairs included.
    obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
    for (const RetainedCandidate& c : aggregator->TakeRetained()) {
      emit(c.index, c.pair, c.probability);
    }
  } else if (survivors && !survivors->overflowed()) {
    // Weight-based kinds: the finalized thresholds apply to sweep 1's
    // above-floor pairs, which are every pair Keep() can accept.
    obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
    for (const std::vector<RetainedCandidate>& part : survivors->parts()) {
      for (const RetainedCandidate& c : part) {
        if (aggregator->Keep(c.index, c.pair, c.probability)) {
          emit(c.index, c.pair, c.probability);
        }
      }
    }
  } else {
    // BCl's only sweep, or the weight-based kinds' second sweep when their
    // survivors overflowed: fill each shard and apply Keep(); per-chunk
    // keeps merge in chunk order, so emission is ascending and equals the
    // batch ChunkedRetain exactly. A single shard filled by sweep 1 is
    // still resident: the thresholds apply to it as it is, and no second
    // fill is needed.
    const bool resident =
        shards.size() == 1 && aggregator->needs_accumulation();
    if (!resident) ++result.sweeps;
    for (const ShardSlice& shard : shards) {
      if (!resident) {
        FillArena(shard, config, model, lcp_ptr, &arena, &result);
      }
      obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
      const size_t shard_chunks = shard.chunk_end - shard.chunk_begin;
      std::vector<std::vector<uint32_t>> parts(shard_chunks);
      ParallelFor(shard_chunks, config.execution.num_threads,
                  [&](size_t begin, size_t end) {
                    for (size_t sc = begin; sc < end; ++sc) {
                      const size_t c = shard.chunk_begin + sc;
                      for (size_t i = chunks[c].begin; i < chunks[c].end;
                           ++i) {
                        const size_t local = i - shard.first_index;
                        if (aggregator->Keep(i, arena.pairs[local],
                                             arena.probabilities[local])) {
                          parts[sc].push_back(static_cast<uint32_t>(i));
                        }
                      }
                    }
                  });
      for (const std::vector<uint32_t>& part : parts) {
        for (uint32_t idx : part) {
          const size_t local = idx - shard.first_index;
          emit(idx, arena.pairs[local], arena.probabilities[local]);
        }
      }
    }
  }

  obs::CounterAdd("pairs.generated", n64);
  obs::CounterAdd("pairs.retained", retained_count);

  result.metrics = MetricsFromCounts(true_positives, retained_count,
                                     dataset_.ground_truth.size());
  // The legacy *_seconds fields are views of the phase clock.
  result.generate_seconds = result.phases.Get(obs::Phase::kPairs);
  result.feature_seconds = result.phases.Get(obs::Phase::kFeatures);
  result.train_seconds = result.phases.Get(obs::Phase::kTrain);
  result.classify_seconds = result.phases.Get(obs::Phase::kClassify);
  result.prune_seconds = result.phases.Get(obs::Phase::kPrune);
  result.total_seconds = result.generate_seconds + result.feature_seconds +
                         result.train_seconds + result.classify_seconds +
                         result.prune_seconds;
  return result;
}

}  // namespace gsmb
