// StreamingExecutor: bounded-memory, out-of-core execution of the full
// weight -> classify -> prune pipeline.
//
// The batch path (RunMetaBlocking) holds the candidate set, its labels
// and the probability vector in RAM at once — O(|C|) each, which caps it
// well below the paper's X10 scalability series. (It scores candidates in
// one fused sweep and never holds a feature matrix; this executor still
// keeps each shard's feature rows in its arena.) The executor
// instead slices the GLOBAL candidate order into contiguous, chunk-aligned
// shards and drains them one at a time through a reusable arena:
//
//   regenerate shard pairs -> features (core/features.cc, global index)
//   -> classify -> feed the shard's chunks to the pruning aggregator
//   -> fold -> next shard
//
// Pruning algorithms that need global per-entity state (WEP's mean, WNP's
// and BLAST's per-node aggregates) take a second sweep that re-scores each
// shard and applies the finalized thresholds; BCl needs one sweep and the
// cardinality kinds (CEP/CNP/RCNP) emit straight from their folded top-k
// structures. Peak memory is O(largest shard + |E| + aggregates), never
// O(|C|).
//
// Bit-identity. The retained set equals RunMetaBlocking's for EVERY shard
// count and thread count, by construction rather than by luck:
//   * shards are whole numbers of the same DeterministicChunks the batch
//     pruners use, processed in ascending order, so per-chunk partials
//     fold in exactly the batch fold order (floating-point addition is not
//     associative — this ordering is the load-bearing invariant);
//   * a feature row is a pure function of (pivot, neighbour) and the
//     global EntityIndex, so per-shard extraction reproduces the rows the
//     batch sweep scores bit for bit (core/features.cc sweeps the pivot's
//     blocks identically regardless of which rows are requested);
//   * the trainer draws the batch path's balanced sample with the same
//     SampleBalanced (ml/sampler.h), from the positive indices instead of
//     a label byte per candidate, and extracts its rows with the same
//     SampledFeatureRows (core/features.h) — same rows, same row order —
//     so the fitted model is identical.
//
// Deliberate departure from the serving layer (serve/session.h): serving
// hash-shards TOKENS so a shard is refreshable in isolation; here shards
// must replay the batch fold order, so they are contiguous chunk-aligned
// slices of the candidate space instead. The shared discipline is the
// bounded per-shard arena, not the hash.

#ifndef GSMB_STREAM_STREAMING_EXECUTOR_H_
#define GSMB_STREAM_STREAMING_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "blocking/candidate_pairs.h"
#include "core/pipeline.h"
#include "stream/streaming_dataset.h"

namespace gsmb {

/// Arena bytes one candidate occupies while a shard is resident: the pair,
/// its feature row, its probability, plus slack for the per-chunk
/// aggregation partials. PlanShards sizes shards with this, and the
/// Engine's `auto` mode uses the SAME model to decide batch vs streaming —
/// one function so the two can never drift apart.
inline constexpr uint64_t StreamingArenaBytesPerPair(size_t feature_dims) {
  return sizeof(CandidatePair) + 8ull * feature_dims + 8 + 8;
}

struct StreamingOptions {
  /// Number of contiguous, chunk-aligned slices of the candidate space.
  /// More shards = smaller arena = lower peak memory (and slightly more
  /// per-shard overhead). Clamped to the number of chunks; results are
  /// identical for ANY value.
  size_t num_shards = 16;
  /// When > 0, the shard count is raised (never lowered) until one shard's
  /// arena — pairs + feature rows + probabilities — fits this budget. The
  /// budget covers the arena, not the resident EntityIndex/aggregates,
  /// which are O(|E|) and shared with the batch path.
  size_t memory_budget_mb = 0;
};

struct StreamingResult {
  EffectivenessMetrics metrics;
  /// Phase-time breakdown from the telemetry clock (obs::ScopedPhase);
  /// the `*_seconds` fields below are views of it.
  obs::PhaseTimings phases;
  /// RT components, seconds. `generate_seconds` (pair regeneration, a cost
  /// the batch path pays during preparation instead) is included in
  /// `total_seconds` so streaming-vs-batch wall-clock comparisons are fair.
  double generate_seconds = 0.0;
  double feature_seconds = 0.0;
  double train_seconds = 0.0;
  double classify_seconds = 0.0;
  double prune_seconds = 0.0;
  double total_seconds = 0.0;
  size_t training_size = 0;
  /// Classifier coefficients in raw feature space, intercept last —
  /// bit-identical to the batch path's.
  std::vector<double> model_coefficients;
  /// Populated only when config.keep_retained is set (it is O(retained)).
  std::vector<uint32_t> retained_indices;

  // Execution shape, for benches and diagnostics.
  size_t num_shards_used = 0;
  size_t max_shard_candidates = 0;  ///< arena high-water mark, in pairs
  size_t sweeps = 0;                ///< full passes over the candidate space
};

class StreamingExecutor {
 public:
  /// Receives every retained candidate in ascending global-index order:
  /// its index in the batch candidate order, the pair, and the classifier
  /// probability that retained it. Runs on the calling thread.
  using RetainedSink =
      std::function<void(uint32_t index, const CandidatePair& pair,
                         double probability)>;

  /// Throws std::invalid_argument when `options` is unusable (no shards
  /// and no memory budget).
  StreamingExecutor(const StreamingDataset& dataset, StreamingOptions options);

  /// Runs one configuration end to end. The retained set — and therefore
  /// metrics and coefficients — is bit-identical to
  /// RunMetaBlocking(PreparedDataset, config) on the same input blocks,
  /// for any shard/thread combination.
  StreamingResult Run(const MetaBlockingConfig& config) const {
    return Run(config, RetainedSink());
  }
  StreamingResult Run(const MetaBlockingConfig& config,
                      const RetainedSink& sink) const;

 private:
  struct ShardSlice {
    size_t chunk_begin = 0;  // [chunk_begin, chunk_end) of the chunk table
    size_t chunk_end = 0;
    size_t first_index = 0;  // [first_index, end_index) candidate indices
    size_t end_index = 0;
  };

  /// The shard's reusable buffers; one live instance per Run().
  struct ShardArena;

  std::vector<ShardSlice> PlanShards(size_t num_chunks,
                                     size_t feature_dims) const;
  /// Regenerates pairs [shard.first_index, shard.end_index), extracts
  /// features and classifies them into `arena`.
  void FillArena(const ShardSlice& shard, const MetaBlockingConfig& config,
                 const ProbabilisticClassifier& model,
                 const std::vector<double>* lcp, ShardArena* arena,
                 StreamingResult* timings) const;

  const StreamingDataset& dataset_;
  StreamingOptions options_;
};

}  // namespace gsmb

#endif  // GSMB_STREAM_STREAMING_EXECUTOR_H_
