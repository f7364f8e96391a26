// StreamingExecutor: bounded-memory, out-of-core execution of the full
// weight -> classify -> prune pipeline.
//
// The batch path (RunMetaBlocking) holds the candidate set, its labels
// and the probability vector in RAM at once — O(|C|) each, which caps it
// well below the paper's X10 scalability series. The executor instead
// slices the GLOBAL candidate order into contiguous, chunk-aligned shards
// and drains them one at a time through an arena that holds only the
// shard's kept rows — the candidates at or above the validity threshold,
// the only ones any pruning kind weighs, each with its global index, pair
// and probability (at a threshold <= 0, every candidate, indices
// implicit):
//
//   fill the arena in one pass (ScoreCandidateRange, core/features.h:
//   each pivot's blocks are swept once, yielding its neighbours and their
//   feature sums; each tile of rows is scored while it is in cache, the
//   link evaluated only where it can clear the threshold)
//   -> feed the shard's chunks of kept rows to the pruning aggregator
//   -> fold -> next shard
//
// No per-shard feature matrix exists. The fill's pairs, features and
// classify phases interleave inside each worker, so their seconds are
// attributed shares of the fill's wall time (obs::AttributeFusedRegion).
//
// Pruning algorithms that need global per-entity state (WEP's mean, WNP's
// and BLAST's per-node aggregates) can only decide after the last fold.
// Their Keep() is false below the validity threshold, so a shard's kept
// rows are every pair they can accept: each shard's rows but the last move
// into a survivor list, and emission applies the finalized thresholds to
// the list and to the resident last shard (at one shard, to the arena
// alone). The list is capped so that it and one arena stay within
// StreamingArenaBytesPerPair(1) bytes per candidate of the largest shard;
// when it overflows (always, for a validity threshold <= 0 over more than
// one shard) it is dropped and a second sweep re-scores each shard
// instead. BCl emits each shard's kept rows during the one sweep, and the
// cardinality kinds (CEP/CNP/RCNP) emit straight from their folded top-k
// structures, whose entries carry their pairs. Peak memory is O(largest
// shard + |E| + aggregates), never O(|C|).
//
// Bit-identity. The retained set equals RunMetaBlocking's for EVERY shard
// count and thread count, by construction rather than by luck:
//   * shards are whole numbers of the same DeterministicChunks the batch
//     pruners use, processed in ascending order, so per-chunk partials
//     fold in exactly the batch fold order (floating-point addition is not
//     associative — this ordering is the load-bearing invariant);
//   * a feature row is a pure function of (pivot, neighbour) and the
//     global EntityIndex, so per-shard scoring reproduces the rows and
//     probabilities of the batch sweep bit for bit (core/features.cc
//     sweeps the pivot's blocks identically regardless of which rows are
//     requested, and a pivot cut by a shard boundary is swept by both);
//   * training is the batch path's TrainClassifier (core/pipeline.h):
//     the same balanced sample over the same positive indices, its rows
//     from the same SampledFeatureRows (core/features.h) with the pairs
//     regenerated instead of read from a list — same rows, same row order
//     — so the fitted model is identical.
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
#include "core/features.h"
#include "core/pipeline.h"
#include "stream/streaming_dataset.h"

namespace gsmb {

/// Arena bytes one candidate may occupy while a shard is resident, plus
/// slack for the per-chunk aggregation partials. PlanShards sizes shards
/// with this, and the Engine's `auto` mode uses the SAME model to decide
/// batch vs streaming — one function so the two can never drift apart.
///
/// An upper bound: it counts a feature row (8·d bytes) per pair that the
/// arena does not hold — the arena holds at most a kept row per candidate
/// (kKeptRowBytes; 16 bytes when every candidate is kept and indices are
/// implicit). The model also covers the weight-based kinds' survivor list,
/// which is capped at the rest of StreamingArenaBytesPerPair(1): arena and
/// survivors together hold at most 32 bytes per candidate of the largest
/// shard, within 24 + 8·d for every d >= 1. Shrinking the model would move
/// `auto`'s choice and the
/// shard counts of budgeted runs: the 20,531-candidate fixture of
/// EngineAuto.TinyBudgetResolvesToStreamingWithSameAnswer needs 1.15 MB at
/// 56 B/pair but 0.49 MB at 24 B/pair against its 1 MiB budget, so it
/// would resolve to batch. That change deserves its own measurement.
inline constexpr uint64_t StreamingArenaBytesPerPair(size_t feature_dims) {
  return sizeof(CandidatePair) + 8ull * feature_dims + 8 + 8;
}

/// Bytes of one kept row with its index: the 32-bit global candidate index,
/// the pair and the probability (ScoredCandidates, core/features.h).
inline constexpr size_t kKeptRowBytes =
    sizeof(uint32_t) + sizeof(CandidatePair) + sizeof(double);

struct StreamingOptions {
  /// Number of contiguous, chunk-aligned slices of the candidate space.
  /// More shards = smaller arena = lower peak memory (and slightly more
  /// per-shard overhead). Clamped to the number of chunks; results are
  /// identical for ANY value.
  size_t num_shards = 16;
  /// When > 0, the shard count is raised (never lowered) until one shard's
  /// arena, as StreamingArenaBytesPerPair models it, fits this budget. The
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
  /// Generate, feature and classify seconds are attributed shares of the
  /// fused shard fills (obs::AttributeFusedRegion).
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
  size_t max_shard_candidates = 0;  ///< candidates of the largest shard
  /// Passes over the candidate space that fill the arena: 1 for every kind,
  /// or 2 for a weight-based kind whose above-floor survivors overflowed
  /// their cap at more than one shard (e.g. validity_threshold <= 0), which
  /// re-scores each shard to apply its thresholds.
  size_t sweeps = 0;
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

  std::vector<ShardSlice> PlanShards(size_t num_chunks,
                                     size_t feature_dims) const;
  /// Fills `arena` with the kept rows of candidates [shard.first_index,
  /// shard.end_index) — those at or above config.validity_threshold — in
  /// one ScoreCandidateRange pass, adding its attributed
  /// pairs/features/classify seconds to `timings`.
  void FillArena(const ShardSlice& shard, const MetaBlockingConfig& config,
                 const ProbabilisticClassifier& model,
                 const std::vector<double>* lcp, ScoredCandidates* arena,
                 StreamingResult* timings) const;

  const StreamingDataset& dataset_;
  StreamingOptions options_;
};

}  // namespace gsmb

#endif  // GSMB_STREAM_STREAMING_EXECUTOR_H_
