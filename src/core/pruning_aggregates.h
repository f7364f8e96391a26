// Chunk-decomposed pruning: the shared accumulation machinery behind both
// the in-memory PruningAlgorithm (core/pruning.h) and the executor every
// batch and streaming job runs (stream/streaming_executor.cc).
//
// Every pruning algorithm decomposes into three phases over the global
// candidate space [0, num_candidates):
//
//   1. Accumulate — per-chunk partial aggregates (probability sums, per-node
//      contributions, the chunk's valid rows). Chunks are the fixed-grain
//      table of DeterministicChunks(num_candidates), so chunk boundaries
//      depend only on the candidate count — never on the thread count or on
//      how the candidate space is sliced into shards.
//   2. Fold — partial aggregates merge into global state in ascending chunk
//      order. Floating-point addition is not associative, so this fixed fold
//      order is what makes PruneWithAggregator, the executor, and every
//      thread/shard count produce bit-identical aggregates.
//   3. Decide — either a stateless per-pair predicate (weight-based kinds),
//      applied after Finalize() to every pair it could keep, or the
//      cardinality kinds' row list: the fold appends each chunk's valid
//      rows, pairs included, in index order and compacts the list to its
//      budgets' top-k whenever it passes twice their total, and
//      TakeRetained() compacts it once more with the kind's requirement
//      (either endpoint for CEP/CNP, both for RCNP). The predicate is false
//      below the validity threshold, so the executor applies it only to the
//      above-floor pairs it kept from the first sweep; it sweeps the
//      candidates a second time only when those overflow their memory cap.
//
// Every aggregator skips the rows below the validity threshold, so a chunk
// may hold only the rows at or above it (the executor's shards hold nothing
// else unless the job keeps every probability), each carrying its global
// index: every aggregator then folds exactly the rows it would fold from
// the full chunk, in the same order.
//
// PruneWithAggregator takes every pair and probability in memory (the
// feature-matrix path, RunMetaBlockingWithFeatures, and PruningAlgorithm);
// the executor feeds the same aggregator one shard-sized slice of chunks
// at a time and folds after each shard, which is the identical fold
// sequence. That shared code path — not a parallel reimplementation — is
// the bit-identity guarantee.

#ifndef GSMB_CORE_PRUNING_AGGREGATES_H_
#define GSMB_CORE_PRUNING_AGGREGATES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "blocking/candidate_pairs.h"
#include "core/pruning.h"

namespace gsmb {

/// One deterministic chunk of the candidate space: its rows in ascending
/// global candidate index. Without `indices` the chunk is whole and row j
/// is candidate `first_index` + j (in PruneWithAggregator the offset into
/// the full arrays; in the executor the arrays are shard-local slices).
/// With `indices`, row j is candidate indices[j], and the chunk may omit
/// any rows below the validity threshold.
struct PairChunkView {
  size_t chunk_index = 0;  ///< position in the global chunk table
  size_t first_index = 0;  ///< global candidate index of pairs[0]
  const uint32_t* indices = nullptr;  ///< per-row global indices, optional
  const CandidatePair* pairs = nullptr;
  const double* probabilities = nullptr;
  size_t count = 0;

  /// Global candidate index of row j.
  size_t IndexOf(size_t j) const {
    return indices != nullptr ? indices[j] : first_index + j;
  }
};

/// A candidate with its pair and the probability that retained it, so
/// callers can emit it without regenerating or re-scoring the pair.
struct RetainedCandidate {
  uint32_t index = 0;
  CandidatePair pair{};
  double probability = 0.0;
};

/// Per-worker scratch reused across the chunks one worker accumulates
/// (dense per-node arrays). Opaque to callers.
class AggregatorScratch {
 public:
  virtual ~AggregatorScratch() = default;
};

class PruningAggregator {
 public:
  virtual ~PruningAggregator() = default;

  /// False for BCl: the keep decision is stateless, no aggregation pass is
  /// needed at all.
  virtual bool needs_accumulation() const { return true; }

  /// True for CEP/CNP/RCNP: the retained set, pairs included, is taken
  /// from the folded row list via TakeRetained(); Keep() is unused and no
  /// second pass over the candidates is required.
  virtual bool emits_from_aggregates() const { return false; }

  virtual std::unique_ptr<AggregatorScratch> MakeScratch() const {
    return nullptr;
  }

  /// Accumulates one chunk's partial aggregates. Thread-safe across
  /// DISTINCT chunks (each chunk owns its output slot). Within a chunk the
  /// sweep runs in ascending candidate order.
  virtual void AccumulateChunk(const PairChunkView& chunk,
                               AggregatorScratch* scratch) = 0;

  /// Folds the partial aggregates of chunks [chunk_begin, chunk_end) into
  /// the global state and releases them. Calls must be sequential, with
  /// ascending non-overlapping ranges that jointly cover every chunk.
  virtual void FoldChunks(size_t chunk_begin, size_t chunk_end) = 0;

  /// Called once, after the last FoldChunks().
  virtual void Finalize() {}

  /// Weight-based decision for candidate `global_index` (valid only after
  /// Finalize()). Pure and thread-safe. Always false when `probability` is
  /// below the context's validity_threshold: the executor relies on that to
  /// apply Keep() to the above-floor pairs of its first sweep only, and
  /// PruningSweep.AllRetainedAreValid pins it for PruneWithAggregator.
  virtual bool Keep(size_t global_index, const CandidatePair& pair,
                    double probability) const = 0;

  /// Cardinality kinds: moves out the retained set with its pairs,
  /// ascending by index. Called once, after Finalize().
  virtual std::vector<RetainedCandidate> TakeRetained() { return {}; }
};

/// `num_chunks` must equal DeterministicChunks(num_candidates).size(). The
/// context is captured by value (num_nodes, thresholds, budgets, ratio).
std::unique_ptr<PruningAggregator> MakePruningAggregator(
    PruningKind kind, size_t num_chunks, const PruningContext& context);

/// The fully in-memory driver PruningAlgorithm::Prune delegates to:
/// accumulate all chunks in parallel, fold once in chunk order, then decide.
/// Bit-identical for any `context.execution.num_threads`.
std::vector<uint32_t> PruneWithAggregator(
    PruningKind kind, const std::vector<CandidatePair>& pairs,
    const std::vector<double>& probabilities, const PruningContext& context);

}  // namespace gsmb

#endif  // GSMB_CORE_PRUNING_AGGREGATES_H_
