// Supervised pruning algorithms (paper Section 3).
//
// Every algorithm receives the candidate pairs and the matching probability
// the trained classifier assigned to each pair, and returns the indices of
// the retained pairs. Candidates with probability below the validity
// threshold (0.5 in the paper) are always discarded; the algorithms differ
// in how they prune the remaining *valid* pairs:
//
//   weight-based  — keep pairs above a probability threshold:
//     BCl   keep every valid pair (the binary-classifier baseline of [21])
//     WEP   global average of valid probabilities
//     WNP   per-node average; keep if above EITHER endpoint's average
//     RWNP  per-node average; keep if above BOTH endpoints' averages
//     BLAST keep if p >= r * (max_i + max_j), r = 0.35
//
//   cardinality-based — keep a bounded number of top-weighted pairs:
//     CEP   global top-K,  K = Σ|b| / 2
//     CNP   per-node top-k, keep if in EITHER endpoint's top-k,
//           k = max(1, Σ|b| / #entities)
//     RCNP  keep if in BOTH endpoints' top-k.
//
//   Ranks order pairs by probability, ties going to the smaller index, so
//   every top-k is unique.
//
// The same implementations double as *unsupervised* meta-blocking when fed
// scheme weights instead of probabilities with validity_threshold <= 0 (see
// core/unsupervised.h).

#ifndef GSMB_CORE_PRUNING_H_
#define GSMB_CORE_PRUNING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blocking/block_stats.h"
#include "blocking/candidate_pairs.h"
#include "blocking/entity_index.h"
#include "gsmb/execution.h"

namespace gsmb {

enum class PruningKind {
  kBCl,    // baseline binary classifier (approximates WEP) [21]
  kWep,    // Weighted Edge Pruning
  kWnp,    // Weighted Node Pruning
  kRwnp,   // Reciprocal Weighted Node Pruning
  kBlast,  // BLAST (max-based node pruning)
  kCep,    // Cardinality Edge Pruning
  kCnp,    // Cardinality Node Pruning
  kRcnp,   // Reciprocal Cardinality Node Pruning
};

const char* PruningKindName(PruningKind kind);

/// True for WEP/WNP/... which promote recall; false for CEP/CNP/RCNP which
/// promote precision (paper Section 3).
bool IsWeightBased(PruningKind kind);

/// Everything a pruning algorithm needs to know about the graph besides the
/// per-pair probabilities.
struct PruningContext {
  /// Total node count: |E1| + |E2| (Clean-Clean) or |E| (Dirty).
  size_t num_nodes = 0;
  /// Offset added to CandidatePair::right to obtain its node id (|E1| for
  /// Clean-Clean, 0 for Dirty ER).
  size_t right_offset = 0;
  /// Pairs with probability below this are never retained (0.5 in the
  /// paper; set <= 0 to disable for unsupervised use).
  double validity_threshold = 0.5;
  /// CEP budget K = Σ|b| / 2.
  double cep_k = 0.0;
  /// CNP per-node budget k = max(1, Σ|b| / #entities).
  double cnp_k = 1.0;
  /// BLAST pruning ratio r.
  double blast_ratio = 0.35;
  /// Shared execution knobs (worker threads for the pruning sweeps). Every
  /// algorithm is parallelised over fixed-grain chunks with deterministic
  /// merges, so the retained set is bit-identical for any value.
  ExecutionOptions execution;

  /// Builds the context from a processed block collection's statistics.
  static PruningContext FromIndex(const EntityIndex& index,
                                  const BlockCollectionStats& stats);
};

/// One pruning kind over an in-memory candidate set. Every kind runs
/// through the chunk-decomposed aggregators of core/pruning_aggregates.h
/// (PruneWithAggregator), the code the executors drive shard by shard.
class PruningAlgorithm {
 public:
  explicit PruningAlgorithm(PruningKind kind) : kind_(kind) {}

  /// Returns the indices (ascending) of retained pairs. `probabilities[i]`
  /// is the classifier weight of `pairs[i]`.
  std::vector<uint32_t> Prune(const std::vector<CandidatePair>& pairs,
                              const std::vector<double>& probabilities,
                              const PruningContext& context) const;

  PruningKind kind() const { return kind_; }
  std::string Name() const { return PruningKindName(kind_); }

 private:
  PruningKind kind_;
};

std::unique_ptr<PruningAlgorithm> MakePruningAlgorithm(PruningKind kind);

/// All kinds, in the order the paper discusses them.
std::vector<PruningKind> AllPruningKinds();

/// Node id of each endpoint of a pair under `context`'s id mapping.
inline size_t LeftNode(const CandidatePair& p) { return p.left; }
inline size_t RightNode(const CandidatePair& p,
                        const PruningContext& context) {
  return context.right_offset + p.right;
}

}  // namespace gsmb

#endif  // GSMB_CORE_PRUNING_H_
