// Candidate pairs: the distinct set of comparisons C implied by a
// redundancy-positive block collection (paper Section 2).
//
// Aggregating, per entity, every co-occurring entity removes the redundant
// comparisons that plague redundancy-positive blocks; what remains is the
// candidate set that Meta-blocking scores and prunes.

#ifndef GSMB_BLOCKING_CANDIDATE_PAIRS_H_
#define GSMB_BLOCKING_CANDIDATE_PAIRS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "blocking/entity_index.h"
#include "er/entity_profile.h"
#include "er/ground_truth.h"

namespace gsmb {

/// Pivots per chunk of the parallel candidate sweeps: GenerateCandidatePairs
/// and stream/'s counting sweep. A pivot carries a whole neighbourhood of
/// work, so the grain is far finer than kDefaultChunkGrain, fine enough to
/// split a thousand pivots across workers. Chunk outputs concatenate in
/// chunk order, so no result depends on it.
inline constexpr size_t kPivotChunkGrain = 64;

/// One non-redundant comparison c_{i,j}. Ids are *local*: `left` indexes E1
/// and `right` indexes E2 for Clean-Clean ER; for Dirty ER both index the
/// single collection with left < right.
struct CandidatePair {
  EntityId left;
  EntityId right;

  bool operator==(const CandidatePair& other) const = default;
};

/// Generates the distinct candidate set C.
///
/// Order invariant (relied upon by FeatureExtractor): pairs are grouped by
/// `left` in ascending order and, within a group, sorted by `right`
/// ascending. Complexity O(Σ ||b|| + |C| log k) where k is the largest
/// neighbourhood. `num_threads` > 1 parallelises over fixed-grain pivot
/// chunks; the result is bit-identical to the serial sweep.
std::vector<CandidatePair> GenerateCandidatePairs(const EntityIndex& index,
                                                  size_t num_threads = 1);

/// Number of pivot entities the candidate sweep iterates: |E1| for
/// Clean-Clean ER (left entities pivot), |E| for Dirty ER.
size_t NumCandidatePivots(const EntityIndex& index);

/// The pivot owning global candidate index `index`, given the prefix sums
/// of the per-pivot candidate counts (size NumCandidatePivots + 1, as
/// stream/'s StreamingDataset::pivot_offsets holds them): the last pivot p
/// with pivot_offsets[p] <= index. `index` must be below the total.
size_t PivotOfCandidate(const std::vector<uint64_t>& pivot_offsets,
                        uint64_t index);

/// Enumerates one pivot entity's distinct candidate neighbours — the exact
/// per-pivot step of GenerateCandidatePairs, exposed so shard-scoped
/// iteration (stream/) can regenerate any contiguous slice of the global
/// candidate order without materialising the whole set. Holds the
/// epoch-marked scratch, so one instance per worker thread amortises the
/// O(|E|) allocation across pivots.
class PivotNeighbourGenerator {
 public:
  explicit PivotNeighbourGenerator(const EntityIndex& index);

  /// Fills `neighbours` (replacing its contents) with the pivot's candidate
  /// partners as LOCAL right-side ids, ascending — exactly the `right` ids
  /// GenerateCandidatePairs emits for this pivot, in the same order.
  void Generate(size_t pivot, std::vector<EntityId>* neighbours);

 private:
  const EntityIndex& index_;
  std::vector<uint32_t> last_seen_;
  uint32_t epoch_ = 0;
};

/// Resolves candidate indices to their pairs without the materialised
/// candidate set: a pivot's neighbour list is regenerated when the pivot
/// changes, so ascending queries (a training sample's, in the order
/// SampledFeatureRows asks for them) rebuild each pivot once.
class PairRegenerator {
 public:
  /// `pivot_offsets` as PivotOfCandidate takes them; both it and `index`
  /// must outlive the regenerator.
  PairRegenerator(const EntityIndex& index,
                  const std::vector<uint64_t>& pivot_offsets)
      : pivot_offsets_(pivot_offsets), generator_(index) {}

  /// The pair at global candidate index `index` (below the total).
  CandidatePair At(uint64_t index) {
    const size_t pivot = PivotOfCandidate(pivot_offsets_, index);
    if (pivot != current_pivot_) {
      generator_.Generate(pivot, &neighbours_);
      current_pivot_ = pivot;
    }
    return {static_cast<EntityId>(pivot),
            neighbours_[index - pivot_offsets_[pivot]]};
  }

 private:
  const std::vector<uint64_t>& pivot_offsets_;
  PivotNeighbourGenerator generator_;
  std::vector<EntityId> neighbours_;
  size_t current_pivot_ = std::numeric_limits<size_t>::max();
};

/// Number of candidate pairs that are matches according to `gt`.
size_t CountPositivePairs(const std::vector<CandidatePair>& pairs,
                          const GroundTruth& gt);

}  // namespace gsmb

#endif  // GSMB_BLOCKING_CANDIDATE_PAIRS_H_
