// Candidate pairs: the distinct set of comparisons C implied by a
// redundancy-positive block collection (paper Section 2).
//
// Aggregating, per entity, every co-occurring entity removes the redundant
// comparisons that plague redundancy-positive blocks; what remains is the
// candidate set that Meta-blocking scores and prunes.

#ifndef GSMB_BLOCKING_CANDIDATE_PAIRS_H_
#define GSMB_BLOCKING_CANDIDATE_PAIRS_H_

#include <bit>
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
/// ascending. Complexity O(Σ ||b|| + |C|), plus |E|/2^18 words per pivot:
/// each pivot's neighbours drain from an AscendingIdSet, with no sort.
/// `num_threads` > 1
/// parallelises over fixed-grain pivot chunks that workers claim one at a
/// time (Dirty-ER pivots near the start carry most of the work); the result
/// is bit-identical to the serial sweep.
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

/// A set of ids below a fixed universe size that drains in ascending order,
/// with no comparison sort: one leaf bit per id, a summary bit per 64-bit
/// leaf word that has any bit set, and a top bit per summary word that has
/// any bit set. Insert is O(1); Drain walks the set bits level by level, so
/// it visits only non-empty words (plus the |universe|/2^18 top words) and
/// costs O(ids) whether they are dense or sparse in the universe. Drain
/// leaves the set empty, so one instance per worker serves pivot after
/// pivot.
class AscendingIdSet {
 public:
  /// Ids must be below `universe`.
  explicit AscendingIdSet(size_t universe)
      : leaves_((universe + 63) / 64, 0),
        summary_((leaves_.size() + 63) / 64, 0),
        top_((summary_.size() + 63) / 64, 0) {}

  /// Adds `id`; a repeated id is a no-op. Sets the id's bit at every level
  /// without testing whether the level above already has it: a test on
  /// the leaf word mispredicts about as often as it saves a write.
  void Insert(uint32_t id) {
    leaves_[id >> 6] |= uint64_t{1} << (id & 63);
    summary_[id >> 12] |= uint64_t{1} << ((id >> 6) & 63);
    top_[id >> 18] |= uint64_t{1} << ((id >> 12) & 63);
  }

  /// Calls emit(id) for every id in ascending order and empties the set.
  template <typename Emit>
  void Drain(const Emit& emit) {
    for (size_t t = 0; t < top_.size(); ++t) {
      for (uint64_t tops = top_[t]; tops != 0; tops &= tops - 1) {
        const size_t s = t * 64 + std::countr_zero(tops);
        for (uint64_t live = summary_[s]; live != 0; live &= live - 1) {
          const size_t leaf = s * 64 + std::countr_zero(live);
          for (uint64_t bits = leaves_[leaf]; bits != 0; bits &= bits - 1) {
            emit(static_cast<uint32_t>(leaf * 64 + std::countr_zero(bits)));
          }
          leaves_[leaf] = 0;
        }
        summary_[s] = 0;
      }
      top_[t] = 0;
    }
  }

  /// Calls emit(id, rank) for every id marked in `marked` — one bit per id
  /// of the universe, a subset of this set's ids — in ascending order,
  /// where rank is the number of this set's ids below id, and empties the
  /// set and `marked`. Walks this set's non-empty words, so it costs
  /// O(words) plus one popcount per emitted id, not O(ids).
  template <typename Emit>
  void DrainRanked(uint64_t* marked_leaves, const Emit& emit) {
    uint64_t* leaves = leaves_.data();
    size_t rank = 0;
    for (size_t t = 0; t < top_.size(); ++t) {
      for (uint64_t tops = top_[t]; tops != 0; tops &= tops - 1) {
        const size_t s = t * 64 + std::countr_zero(tops);
        for (uint64_t live = summary_[s]; live != 0; live &= live - 1) {
          const size_t leaf = s * 64 + std::countr_zero(live);
          const uint64_t bits = leaves[leaf];
          if (const uint64_t marked = marked_leaves[leaf]; marked != 0) {
            for (uint64_t m = marked; m != 0; m &= m - 1) {
              const int bit = std::countr_zero(m);
              emit(static_cast<uint32_t>(leaf * 64 + bit),
                   rank + Popcount(bits & ((uint64_t{1} << bit) - 1)));
            }
            marked_leaves[leaf] = 0;
          }
          rank += Popcount(bits);
          leaves[leaf] = 0;
        }
        summary_[s] = 0;
      }
      top_[t] = 0;
    }
  }

 private:
  /// std::popcount without a POPCNT instruction (baseline x86-64) calls
  /// into libgcc; this inlines the same count.
  static size_t Popcount(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<size_t>((x * 0x0101010101010101ULL) >> 56);
  }

  std::vector<uint64_t> leaves_;
  std::vector<uint64_t> summary_;
  std::vector<uint64_t> top_;
};

/// Enumerates one pivot entity's distinct candidate neighbours — the exact
/// per-pivot step of GenerateCandidatePairs, exposed so shard-scoped
/// iteration (stream/) can regenerate any contiguous slice of the global
/// candidate order without materialising the whole set. Holds an
/// AscendingIdSet over the entities, so one instance per worker thread
/// amortises the O(|E|/64) allocation across pivots.
class PivotNeighbourGenerator {
 public:
  explicit PivotNeighbourGenerator(const EntityIndex& index);

  /// Fills `neighbours` (replacing its contents) with the pivot's candidate
  /// partners as LOCAL right-side ids, ascending — exactly the `right` ids
  /// GenerateCandidatePairs emits for this pivot, in the same order.
  void Generate(size_t pivot, std::vector<EntityId>* neighbours);

 private:
  const EntityIndex& index_;
  AscendingIdSet neighbours_;
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
