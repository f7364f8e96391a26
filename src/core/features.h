// FeatureExtractor: computes the weighting-scheme features of every
// candidate pair (paper Section 4).
//
// Definitions, with B_i the blocks of e_i, |b| the entities in block b and
// ||b|| the comparisons in block b (including redundant ones):
//
//   CF-IBF(i,j) = |B_i ∩ B_j| · log(|B|/|B_i|) · log(|B|/|B_j|)
//   RACCB(i,j)  = Σ_{b ∈ B_i ∩ B_j} 1/||b||
//   JS(i,j)     = |B_i ∩ B_j| / (|B_i| + |B_j| - |B_i ∩ B_j|)
//   LCP(e)      = |{ e_j : j ≠ i, |B_i ∩ B_j| > 0 }|   (two dims per pair)
//   EJS(i,j)    = JS(i,j) · log(||B||/||e_i||) · log(||B||/||e_j||)
//   WJS(i,j)    = Σ_{∩} 1/||b|| / (Σ_{B_i} 1/||b|| + Σ_{B_j} 1/||b|| - Σ_{∩} 1/||b||)
//   RS(i,j)     = Σ_{b ∈ B_i ∩ B_j} 1/|b|
//   NRS(i,j)    = Σ_{∩} 1/|b| / (Σ_{B_i} 1/|b| + Σ_{B_j} 1/|b| - Σ_{∩} 1/|b|)
//
// The row kernel. Everything except LCP is produced by one sweep that
// accumulates, per pivot entity, the per-neighbour sums (|B_i ∩ B_j|,
// Σ1/||b||, Σ1/|b|) over its blocks in ascending block id — O(Σ||b||)
// total — into one packed record per neighbour above the pivot (the only
// rows any pivot has). The pivot's rows are then evaluated a tile at a time
// (up to 128 rows in a stack buffer), one feature column per tight loop,
// from those sums and per-entity terms. The per-entity and per-block terms
// (FeatureTerms: LCP, the logarithms of CF-IBF and EJS, 1/||b|| and 1/|b|)
// are built once per run, not once per row or per call. Every value keeps
// the expression and evaluation order of the definitions above, so the bits
// do not depend on the tiling, the thread count or which of a pivot's rows
// are requested. LCP deliberately pays the extra per-entity
// distinct-candidate pass the paper describes as its cost, so feature-set
// runtime comparisons (Figs. 7/9/10) reproduce the paper's shape.
//
// The kernel has two consumers, both reading the same rows:
//   * Compute() copies every tile into a Matrix (tests, benches, serving,
//     training samples, through SampledFeatureRows);
//   * ScoreCandidateRange() is the executor's shard fill: the classifier
//     scores each tile's rows while they are still in cache and only the
//     pair and P(match) of each candidate that clears a floor are kept, so
//     scoring |C| candidates never allocates the |C|×d matrix. It reads each
//     pivot's neighbours from a resident pair list when one exists, and
//     otherwise needs no pair list at all — the sweep that accumulates a
//     pivot's sums also collects its neighbours, which drain in ascending
//     order from an AscendingIdSet.
//
// The floor is the validity threshold of the pruning that follows: every
// pruning kind weighs only pairs with P(match) >= floor. Each tile goes
// through ProbabilisticClassifier::PredictTile, which evaluates the link
// only for rows that can clear it. Above a floor of 0, a pivot's rows are
// first bounded, so most of them are never evaluated — the prefix filter of
// all-pairs similarity search (Bayardo, Ma and Srikant, WWW 2007), with the
// trained model supplying the weights. The pivot visits its blocks smallest
// first. A neighbour first met in block j of that order shares only blocks
// of the suffix j.., so its features lie in a box bounded by that suffix:
// its common-block count by the suffix's length, its sums by the suffix's
// sums (with a relative margin, since a row adds its terms in another
// order), its own per-entity terms by their range over the suffix's
// members. The model answers for each suffix's box
// (ProbabilisticClassifier::MayReachFloor), and only the neighbours met
// before the first suffix from which no box can reach the floor are found.
// One pass over the pivot's blocks in ascending block id then adds up the
// found neighbours' sums alone, with the sweep's additions in the sweep's
// order, and only the found rows are evaluated and classified. Each kept
// row keeps its global index: its position in the resident pair list or,
// without one, the pivot's offset plus its rank among the neighbour bits
// that same pass sets (AscendingIdSet::DrainRanked). A classifier without a
// bound, a floor <= 0, a pivot whose bound cuts nothing and one whose
// prefix holds more than half of its blocks' members run the full sweep.
// ScoreCandidateRange() therefore equals PredictBatch(Compute()) bit for
// bit at or above the floor, and for every row at a floor <= 0.
//
// Compute() parallelises over pivot-entity groups, ScoreCandidateRange()
// over pieces of equal candidate counts, a few per worker, claimed as
// workers free up (a pivot cut by a boundary is swept by both sides);
// either way each row is written once, so multi-threaded results are
// bit-identical to serial ones. ScoreCandidateRange() can tally its
// workers' busy seconds per phase for obs::AttributeFusedRegion.

#ifndef GSMB_CORE_FEATURES_H_
#define GSMB_CORE_FEATURES_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "blocking/candidate_pairs.h"
#include "blocking/entity_index.h"
#include "core/feature_set.h"
#include "util/matrix.h"

namespace gsmb {

class ProbabilisticClassifier;

namespace obs {
struct PhaseTimings;
}  // namespace obs

/// The per-entity and per-block terms the row kernel of one feature set
/// reads over one index. A run builds them once and passes them to every
/// call that extracts or scores rows of that set (the executor: its
/// training rows and every shard fill); a call given none builds its own.
///   * Per entity, as the set reads them: LCP, log(|B|/|B_i|) (CF-IBF) and
///     log(||B||/||e_i||) (EJS).
///   * Per block: 1/||b|| (0 for a block without comparisons) and 1/|b|,
///     the terms the sweep adds.
///   * With `block_bounds`, per block, the range over its candidate
///     members (its right side on Clean-Clean, every member on Dirty ER)
///     of each per-entity term the set reads: |B_q|, Σ_q 1/||b||,
///     Σ_q 1/|b|, the logarithms and LCP. ScoreCandidateRange's prefix
///     filter bounds a pivot's rows from these.
struct FeatureTerms {
  /// A closed range [lo, hi]; empty (lo > hi) until a value is added.
  struct Range {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();

    void Add(double value) {
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
    void Add(const Range& other) {
      lo = std::min(lo, other.lo);
      hi = std::max(hi, other.hi);
    }
  };

  /// The per-entity terms a block's members are ranged over.
  enum Term { kBlocks, kInvComparisons, kInvSizes, kLogIbf, kLogEjs, kLcp,
              kNumTerms };

  /// The terms one block contributes to a pivot's sums.
  struct BlockWeights {
    double inv_comparisons = 0.0;  // 1/||b||
    double inv_size = 0.0;         // 1/|b|
  };

  FeatureTerms(const EntityIndex& index, const FeatureSet& set,
               size_t num_threads = 1, bool block_bounds = false);

  FeatureSet set;
  std::vector<double> lcp;      // per entity; empty unless the set has LCP
  std::vector<double> log_ibf;  // per entity; empty unless CF-IBF
  std::vector<double> log_ejs;  // per entity; empty unless EJS
  std::vector<BlockWeights> weights;  // per block
  bool block_bounds = false;
  /// The terms the set reads of a row's neighbour, and per block their
  /// ranges over its candidate members: block b's range of ranged[i] is
  /// member_ranges[b * ranged.size() + i]. Empty without `block_bounds`.
  std::vector<Term> ranged;
  std::vector<Range> member_ranges;
  /// Relative slack that covers the rounding of one entity's block sums
  /// added in any order: (max |B_i| + 16) · 2^-46, far above the
  /// ~6 · max |B_i| · 2^-53 that reordering two such sums can move a row.
  double margin = 0.0;
};

class FeatureExtractor {
 public:
  /// `pairs` must be grouped by left entity — as GenerateCandidatePairs
  /// (index) emits them, or any ascending subsequence of that order. Row r
  /// of every result describes pairs[r], and is a pure function of that
  /// pair and the index.
  FeatureExtractor(const EntityIndex& index,
                   const std::vector<CandidatePair>& pairs);

  /// Features of `set`, one row per pair; columns follow
  /// set.FullMatrixColumns() order. Only the requested schemes are
  /// computed. `num_threads` > 1 parallelises over pivot groups with
  /// bit-identical results.
  ///
  /// `terms` (optional) are the set's FeatureTerms over this index, so
  /// repeated calls — the executor's training rows and shard fills — pay
  /// the O(Σ||b||) LCP pass and the per-entity logarithms once instead of
  /// once per call. They must be built for `set` (std::invalid_argument
  /// otherwise).
  Matrix Compute(const FeatureSet& set, size_t num_threads = 1,
                 const FeatureTerms* terms = nullptr) const;

  /// All nine canonical columns (see FeatureSet::FullMatrixColumns()).
  Matrix ComputeAll(size_t num_threads = 1) const {
    return Compute(FeatureSet::All(), num_threads);
  }

  /// LCP values per *global* entity id; computed on demand by Compute() but
  /// exposed for tests and diagnostics. Cost: one distinct-candidate sweep.
  std::vector<double> ComputeLcpPerEntity(size_t num_threads = 1) const;

 private:
  const EntityIndex& index_;
  const std::vector<CandidatePair>& pairs_;
};

/// The candidates a range scorer kept, ascending by global candidate index,
/// as parallel arrays. `indices` is empty when the scorer kept every
/// candidate of its range (a floor <= 0): row j is then candidate
/// first + j, so a full range holds 16 bytes per candidate, not 20.
struct ScoredCandidates {
  uint64_t first = 0;  ///< the scored range's first global index
  std::vector<uint32_t> indices;
  std::vector<CandidatePair> pairs;
  std::vector<double> probabilities;

  size_t size() const { return pairs.size(); }
  uint64_t IndexOf(size_t row) const {
    return indices.empty() ? first + row : indices[row];
  }
  /// The first row whose global index is >= `index` (size() if none).
  size_t LowerRow(uint64_t index) const;
  /// Bytes the buffers hold (their capacity).
  size_t Bytes() const {
    return indices.capacity() * sizeof(uint32_t) +
           pairs.capacity() * sizeof(CandidatePair) +
           probabilities.capacity() * sizeof(double);
  }
};

/// Pairs and P(match) of the global candidates [first, end) that clear
/// `floor`, in one pass: the candidate order of GenerateCandidatePairs
/// (index), located through `pivot_offsets` (prefix sums of the per-pivot
/// candidate counts). Replaces `out` with the candidates whose P(match) is
/// >= floor, ascending, each with its global index (which must then be
/// below 2^32), pair and probability; at a floor <= 0 that is every
/// candidate, with implicit indices. Each kept pair equals
/// GenerateCandidatePairs' pair at that index and each kept probability
/// model.PredictBatch(FeatureExtractor(index, those pairs).Compute(set))
/// at that index, bit for bit, for any range and thread count. No feature
/// matrix exists: each tile is scored (PredictTile at `floor`) while it is
/// in cache. Above a floor of 0, each pivot's rows are bounded first
/// (the prefix filter above, through model.MayReachFloor and the block
/// ranges of `terms`), and only the rows the bound cannot rule out are
/// evaluated. `terms` are the set's FeatureTerms over `index`, built with
/// block bounds for the filter to engage; a call given none builds its own.
/// Each pivot's neighbours are read from `resident` when given (the whole
/// candidate order, GenerateCandidatePairs(index)), and otherwise come from
/// the sweep that accumulates its sums, so no pair list is needed; either
/// way the rows and their bits are the same. Work is split across
/// `num_threads` by candidate count; above a floor of 0 each worker keeps
/// its rows, which are gathered into `out` at the end. With `busy`, the
/// workers' seconds are added to its kPairs (sweep, neighbour drain, pair
/// writes), kFeatures (rows) and kClassify (the model, kept rows) entries;
/// with `resident` no pair is generated, and the sweep and pair writes are
/// charged to kFeatures. Adds the number of rows evaluated to the
/// `pairs.scored` counter, once per call.
void ScoreCandidateRange(const EntityIndex& index,
                         const std::vector<uint64_t>& pivot_offsets,
                         uint64_t first, uint64_t end, const FeatureSet& set,
                         const ProbabilisticClassifier& model, double floor,
                         size_t num_threads, const FeatureTerms* terms,
                         ScoredCandidates* out, obs::PhaseTimings* busy,
                         const std::vector<CandidatePair>* resident = nullptr);

/// Feature rows for a few selected candidates — a training sample — in the
/// order `rows` lists them (the order Fit() sees). `pair_at` resolves a
/// candidate index to its pair; it is called once per row with ascending
/// indices, so a caller that regenerates pairs pivot by pivot (the
/// streaming executor) rebuilds each pivot's neighbours once. Row t equals
/// row rows[t] of the full candidate set's Compute(set) bit for bit. The
/// executor and the serving cold build train on rows read through this, so
/// no full feature matrix exists. `terms` as Compute() takes them.
Matrix SampledFeatureRows(const EntityIndex& index, const FeatureSet& set,
                          const std::vector<size_t>& rows,
                          const std::function<CandidatePair(size_t)>& pair_at,
                          size_t num_threads, const FeatureTerms* terms);

}  // namespace gsmb

#endif  // GSMB_CORE_FEATURES_H_
