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
// Σ1/||b||, Σ1/|b|) over its blocks — O(Σ||b||) total — into one packed
// record per neighbour above the pivot (the only rows any pivot has). The
// pivot's rows are then evaluated a tile at a time (up to 128 rows in a
// stack buffer), one feature column per tight loop, from those sums and
// per-entity terms. The logarithms of CF-IBF and EJS are taken once per
// entity, not once per row. Every value keeps the expression and
// evaluation order of the definitions above, so the bits do not depend on
// the tiling, the thread count or which of a pivot's rows are requested.
// LCP deliberately pays the extra per-entity distinct-candidate pass the
// paper describes as its cost, so feature-set runtime comparisons
// (Figs. 7/9/10) reproduce the paper's shape.
//
// The kernel has three consumers, all reading the same rows:
//   * Compute() copies every tile into a Matrix (tests, benches, serving);
//   * Score() is the batch executor's fused sweep: the classifier scores
//     each tile's rows while they are still in cache and only P(match) is
//     kept, so scoring |C| candidates never allocates the |C|×d matrix;
//   * ScoreCandidateRange() is the streaming executor's shard fill: it
//     needs no pair list at all — the sweep that accumulates a pivot's sums
//     also collects its neighbours — and emits each candidate's pair and
//     P(match) for a contiguous slice of the global candidate order.
// Score() and ScoreCandidateRange() therefore equal PredictBatch(Compute())
// bit for bit.
//
// Score() parallelises over pivot-entity groups, ScoreCandidateRange() over
// equal candidate counts (a pivot cut by a boundary is swept by both
// sides); either way each row is written once, so multi-threaded results
// are bit-identical to serial ones. Both can tally their workers' busy
// seconds per phase for obs::AttributeFusedRegion.

#ifndef GSMB_CORE_FEATURES_H_
#define GSMB_CORE_FEATURES_H_

#include <cstdint>
#include <functional>
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
  /// `precomputed_lcp` (optional) supplies the per-entity LCP values of
  /// ComputeLcpPerEntity() so repeated calls over the same index — the
  /// executors' training rows and scoring sweeps, the streaming executor's
  /// per-shard fills — pay the O(Σ||b||) LCP pass once instead of once per
  /// call. Ignored when the set does not contain LCP.
  Matrix Compute(const FeatureSet& set, size_t num_threads = 1,
                 const std::vector<double>* precomputed_lcp = nullptr) const;

  /// P(match) of every pair under `model` (fitted on `set`'s columns),
  /// bit-identical to model.PredictBatch(Compute(set, ...)) without the
  /// matrix: each row lives in a worker's stack tile only until the model
  /// has scored it. Workers write disjoint rows of the result. With `busy`,
  /// the workers' seconds are added to its kFeatures (sums and rows) and
  /// kClassify (the model) entries.
  std::vector<double> Score(
      const FeatureSet& set, const ProbabilisticClassifier& model,
      size_t num_threads = 1,
      const std::vector<double>* precomputed_lcp = nullptr,
      obs::PhaseTimings* busy = nullptr) const;

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

/// Pairs and P(match) of the global candidates [first, end) in one pass:
/// the candidate order of GenerateCandidatePairs(index), located through
/// `pivot_offsets` (prefix sums of the per-pivot candidate counts). Resizes
/// `pairs` and `probabilities` to end - first and writes candidate i at
/// i - first; both equal the matching slice of GenerateCandidatePairs and
/// of FeatureExtractor(index, those pairs).Score(set, model, ...) bit for
/// bit, for any range and thread count. No pair list and no feature matrix
/// exist: each pivot's neighbours come from the sweep that accumulates its
/// sums, and each tile is scored while it is in cache. Work is split
/// across `num_threads` by candidate count. With `busy`, the workers'
/// seconds are added to its kPairs (sweep, neighbour sort, pair writes),
/// kFeatures (rows) and kClassify (the model) entries.
void ScoreCandidateRange(const EntityIndex& index,
                         const std::vector<uint64_t>& pivot_offsets,
                         uint64_t first, uint64_t end, const FeatureSet& set,
                         const ProbabilisticClassifier& model,
                         size_t num_threads,
                         const std::vector<double>* precomputed_lcp,
                         std::vector<CandidatePair>* pairs,
                         std::vector<double>* probabilities,
                         obs::PhaseTimings* busy);

/// Feature rows for a few selected candidates — a training sample — in the
/// order `rows` lists them (the order Fit() sees). `pair_at` resolves a
/// candidate index to its pair; it is called once per row with ascending
/// indices, so a caller that regenerates pairs pivot by pivot (the
/// streaming executor) rebuilds each pivot's neighbours once. Row t equals
/// row rows[t] of the full candidate set's Compute(set) bit for bit. Shared
/// by the batch and streaming executors, neither of which holds the full
/// feature matrix.
Matrix SampledFeatureRows(const EntityIndex& index, const FeatureSet& set,
                          const std::vector<size_t>& rows,
                          const std::function<CandidatePair(size_t)>& pair_at,
                          size_t num_threads,
                          const std::vector<double>* precomputed_lcp);

}  // namespace gsmb

#endif  // GSMB_CORE_FEATURES_H_
