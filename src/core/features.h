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
// record per neighbour. The pivot's rows are then evaluated a tile at a
// time (up to 128 rows in a stack buffer), one feature column per tight
// loop, from those sums and per-entity terms. The logarithms of CF-IBF and
// EJS are taken once per entity, not once per row. Every value keeps the
// expression and evaluation order of the definitions above, so the bits
// do not depend on the tiling or the thread count. LCP deliberately pays
// the extra per-entity distinct-candidate pass the paper describes as its
// cost, so feature-set runtime comparisons (Figs. 7/9/10) reproduce the
// paper's shape.
//
// The kernel has two consumers. Compute() copies every tile into a Matrix
// (tests, benches, the streaming arena, serving). Score() is the fused
// sweep of the batch executor: the classifier scores each tile's rows
// while they are still in cache and only P(match) is kept, so scoring |C|
// candidates never allocates the |C|×d feature matrix. Both read the same
// rows, so Score() equals PredictBatch(Compute()) bit for bit.
//
// The sweep parallelises over pivot-entity groups (each group's rows are
// disjoint), so multi-threaded extraction is bit-identical to serial.

#ifndef GSMB_CORE_FEATURES_H_
#define GSMB_CORE_FEATURES_H_

#include <functional>
#include <vector>

#include "blocking/candidate_pairs.h"
#include "blocking/entity_index.h"
#include "core/feature_set.h"
#include "util/matrix.h"

namespace gsmb {

class ProbabilisticClassifier;

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
  /// ComputeLcpPerEntity() so repeated calls over slices of the same
  /// index — the streaming executor's per-shard sweeps, the batch
  /// executor's training rows and scoring sweep — pay the O(Σ||b||) LCP
  /// pass once instead of once per call. Ignored when the set does not
  /// contain LCP.
  Matrix Compute(const FeatureSet& set, size_t num_threads = 1,
                 const std::vector<double>* precomputed_lcp = nullptr) const;

  /// P(match) of every pair under `model` (fitted on `set`'s columns),
  /// bit-identical to model.PredictBatch(Compute(set, ...)) without the
  /// matrix: each row lives in a worker's stack tile only until the model
  /// has scored it. Workers write disjoint rows of the result.
  std::vector<double> Score(
      const FeatureSet& set, const ProbabilisticClassifier& model,
      size_t num_threads = 1,
      const std::vector<double>* precomputed_lcp = nullptr) const;

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
