// Balanced training-set sampling (paper Sections 1.1 and 5.1).
//
// ER suffers extreme class imbalance — almost all candidate pairs are
// negative — so Supervised Meta-blocking undersamples: the training set has
// the same number of positive and negative instances. The paper's central
// finding on training size is that 25 + 25 labelled pairs suffice.

#ifndef GSMB_ML_SAMPLER_H_
#define GSMB_ML_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace gsmb {

/// Indices into the candidate-pair array plus their labels (1 = match).
struct TrainingSet {
  std::vector<size_t> row_indices;
  std::vector<int> labels;

  size_t size() const { return row_indices.size(); }
};

/// Draws up to `per_class` positives and `per_class` negatives uniformly at
/// random without replacement. `positive_indices` lists the positive
/// candidates of [0, num_candidates) ascending; every other index is a
/// negative. When a class has fewer members than requested, all of them are
/// taken (and the set is no longer perfectly balanced — mirroring what any
/// practical labelling effort would do).
///
/// Layout: the chosen positives ascending, then the chosen negatives
/// ascending. The Rng draws a partial Fisher-Yates over the positive ranks,
/// then one over the negative ranks (SampleWithoutReplacementSparse), so
/// the cost is O(k + |positives|) time and O(k) extra memory, whatever the
/// candidate count.
TrainingSet SampleBalanced(const std::vector<uint64_t>& positive_indices,
                           uint64_t num_candidates, size_t per_class,
                           Rng* rng);

/// The same sample from one label byte per candidate (`is_positive[i]`
/// labels candidate i): collects the ascending positives and delegates.
TrainingSet SampleBalanced(const std::vector<uint8_t>& is_positive,
                           size_t per_class, Rng* rng);

/// The training-set size rule of the original Supervised Meta-blocking
/// paper: 5% of the positive (minority) class in the ground truth, per
/// class, with at least one instance.
size_t FivePercentRuleSize(size_t num_ground_truth_matches);

}  // namespace gsmb

#endif  // GSMB_ML_SAMPLER_H_
