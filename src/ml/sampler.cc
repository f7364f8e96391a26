#include "ml/sampler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gsmb {

TrainingSet SampleBalanced(const std::vector<uint64_t>& positive_indices,
                           uint64_t num_candidates, size_t per_class,
                           Rng* rng) {
  const size_t num_pos = positive_indices.size();
  assert(num_pos <= num_candidates);
  const auto num_neg = static_cast<size_t>(num_candidates) - num_pos;

  std::vector<size_t> pos_ranks = rng->SampleWithoutReplacementSparse(
      num_pos, std::min(per_class, num_pos));
  std::vector<size_t> pos_chosen;
  pos_chosen.reserve(pos_ranks.size());
  for (size_t rank : pos_ranks) {
    pos_chosen.push_back(static_cast<size_t>(positive_indices[rank]));
  }
  std::sort(pos_chosen.begin(), pos_chosen.end());

  std::vector<size_t> neg_ranks = rng->SampleWithoutReplacementSparse(
      num_neg, std::min(per_class, num_neg));
  // The k-th negative is the k-th candidate index that is not positive:
  // idx = rank + (#positives <= idx), resolved by a merged sweep over the
  // ascending ranks. Ascending ranks map to ascending indices, so the
  // mapped list is already sorted.
  std::sort(neg_ranks.begin(), neg_ranks.end());
  std::vector<size_t> neg_chosen;
  neg_chosen.reserve(neg_ranks.size());
  size_t skipped = 0;
  for (size_t rank : neg_ranks) {
    while (skipped < num_pos && positive_indices[skipped] <= rank + skipped) {
      ++skipped;
    }
    neg_chosen.push_back(rank + skipped);
  }

  TrainingSet ts;
  ts.row_indices.reserve(pos_chosen.size() + neg_chosen.size());
  ts.labels.reserve(pos_chosen.size() + neg_chosen.size());
  for (size_t i : pos_chosen) {
    ts.row_indices.push_back(i);
    ts.labels.push_back(1);
  }
  for (size_t i : neg_chosen) {
    ts.row_indices.push_back(i);
    ts.labels.push_back(0);
  }
  return ts;
}

TrainingSet SampleBalanced(const std::vector<uint8_t>& is_positive,
                           size_t per_class, Rng* rng) {
  std::vector<uint64_t> positives;
  for (size_t i = 0; i < is_positive.size(); ++i) {
    if (is_positive[i]) positives.push_back(i);
  }
  return SampleBalanced(positives, is_positive.size(), per_class, rng);
}

size_t FivePercentRuleSize(size_t num_ground_truth_matches) {
  return std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(0.05 * static_cast<double>(num_ground_truth_matches))));
}

}  // namespace gsmb
