// StreamingDataset: batch-preprocessing state for the bounded-memory
// executor — everything PreparedDataset holds EXCEPT the O(|C|) arrays.
//
// The batch preparation (core/pipeline.h) materialises the candidate set
// and its labels, and its execution the probability vector — all O(|C|).
// What the streaming executor actually needs to regenerate any slice of
// the global candidate order on demand is only:
//
//   pivot_offsets      prefix sums of the per-pivot candidate counts; the
//                      pair at global index i belongs to the pivot p with
//                      pivot_offsets[p] <= i < pivot_offsets[p+1], and its
//                      partner is that pivot's (i - pivot_offsets[p])-th
//                      distinct neighbour. O(#pivots).
//   positive_indices   the global candidate indices that are ground-truth
//                      matches, ascending. O(|D ∩ C|) — what the trainer
//                      (TrainClassifier) samples from, so no label byte
//                      per candidate is needed.
//
// Both are produced by one counting sweep over the entity index (the same
// per-pivot enumeration GenerateCandidatePairs performs, minus the pair
// storage), which also yields the Table-2 blocking-quality numbers.

#ifndef GSMB_STREAM_STREAMING_DATASET_H_
#define GSMB_STREAM_STREAMING_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blocking/block_collection.h"
#include "blocking/block_stats.h"
#include "blocking/entity_index.h"
#include "core/pipeline.h"
#include "er/entity_collection.h"
#include "er/ground_truth.h"

namespace gsmb {

struct StreamingDataset {
  std::string name;
  bool clean_clean = true;
  GroundTruth ground_truth;
  BlockCollection blocks;  // after purging + filtering
  std::unique_ptr<EntityIndex> index;
  BlockCollectionStats stats;
  BlockingQuality blocking_quality;  // Table 2 row, counted streamingly

  /// Prefix sums of per-pivot candidate counts; size NumCandidatePivots+1.
  std::vector<uint64_t> pivot_offsets;
  /// Ascending global candidate indices that are ground-truth matches.
  std::vector<uint64_t> positive_indices;

  uint64_t num_candidates() const {
    return pivot_offsets.empty() ? 0 : pivot_offsets.back();
  }
};

/// Streaming analogues of PrepareCleanClean / PrepareDirty /
/// PrepareFromBlocks: identical Token Blocking -> Block Purging -> Block
/// Filtering preprocessing (so the implied candidate set is bit-identical
/// to the batch path's), but the candidates themselves are only counted.
StreamingDataset PrepareStreamingCleanClean(const std::string& name,
                                            const EntityCollection& e1,
                                            const EntityCollection& e2,
                                            GroundTruth ground_truth,
                                            const BlockingOptions& options = {});

StreamingDataset PrepareStreamingDirty(const std::string& name,
                                       const EntityCollection& e,
                                       GroundTruth ground_truth,
                                       const BlockingOptions& options = {});

StreamingDataset PrepareStreamingFromBlocks(const std::string& name,
                                            BlockCollection blocks,
                                            GroundTruth ground_truth,
                                            size_t num_threads = 1);

/// TrainClassifier (core/pipeline.h) over the counting preparation: the
/// sampled candidates' pairs are regenerated pivot by pivot
/// (PairRegenerator) and their rows extracted with SampledFeatureRows, so
/// no candidate list exists. `lcp` is the per-entity LCP when the caller
/// already has it (nullptr computes it when the feature set needs it). The
/// streaming executor and the serving cold build both train through this,
/// and the model equals the batch path's bit for bit.
TrainedClassifier TrainClassifier(const StreamingDataset& dataset,
                                  const MetaBlockingConfig& config,
                                  const std::vector<double>* lcp,
                                  obs::PhaseTimings* phases);

}  // namespace gsmb

#endif  // GSMB_STREAM_STREAMING_DATASET_H_
