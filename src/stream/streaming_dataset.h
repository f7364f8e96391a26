// The counting preparation (StreamingDataset, core/pipeline.h): the
// preparation every backend executes from. One counting sweep over the
// entity index — the same per-pivot enumeration GenerateCandidatePairs
// performs, minus the pair storage — yields the per-pivot prefix offsets
// that locate any slice of the global candidate order, the ascending
// indices of the ground-truth matches among the candidates, and the
// Table-2 blocking-quality numbers. No O(|C|) array exists; callers that
// need the pairs themselves materialise them on top (PreparedDataset,
// PreparedInputs::Batch()).

#ifndef GSMB_STREAM_STREAMING_DATASET_H_
#define GSMB_STREAM_STREAMING_DATASET_H_

#include <string>
#include <vector>

#include "blocking/block_collection.h"
#include "core/pipeline.h"
#include "er/entity_collection.h"
#include "er/ground_truth.h"

namespace gsmb {

/// The counting preparations behind PrepareCleanClean / PrepareDirty /
/// PrepareFromBlocks (core/pipeline.h), which materialise the pairs on
/// top: Token Blocking -> Block Purging -> Block Filtering, then the
/// counting sweep.
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
/// sampled candidates' pairs are read from `resident` (the materialised
/// candidate order) when given, else regenerated pivot by pivot
/// (PairRegenerator), and their rows extracted with SampledFeatureRows.
/// `terms` are config.features' FeatureTerms over the dataset's index when
/// the caller already has them (nullptr builds them for the sample). The
/// executor and the serving cold build both train through this, and every
/// pair source yields the same model bit for bit.
TrainedClassifier TrainClassifier(
    const StreamingDataset& dataset, const MetaBlockingConfig& config,
    const FeatureTerms* terms, obs::PhaseTimings* phases,
    const std::vector<CandidatePair>* resident = nullptr);

}  // namespace gsmb

#endif  // GSMB_STREAM_STREAMING_DATASET_H_
