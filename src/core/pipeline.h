// End-to-end (Generalized) Supervised Meta-blocking pipeline.
//
// Prepare*() performs the fixed, per-dataset preprocessing of the paper's
// Section 5.1: Token Blocking -> Block Purging -> Block Filtering (0.8) ->
// the counting preparation (StreamingDataset), plus the materialised
// candidate pairs and their labels, and records the blocking-quality
// numbers of Table 2. RunMetaBlocking() then executes one experiment
// configuration through the one executor every backend runs
// (StreamingExecutor, stream/streaming_executor.h) at one shard over the
// materialised pairs: train the probabilistic classifier on a balanced
// sample (TrainClassifier, the trainer every backend shares), weight the
// candidate pairs in one fused feature+classify pass, prune, and evaluate —
// reporting the paper's measures (recall, precision, F1) and the run-time
// breakdown that makes up RT.

#ifndef GSMB_CORE_PIPELINE_H_
#define GSMB_CORE_PIPELINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blocking/block_collection.h"
#include "blocking/block_stats.h"
#include "blocking/candidate_pairs.h"
#include "blocking/entity_index.h"
#include "core/feature_set.h"
#include "core/features.h"
#include "core/pruning.h"
#include "er/entity_collection.h"
#include "er/ground_truth.h"
#include "gsmb/execution.h"
#include "gsmb/telemetry.h"
#include "ml/classifier.h"
#include "util/matrix.h"

namespace gsmb {

/// Preprocessing knobs (paper defaults).
struct BlockingOptions {
  /// Minimum token length used as a Token Blocking key (the serving layer
  /// shares this knob, so every backend tokenizes identically).
  size_t min_token_length = 1;
  /// Block Purging: drop blocks with more than this fraction of all
  /// profiles (parameter-free setting: one half).
  double purge_size_fraction = 0.5;
  /// Block Filtering: fraction of its smallest blocks each entity keeps.
  double filter_ratio = 0.8;
  /// Shared execution knobs (worker threads for blocking and candidate-pair
  /// generation). Results are bit-identical to the serial path for any
  /// thread count.
  ExecutionOptions execution;
};

/// The counting preparation: a dataset after blocking, with its candidate
/// set counted but not materialised. The candidates are every
/// (pivot, neighbour) pair of the entity index in the order
/// GenerateCandidatePairs emits them; what locates any slice of that order
/// is only
///
///   pivot_offsets      prefix sums of the per-pivot candidate counts; the
///                      pair at global index i belongs to the pivot p with
///                      pivot_offsets[p] <= i < pivot_offsets[p+1], and its
///                      partner is that pivot's (i - pivot_offsets[p])-th
///                      distinct neighbour. O(#pivots).
///   positive_indices   the global candidate indices that are ground-truth
///                      matches, ascending. O(|D ∩ C|) — what the trainer
///                      (TrainClassifier) samples from, so no label byte
///                      per candidate is needed.
///
/// Both come from one counting sweep over the entity index
/// (stream/streaming_dataset.h), which also yields the Table-2
/// blocking-quality numbers. Movable, not copyable (owns the entity index).
struct StreamingDataset {
  std::string name;
  bool clean_clean = true;
  GroundTruth ground_truth;
  BlockCollection blocks;  // after purging + filtering
  std::unique_ptr<EntityIndex> index;
  BlockCollectionStats stats;
  BlockingQuality blocking_quality;  // Table 2 row

  /// Prefix sums of per-pivot candidate counts; size NumCandidatePivots+1.
  std::vector<uint64_t> pivot_offsets;
  /// Ascending global candidate indices that are ground-truth matches.
  std::vector<uint64_t> positive_indices;

  uint64_t num_candidates() const {
    return pivot_offsets.empty() ? 0 : pivot_offsets.back();
  }
};

/// The counting preparation plus its materialised candidate set, for
/// callers that read every pair (the paper benches, the feature-matrix
/// path, the unsupervised baselines). The executor reads `pairs` instead of
/// collecting each pivot's neighbours from the blocks.
struct PreparedDataset : StreamingDataset {
  /// GenerateCandidatePairs(*index): candidate i of the global order.
  std::vector<CandidatePair> pairs;
  /// 1 where pairs[i] is a ground-truth match (from positive_indices).
  std::vector<uint8_t> is_positive;
};

/// The fixed preprocessing of every preparation path: Block Purging then
/// Block Filtering with the options' parameters, in "blocking.purge" and
/// "blocking.filter" spans. Shared by every preparation path
/// (stream/streaming_dataset.cc) so their implied candidate sets cannot
/// drift apart.
BlockCollection PreprocessBlocks(BlockCollection raw,
                                 const BlockingOptions& options);

/// Clean-Clean ER preparation (Token Blocking over two clean collections).
PreparedDataset PrepareCleanClean(const std::string& name,
                                  const EntityCollection& e1,
                                  const EntityCollection& e2,
                                  GroundTruth ground_truth,
                                  const BlockingOptions& options = {});

/// Dirty ER preparation (Token Blocking over one collection).
PreparedDataset PrepareDirty(const std::string& name,
                             const EntityCollection& e,
                             GroundTruth ground_truth,
                             const BlockingOptions& options = {});

/// As above, but starting from an existing block collection (any
/// redundancy-positive blocking method; purging/filtering already applied
/// or intentionally skipped by the caller).
PreparedDataset PrepareFromBlocks(const std::string& name,
                                  BlockCollection blocks,
                                  GroundTruth ground_truth,
                                  size_t num_threads = 1);

/// One experiment configuration.
struct MetaBlockingConfig {
  FeatureSet features = FeatureSet::Paper2014();
  ClassifierKind classifier = ClassifierKind::kLogisticRegression;
  PruningKind pruning = PruningKind::kBlast;
  /// Balanced training set: this many labelled pairs per class.
  size_t train_per_class = 250;
  /// Seed for the training-pair sample (one paper repetition = one seed).
  uint64_t seed = 0;
  double blast_ratio = 0.35;
  /// Validity floor: pairs with classifier probability below this are never
  /// retained (the paper's 0.5; <= 0 disables it, as the unsupervised
  /// weighting path does).
  double validity_threshold = 0.5;
  /// Keep every candidate's probability in the result, in candidate order
  /// (Figs. 12-13 and progressive ER need them). The executor then scores
  /// at floor 0, so each shard holds all of its candidates; pruning keeps
  /// its validity threshold.
  bool keep_probabilities = false;
  /// Keep retained pair indices in the result.
  bool keep_retained = false;
  /// Shared execution knobs (worker threads for feature extraction, batch
  /// classification and pruning). Every parallel path is bit-identical to
  /// the serial one, so this only changes wall-clock time, never results.
  ExecutionOptions execution;
};

struct EffectivenessMetrics {
  double recall = 0.0;
  double precision = 0.0;
  double f1 = 0.0;
  size_t true_positives = 0;
  size_t retained = 0;
};

/// Recall/precision/F1 of a retained subset against |D| ground-truth
/// matches (recall is measured against the full ground truth, so blocking
/// misses count against it, exactly as in the paper).
EffectivenessMetrics EvaluateRetained(
    const std::vector<uint32_t>& retained_indices,
    const std::vector<uint8_t>& is_positive, size_t num_ground_truth);

/// Same measures from pre-counted tallies — for callers (the executor and
/// the serving cold build) that count true positives without an
/// is_positive vector over the whole candidate set.
EffectivenessMetrics MetricsFromCounts(size_t true_positives, size_t retained,
                                       size_t num_ground_truth);

struct MetaBlockingResult {
  EffectivenessMetrics metrics;
  /// Phase-time breakdown from the telemetry clock (obs::ScopedPhase), the
  /// run's only timing record. It holds features, train, classify and
  /// prune, so their sum is the paper's RT for Generalized SM, plus pairs
  /// when the executor regenerates each shard's pairs from the blocks (a
  /// cost a materialised pair list pays during preparation instead). The
  /// pairs, features and classify entries of a shard fill are attributed
  /// shares of its wall time (obs::AttributeFusedRegion).
  obs::PhaseTimings phases;
  size_t training_size = 0;
  /// Classifier coefficients in raw feature space, intercept last
  /// (Table 6 reports these for the scalability models).
  std::vector<double> model_coefficients;
  /// Populated only when the config asks for them.
  std::vector<double> probabilities;
  std::vector<uint32_t> retained_indices;

  // Execution shape, for benches and diagnostics.
  size_t num_shards_used = 0;
  size_t max_shard_candidates = 0;  ///< candidates of the largest shard
  /// Passes over the candidate space that fill the arena: 1 for every kind,
  /// or 2 for a weight-based kind whose above-floor survivors overflowed
  /// their cap at more than one shard (e.g. validity_threshold <= 0), which
  /// re-scores each shard to apply its thresholds.
  size_t sweeps = 0;
};

/// A trainer's row source: the feature rows of the given candidate indices,
/// in the order they are listed.
using SampleRows = std::function<Matrix(const std::vector<size_t>& rows)>;

/// A fitted classifier and the size of the sample it was fitted on.
struct TrainedClassifier {
  std::unique_ptr<ProbabilisticClassifier> model;
  size_t training_size = 0;
};

/// The one trainer of the batch, streaming and serving paths. Draws the
/// balanced sample of config.train_per_class pairs per class, seeded by
/// config.seed (SampleBalanced over `positive_indices`, the ascending
/// ground-truth matches among candidates [0, num_candidates)), reads the
/// sampled candidates' feature rows from `rows_of`, and fits
/// config.classifier. Timed as Phase::kTrain in `phases` (optional). The
/// model depends on the sample alone, never on the rest of the candidate
/// set (the paper's training-size study, Figs. 11 and 14), so every row
/// source that yields the same rows yields the same model. Throws
/// std::runtime_error naming `dataset_name` when the sample holds fewer
/// than two pairs.
TrainedClassifier TrainClassifier(
    const std::vector<uint64_t>& positive_indices, uint64_t num_candidates,
    const MetaBlockingConfig& config, const SampleRows& rows_of,
    const std::string& dataset_name, obs::PhaseTimings* phases);

/// Runs one configuration end to end (features computed internally and
/// included in the timing, as the paper's RT does): StreamingExecutor at one
/// shard over dataset.pairs. No |C|×d feature matrix is built: the
/// classifier trains on the sampled pairs' rows, then one fused pass scores
/// every candidate and keeps those at or above the validity floor. Its wall
/// time is split between `features` and `classify` in proportion to the
/// workers' busy time in each (obs::AttributeFusedRegion). Results equal
/// RunMetaBlockingWithFeatures over Compute(config.features) bit for bit.
MetaBlockingResult RunMetaBlocking(const PreparedDataset& dataset,
                                   const MetaBlockingConfig& config);

/// Variant that reuses a precomputed feature matrix whose columns follow
/// config.features.FullMatrixColumns(). `feature_seconds_hint` is recorded
/// as the feature-generation time (pass the one-off measured cost, or 0 to
/// exclude it); classification is timed as `classify`. It scores every
/// candidate with PredictBatch and prunes with PruneWithAggregator, apart
/// from the executor, so the tests hold it as the executor's independent
/// reference. Used by the seed-averaging experiment harness.
MetaBlockingResult RunMetaBlockingWithFeatures(
    const PreparedDataset& dataset, const MetaBlockingConfig& config,
    const Matrix& features, double feature_seconds_hint = 0.0);

}  // namespace gsmb

#endif  // GSMB_CORE_PIPELINE_H_
