// End-to-end (Generalized) Supervised Meta-blocking pipeline.
//
// Prepare*() performs the fixed, per-dataset preprocessing of the paper's
// Section 5.1: Token Blocking -> Block Purging -> Block Filtering (0.8) ->
// candidate-pair generation, and records the blocking-quality numbers of
// Table 2. RunMetaBlocking() then executes one experiment configuration:
// train the probabilistic classifier on a balanced sample
// (TrainClassifier, the trainer every backend shares), weight all
// candidate pairs in one fused feature+classify sweep, prune, and evaluate —
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

/// A dataset after blocking: everything the experiments reuse across
/// configurations. Movable, not copyable (owns the entity index).
struct PreparedDataset {
  std::string name;
  bool clean_clean = true;
  GroundTruth ground_truth;
  BlockCollection blocks;  // after purging + filtering
  std::unique_ptr<EntityIndex> index;
  std::vector<CandidatePair> pairs;
  std::vector<uint8_t> is_positive;  // per candidate pair
  /// Ascending indices of the positive pairs.
  std::vector<uint64_t> positive_indices;
  BlockCollectionStats stats;
  BlockingQuality blocking_quality;  // Table 2 row

  size_t num_candidates() const { return pairs.size(); }
};

/// The fixed preprocessing of every preparation path: Block Purging then
/// Block Filtering with the options' parameters, in "blocking.purge" and
/// "blocking.filter" spans. Shared with the streaming preparation
/// (stream/streaming_dataset.cc) so the two paths' implied candidate sets
/// cannot drift apart.
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
  /// Keep per-pair probabilities in the result (Figure 12 needs them).
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

/// Same measures from pre-counted tallies — for callers (the batch and
/// streaming executors) that count true positives without an is_positive
/// vector over the whole candidate set.
EffectivenessMetrics MetricsFromCounts(size_t true_positives, size_t retained,
                                       size_t num_ground_truth);

struct MetaBlockingResult {
  EffectivenessMetrics metrics;
  /// Phase-time breakdown from the telemetry clock (obs::ScopedPhase).
  /// The legacy `*_seconds` fields below are views of this — one clock
  /// source, no duplicated Stopwatches.
  obs::PhaseTimings phases;
  /// RT components, seconds. `total_seconds` = features + train + classify
  /// + prune (the paper's RT definition for Generalized SM).
  double feature_seconds = 0.0;
  double train_seconds = 0.0;
  double classify_seconds = 0.0;
  double prune_seconds = 0.0;
  double total_seconds = 0.0;
  size_t training_size = 0;
  /// Classifier coefficients in raw feature space, intercept last
  /// (Table 6 reports these for the scalability models).
  std::vector<double> model_coefficients;
  /// Populated only when the config asks for them.
  std::vector<double> probabilities;
  std::vector<uint32_t> retained_indices;
};

/// The prepare/execute split: everything the execute phase actually READS
/// of a preparation, as a non-owning view. Callers that share one
/// preparation across many configurations (Engine::Prepare handles, sweep
/// harnesses) execute through this without owning a PreparedDataset —
/// the blocks/index and positive indices can live in a cached, immutable
/// handle while the pairs come from its lazily materialised batch arrays.
struct PreparedRef {
  const std::string* name = nullptr;
  const EntityIndex* index = nullptr;
  const BlockCollectionStats* stats = nullptr;
  const std::vector<CandidatePair>* pairs = nullptr;
  /// Ascending indices of the ground-truth matches among `pairs`.
  const std::vector<uint64_t>* positive_indices = nullptr;
  size_t num_ground_truth = 0;
};

/// The view of an owning preparation.
PreparedRef RefOf(const PreparedDataset& dataset);

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
/// included in the timing, as the paper's RT does). No |C|×d feature matrix
/// is built: the classifier trains on the sampled pairs' rows, then
/// FeatureExtractor::Score weights every candidate in one sweep. Its wall
/// time is split between `features` and `classify` in proportion to the
/// workers' busy time in each (obs::AttributeFusedRegion): attributed
/// shares whose sum is the sweep's wall time. Results equal
/// RunMetaBlockingWithFeatures over Compute(config.features) bit for bit.
MetaBlockingResult RunMetaBlocking(const PreparedDataset& dataset,
                                   const MetaBlockingConfig& config);
MetaBlockingResult RunMetaBlocking(const PreparedRef& prepared,
                                   const MetaBlockingConfig& config);

/// Variant that reuses a precomputed feature matrix whose columns follow
/// config.features.FullMatrixColumns(). `feature_seconds_hint` is recorded
/// as the feature-generation time (pass the one-off measured cost, or 0 to
/// exclude it); classification is timed as `classify`. Used by the
/// seed-averaging experiment harness.
MetaBlockingResult RunMetaBlockingWithFeatures(
    const PreparedDataset& dataset, const MetaBlockingConfig& config,
    const Matrix& features, double feature_seconds_hint = 0.0);
MetaBlockingResult RunMetaBlockingWithFeatures(
    const PreparedRef& prepared, const MetaBlockingConfig& config,
    const Matrix& features, double feature_seconds_hint = 0.0);

}  // namespace gsmb

#endif  // GSMB_CORE_PIPELINE_H_
