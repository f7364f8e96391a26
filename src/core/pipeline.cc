#include "core/pipeline.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/token_blocking.h"
#include "gsmb/telemetry.h"
#include "ml/sampler.h"
#include "util/random.h"

namespace gsmb {

namespace {

PreparedDataset FinishPreparation(const std::string& name,
                                  BlockCollection blocks,
                                  GroundTruth ground_truth,
                                  size_t num_threads) {
  PreparedDataset prep;
  prep.name = name;
  prep.clean_clean = blocks.clean_clean();
  prep.ground_truth = std::move(ground_truth);
  prep.blocks = std::move(blocks);
  prep.index = std::make_unique<EntityIndex>(prep.blocks, num_threads);
  prep.pairs = GenerateCandidatePairs(*prep.index, num_threads);
  prep.stats = ComputeBlockStats(prep.blocks);
  prep.blocking_quality =
      EvaluateBlockingQuality(prep.pairs, prep.ground_truth);
  prep.is_positive.resize(prep.pairs.size());
  for (size_t i = 0; i < prep.pairs.size(); ++i) {
    if (prep.ground_truth.IsMatch(prep.pairs[i].left, prep.pairs[i].right)) {
      prep.is_positive[i] = 1;
      prep.positive_indices.push_back(i);
    }
  }
  return prep;
}

}  // namespace

BlockCollection PreprocessBlocks(BlockCollection raw,
                                 const BlockingOptions& options) {
  const BlockCollection purged = [&] {
    GSMB_SPAN("blocking.purge");
    return BlockPurging(options.purge_size_fraction).Apply(raw);
  }();
  GSMB_SPAN("blocking.filter");
  return BlockFiltering(options.filter_ratio).Apply(purged);
}

PreparedDataset PrepareCleanClean(const std::string& name,
                                  const EntityCollection& e1,
                                  const EntityCollection& e2,
                                  GroundTruth ground_truth,
                                  const BlockingOptions& options) {
  if (ground_truth.dirty()) {
    throw std::invalid_argument(
        "PrepareCleanClean: ground truth has Dirty-ER semantics");
  }
  BlockCollection raw = TokenBlocking(options.min_token_length)
      .Build(e1, e2, options.execution.num_threads);
  return FinishPreparation(name, PreprocessBlocks(std::move(raw), options),
                           std::move(ground_truth), options.execution.num_threads);
}

PreparedDataset PrepareDirty(const std::string& name,
                             const EntityCollection& e,
                             GroundTruth ground_truth,
                             const BlockingOptions& options) {
  if (!ground_truth.dirty()) {
    throw std::invalid_argument(
        "PrepareDirty: ground truth has Clean-Clean semantics");
  }
  BlockCollection raw = TokenBlocking(options.min_token_length)
      .Build(e, options.execution.num_threads);
  return FinishPreparation(name, PreprocessBlocks(std::move(raw), options),
                           std::move(ground_truth), options.execution.num_threads);
}

PreparedDataset PrepareFromBlocks(const std::string& name,
                                  BlockCollection blocks,
                                  GroundTruth ground_truth,
                                  size_t num_threads) {
  return FinishPreparation(name, std::move(blocks), std::move(ground_truth),
                           num_threads);
}

EffectivenessMetrics MetricsFromCounts(size_t true_positives, size_t retained,
                                       size_t num_ground_truth) {
  EffectivenessMetrics m;
  m.true_positives = true_positives;
  m.retained = retained;
  if (num_ground_truth > 0) {
    m.recall = static_cast<double>(m.true_positives) /
               static_cast<double>(num_ground_truth);
  }
  if (m.retained > 0) {
    m.precision = static_cast<double>(m.true_positives) /
                  static_cast<double>(m.retained);
  }
  if (m.recall + m.precision > 0.0) {
    m.f1 = 2.0 * m.recall * m.precision / (m.recall + m.precision);
  }
  return m;
}

EffectivenessMetrics EvaluateRetained(
    const std::vector<uint32_t>& retained_indices,
    const std::vector<uint8_t>& is_positive, size_t num_ground_truth) {
  size_t true_positives = 0;
  for (uint32_t idx : retained_indices) {
    if (is_positive[idx]) ++true_positives;
  }
  return MetricsFromCounts(true_positives, retained_indices.size(),
                           num_ground_truth);
}

PreparedRef RefOf(const PreparedDataset& dataset) {
  PreparedRef ref;
  ref.name = &dataset.name;
  ref.index = dataset.index.get();
  ref.stats = &dataset.stats;
  ref.pairs = &dataset.pairs;
  ref.positive_indices = &dataset.positive_indices;
  ref.num_ground_truth = dataset.ground_truth.size();
  return ref;
}

MetaBlockingResult RunMetaBlocking(const PreparedDataset& dataset,
                                   const MetaBlockingConfig& config) {
  return RunMetaBlocking(RefOf(dataset), config);
}

TrainedClassifier TrainClassifier(
    const std::vector<uint64_t>& positive_indices, uint64_t num_candidates,
    const MetaBlockingConfig& config, const SampleRows& rows_of,
    const std::string& dataset_name, obs::PhaseTimings* phases) {
  obs::ScopedPhase phase(phases, obs::Phase::kTrain);
  Rng rng(config.seed);
  const TrainingSet training = SampleBalanced(
      positive_indices, num_candidates, config.train_per_class, &rng);
  if (training.size() < 2) {
    throw std::runtime_error(
        "not enough labelled pairs to train (dataset '" + dataset_name +
        "')");
  }
  TrainedClassifier trained;
  trained.model = MakeClassifier(config.classifier, config.seed);
  trained.model->Fit(rows_of(training.row_indices), training.labels);
  trained.training_size = training.size();
  return trained;
}

namespace {

/// The shared tail: prune the scored candidates, evaluate, and fill the
/// result's model record, timings and optional outputs.
MetaBlockingResult PruneAndEvaluate(const PreparedRef& prepared,
                                    const MetaBlockingConfig& config,
                                    const TrainedClassifier& trained,
                                    std::vector<double> probabilities,
                                    MetaBlockingResult result) {
  const std::vector<CandidatePair>& pairs = *prepared.pairs;
  std::vector<uint32_t> retained;
  {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
    PruningContext context =
        PruningContext::FromIndex(*prepared.index, *prepared.stats);
    context.blast_ratio = config.blast_ratio;
    context.validity_threshold = config.validity_threshold;
    context.execution = config.execution;
    retained = MakePruningAlgorithm(config.pruning)
                   ->Prune(pairs, probabilities, context);
  }

  result.training_size = trained.training_size;
  result.model_coefficients = trained.model->CoefficientsWithIntercept();
  obs::CounterAdd("pairs.generated", pairs.size());
  obs::CounterAdd("pairs.retained", retained.size());
  const std::vector<uint64_t>& positives = *prepared.positive_indices;
  size_t true_positives = 0;
  for (uint32_t idx : retained) {
    true_positives += std::binary_search(positives.begin(), positives.end(),
                                         uint64_t{idx});
  }
  result.metrics = MetricsFromCounts(true_positives, retained.size(),
                                     prepared.num_ground_truth);
  if (config.keep_probabilities) result.probabilities = std::move(probabilities);
  if (config.keep_retained) result.retained_indices = std::move(retained);
  return result;
}

}  // namespace

MetaBlockingResult RunMetaBlocking(const PreparedRef& prepared,
                                   const MetaBlockingConfig& config) {
  const size_t threads = config.execution.num_threads;
  const std::vector<CandidatePair>& pairs = *prepared.pairs;
  const FeatureExtractor extractor(*prepared.index, pairs);
  MetaBlockingResult result;

  // LCP once, shared by the training rows and the scoring sweep.
  std::vector<double> lcp;
  const std::vector<double>* lcp_ptr = nullptr;
  if (config.features.Contains(Feature::kLcp)) {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kFeatures);
    lcp = extractor.ComputeLcpPerEntity(threads);
    lcp_ptr = &lcp;
  }

  // Train on feature rows of the sampled pairs only.
  const TrainedClassifier trained = TrainClassifier(
      *prepared.positive_indices, pairs.size(), config,
      [&](const std::vector<size_t>& rows) {
        return SampledFeatureRows(
            *prepared.index, config.features, rows,
            [&](size_t row) { return pairs[row]; }, threads, lcp_ptr);
      },
      *prepared.name, &result.phases);

  // The fused sweep: every candidate's feature row is scored while it is
  // still in cache, so no |C|×d matrix exists. Features and classify
  // interleave per tile, so the sweep's wall time is split between them by
  // the workers' busy tallies. Pruning weighs only the probabilities at or
  // above the validity floor, so the sweep evaluates the link only where it
  // can clear it — unless the job keeps every probability.
  std::vector<double> probabilities;
  {
    obs::FusedPhases phases(&result.phases, obs::Phase::kFeatures);
    const double floor =
        config.keep_probabilities ? 0.0 : config.validity_threshold;
    probabilities = extractor.Score(config.features, *trained.model, threads,
                                    lcp_ptr, phases.busy(), floor);
  }
  return PruneAndEvaluate(prepared, config, trained, std::move(probabilities),
                          std::move(result));
}

MetaBlockingResult RunMetaBlockingWithFeatures(
    const PreparedDataset& dataset, const MetaBlockingConfig& config,
    const Matrix& features, double feature_seconds_hint) {
  return RunMetaBlockingWithFeatures(RefOf(dataset), config, features,
                                     feature_seconds_hint);
}

MetaBlockingResult RunMetaBlockingWithFeatures(
    const PreparedRef& prepared, const MetaBlockingConfig& config,
    const Matrix& features, double feature_seconds_hint) {
  if (features.rows() != prepared.pairs->size()) {
    throw std::invalid_argument(
        "RunMetaBlockingWithFeatures: feature rows != candidate pairs");
  }
  if (features.cols() != config.features.Dimensions()) {
    throw std::invalid_argument(
        "RunMetaBlockingWithFeatures: feature cols != feature-set dims");
  }

  MetaBlockingResult result;
  result.phases.Add(obs::Phase::kFeatures, feature_seconds_hint);
  const TrainedClassifier trained = TrainClassifier(
      *prepared.positive_indices, prepared.pairs->size(), config,
      [&](const std::vector<size_t>& rows) {
        return features.SelectRows(rows);
      },
      *prepared.name, &result.phases);

  std::vector<double> probabilities;
  {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kClassify);
    probabilities =
        trained.model->PredictBatch(features, config.execution.num_threads);
  }
  return PruneAndEvaluate(prepared, config, trained, std::move(probabilities),
                          std::move(result));
}

}  // namespace gsmb
