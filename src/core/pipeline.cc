#include "core/pipeline.h"

#include <stdexcept>
#include <utility>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "core/pruning_aggregates.h"
#include "gsmb/telemetry.h"
#include "ml/sampler.h"
#include "stream/streaming_dataset.h"
#include "stream/streaming_executor.h"
#include "util/random.h"

namespace gsmb {

namespace {

/// The counting preparation plus its materialised pairs; the labels come
/// from the counting sweep's positive indices.
PreparedDataset WithPairs(StreamingDataset counted, size_t num_threads) {
  PreparedDataset prep;
  static_cast<StreamingDataset&>(prep) = std::move(counted);
  prep.pairs = GenerateCandidatePairs(*prep.index, num_threads);
  prep.is_positive.resize(prep.pairs.size());
  for (uint64_t i : prep.positive_indices) prep.is_positive[i] = 1;
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
  return WithPairs(PrepareStreamingCleanClean(name, e1, e2,
                                              std::move(ground_truth), options),
                   options.execution.num_threads);
}

PreparedDataset PrepareDirty(const std::string& name,
                             const EntityCollection& e,
                             GroundTruth ground_truth,
                             const BlockingOptions& options) {
  return WithPairs(
      PrepareStreamingDirty(name, e, std::move(ground_truth), options),
      options.execution.num_threads);
}

PreparedDataset PrepareFromBlocks(const std::string& name,
                                  BlockCollection blocks,
                                  GroundTruth ground_truth,
                                  size_t num_threads) {
  return WithPairs(PrepareStreamingFromBlocks(name, std::move(blocks),
                                              std::move(ground_truth),
                                              num_threads),
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

MetaBlockingResult RunMetaBlocking(const PreparedDataset& dataset,
                                   const MetaBlockingConfig& config) {
  StreamingOptions one_shard;
  one_shard.num_shards = 1;
  return StreamingExecutor(dataset, one_shard, &dataset.pairs).Run(config);
}

MetaBlockingResult RunMetaBlockingWithFeatures(
    const PreparedDataset& dataset, const MetaBlockingConfig& config,
    const Matrix& features, double feature_seconds_hint) {
  if (features.rows() != dataset.pairs.size()) {
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
      dataset.positive_indices, dataset.pairs.size(), config,
      [&](const std::vector<size_t>& rows) {
        return features.SelectRows(rows);
      },
      dataset.name, &result.phases);
  result.training_size = trained.training_size;
  result.model_coefficients = trained.model->CoefficientsWithIntercept();

  std::vector<double> probabilities;
  {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kClassify);
    probabilities =
        trained.model->PredictBatch(features, config.execution.num_threads);
  }
  std::vector<uint32_t> retained;
  {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kPrune);
    PruningContext context =
        PruningContext::FromIndex(*dataset.index, dataset.stats);
    context.blast_ratio = config.blast_ratio;
    context.validity_threshold = config.validity_threshold;
    context.execution = config.execution;
    retained = PruneWithAggregator(config.pruning, dataset.pairs,
                                   probabilities, context);
  }
  obs::CounterAdd("pairs.generated", dataset.pairs.size());
  obs::CounterAdd("pairs.retained", retained.size());
  result.metrics = EvaluateRetained(retained, dataset.is_positive,
                                    dataset.ground_truth.size());
  if (config.keep_probabilities) {
    result.probabilities = std::move(probabilities);
  }
  if (config.keep_retained) result.retained_indices = std::move(retained);
  return result;
}

}  // namespace gsmb
