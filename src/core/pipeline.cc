#include "core/pipeline.h"

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
    prep.is_positive[i] =
        prep.ground_truth.IsMatch(prep.pairs[i].left, prep.pairs[i].right)
            ? 1
            : 0;
  }
  return prep;
}

}  // namespace

BlockCollection PreprocessBlocks(BlockCollection raw,
                                 const BlockingOptions& options) {
  BlockPurging purging(options.purge_size_fraction);
  BlockFiltering filtering(options.filter_ratio);
  return filtering.Apply(purging.Apply(raw));
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
  ref.is_positive = &dataset.is_positive;
  ref.num_ground_truth = dataset.ground_truth.size();
  return ref;
}

MetaBlockingResult RunMetaBlocking(const PreparedDataset& dataset,
                                   const MetaBlockingConfig& config) {
  return RunMetaBlocking(RefOf(dataset), config);
}

namespace {

/// Training, shared by both entry points: the balanced sample, its feature
/// rows in sample order from `rows_of`, and the fitted classifier.
std::unique_ptr<ProbabilisticClassifier> Train(
    const PreparedRef& prepared, const MetaBlockingConfig& config,
    const std::function<Matrix(const TrainingSet&)>& rows_of,
    MetaBlockingResult* result) {
  obs::ScopedPhase phase(&result->phases, obs::Phase::kTrain);
  Rng rng(config.seed);
  TrainingSet training =
      SampleBalanced(*prepared.is_positive, config.train_per_class, &rng);
  if (training.size() < 2) {
    throw std::runtime_error(
        "RunMetaBlocking: not enough labelled pairs to train (dataset '" +
        *prepared.name + "')");
  }
  std::unique_ptr<ProbabilisticClassifier> model =
      MakeClassifier(config.classifier, config.seed);
  model->Fit(rows_of(training), training.labels);
  result->training_size = training.size();
  result->model_coefficients = model->CoefficientsWithIntercept();
  return model;
}

/// The shared tail: prune the scored candidates, evaluate, and fill the
/// result's timings and optional outputs.
MetaBlockingResult PruneAndEvaluate(const PreparedRef& prepared,
                                    const MetaBlockingConfig& config,
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

  result.feature_seconds = result.phases.Get(obs::Phase::kFeatures);
  result.train_seconds = result.phases.Get(obs::Phase::kTrain);
  result.classify_seconds = result.phases.Get(obs::Phase::kClassify);
  result.prune_seconds = result.phases.Get(obs::Phase::kPrune);
  result.total_seconds = result.feature_seconds + result.train_seconds +
                         result.classify_seconds + result.prune_seconds;
  obs::CounterAdd("pairs.generated", pairs.size());
  obs::CounterAdd("pairs.retained", retained.size());
  result.metrics = EvaluateRetained(retained, *prepared.is_positive,
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
  const std::unique_ptr<ProbabilisticClassifier> model = Train(
      prepared, config,
      [&](const TrainingSet& training) {
        return SampledFeatureRows(
            *prepared.index, config.features, training.row_indices,
            [&](size_t row) { return pairs[row]; }, threads, lcp_ptr);
      },
      &result);

  // The fused sweep: every candidate's feature row is scored while it is
  // still in cache, so no |C|×d matrix exists. Features and classify
  // interleave per tile, so the sweep's wall time is split between them by
  // the workers' busy tallies.
  std::vector<double> probabilities;
  {
    obs::FusedPhases phases(&result.phases, obs::Phase::kFeatures);
    probabilities = extractor.Score(config.features, *model, threads, lcp_ptr,
                                    phases.busy());
  }
  return PruneAndEvaluate(prepared, config, std::move(probabilities),
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
  const std::unique_ptr<ProbabilisticClassifier> model = Train(
      prepared, config,
      [&](const TrainingSet& training) {
        return features.SelectRows(training.row_indices);
      },
      &result);

  std::vector<double> probabilities;
  {
    obs::ScopedPhase phase(&result.phases, obs::Phase::kClassify);
    probabilities = model->PredictBatch(features, config.execution.num_threads);
  }
  return PruneAndEvaluate(prepared, config, std::move(probabilities),
                          std::move(result));
}

}  // namespace gsmb
