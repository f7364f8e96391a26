#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace gsmb {
namespace {

TEST(Prepare, CleanCleanProducesConsistentState) {
  const PreparedDataset& prep = testing::MediumDataset();
  EXPECT_TRUE(prep.clean_clean);
  EXPECT_GT(prep.blocks.size(), 0u);
  EXPECT_GT(prep.pairs.size(), 0u);
  EXPECT_EQ(prep.is_positive.size(), prep.pairs.size());
  // is_positive agrees with the ground truth.
  for (size_t i = 0; i < prep.pairs.size(); i += 97) {
    EXPECT_EQ(prep.is_positive[i] != 0,
              prep.ground_truth.IsMatch(prep.pairs[i].left,
                                        prep.pairs[i].right));
  }
  // Blocking quality measures are consistent.
  EXPECT_GT(prep.blocking_quality.recall, 0.5);
  EXPECT_LT(prep.blocking_quality.precision, 0.5);
  EXPECT_EQ(prep.blocking_quality.num_candidates, prep.pairs.size());
}

TEST(Prepare, DirtyProducesConsistentState) {
  const PreparedDataset& prep = testing::SmallDirtyDataset();
  EXPECT_FALSE(prep.clean_clean);
  EXPECT_GT(prep.pairs.size(), 0u);
  EXPECT_GT(prep.blocking_quality.recall, 0.5);
}

TEST(Prepare, MismatchedGroundTruthSemanticsThrow) {
  testing::TinyCleanClean t = testing::MakeTinyCleanClean();
  GroundTruth dirty_gt(/*dirty=*/true);
  EXPECT_THROW(PrepareCleanClean("x", t.e1, t.e2, dirty_gt),
               std::invalid_argument);
  GroundTruth clean_gt(/*dirty=*/false);
  EXPECT_THROW(PrepareDirty("x", t.e1, clean_gt), std::invalid_argument);
}

TEST(Prepare, FromBlocksSkipsPreprocessing) {
  BlockCollection bc = testing::PaperExampleBlocks();
  PreparedDataset prep = PrepareFromBlocks(
      "paper", bc, testing::PaperExampleGroundTruth());
  EXPECT_EQ(prep.pairs.size(), 16u);
  EXPECT_DOUBLE_EQ(prep.blocking_quality.recall, 1.0);
  EXPECT_DOUBLE_EQ(prep.stats.cep_k, 11.0);
}

TEST(EvaluateRetained, Arithmetic) {
  std::vector<uint8_t> is_positive = {1, 0, 1, 0, 0};
  EffectivenessMetrics m = EvaluateRetained({0, 1, 2}, is_positive, 4);
  EXPECT_EQ(m.true_positives, 2u);
  EXPECT_EQ(m.retained, 3u);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
  EXPECT_DOUBLE_EQ(m.precision, 2.0 / 3.0);
  EXPECT_NEAR(m.f1, 2 * 0.5 * (2.0 / 3) / (0.5 + 2.0 / 3), 1e-12);
}

TEST(EvaluateRetained, EmptyRetention) {
  std::vector<uint8_t> is_positive = {1, 0};
  EffectivenessMetrics m = EvaluateRetained({}, is_positive, 2);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
}

TEST(RunMetaBlocking, EndToEndProducesSaneMetrics) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.pruning = PruningKind::kBlast;
  config.features = FeatureSet::BlastOptimal();
  config.train_per_class = 25;
  config.seed = 0;
  MetaBlockingResult result = RunMetaBlocking(prep, config);
  EXPECT_GE(result.metrics.recall, 0.0);
  EXPECT_LE(result.metrics.recall, 1.0);
  EXPECT_GE(result.metrics.precision, 0.0);
  EXPECT_LE(result.metrics.precision, 1.0);
  EXPECT_GT(result.metrics.retained, 0u);
  EXPECT_LT(result.metrics.retained, prep.pairs.size());
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_EQ(result.training_size, 50u);
  // Coefficients: 4 features + intercept.
  EXPECT_EQ(result.model_coefficients.size(), 5u);
  // Meta-blocking must sharply improve precision over raw blocking.
  EXPECT_GT(result.metrics.precision, 2.0 * prep.blocking_quality.precision);
}

TEST(RunMetaBlocking, KeepFlagsPopulateOutputs) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.keep_probabilities = true;
  config.keep_retained = true;
  config.train_per_class = 25;
  MetaBlockingResult result = RunMetaBlocking(prep, config);
  EXPECT_EQ(result.probabilities.size(), prep.pairs.size());
  EXPECT_EQ(result.retained_indices.size(), result.metrics.retained);
  for (double p : result.probabilities) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RunMetaBlocking, DeterministicGivenSeed) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.train_per_class = 25;
  config.seed = 7;
  MetaBlockingResult a = RunMetaBlocking(prep, config);
  MetaBlockingResult b = RunMetaBlocking(prep, config);
  EXPECT_EQ(a.metrics.retained, b.metrics.retained);
  EXPECT_DOUBLE_EQ(a.metrics.recall, b.metrics.recall);
  EXPECT_DOUBLE_EQ(a.metrics.precision, b.metrics.precision);
}

TEST(RunMetaBlocking, DifferentSeedsVarySample) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.train_per_class = 10;
  config.seed = 1;
  MetaBlockingResult a = RunMetaBlocking(prep, config);
  config.seed = 2;
  MetaBlockingResult b = RunMetaBlocking(prep, config);
  // Different training samples almost surely change the retained count.
  EXPECT_NE(a.model_coefficients, b.model_coefficients);
}

TEST(RunMetaBlocking, WithPrecomputedFeaturesValidatesShape) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  Matrix wrong_rows(3, config.features.Dimensions());
  EXPECT_THROW(RunMetaBlockingWithFeatures(prep, config, wrong_rows),
               std::invalid_argument);
  Matrix wrong_cols(prep.pairs.size(), 1);
  EXPECT_THROW(RunMetaBlockingWithFeatures(prep, config, wrong_cols),
               std::invalid_argument);
}

TEST(RunMetaBlocking, SvcClassifierWorks) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.classifier = ClassifierKind::kLinearSvc;
  config.train_per_class = 25;
  MetaBlockingResult result = RunMetaBlocking(prep, config);
  EXPECT_GT(result.metrics.f1, 0.0);
}

TEST(RunMetaBlocking, AllPruningKindsProduceResults) {
  const PreparedDataset& prep = testing::MediumDataset();
  for (PruningKind kind : AllPruningKinds()) {
    MetaBlockingConfig config;
    config.pruning = kind;
    config.train_per_class = 25;
    MetaBlockingResult result = RunMetaBlocking(prep, config);
    EXPECT_GT(result.metrics.retained, 0u) << PruningKindName(kind);
  }
}

// The fused path (train on the sampled pairs' rows, Score every candidate)
// must equal training on SelectRows of the full matrix and PredictBatch
// over it, for every pruning kind, on Clean-Clean and Dirty ER.
TEST(RunMetaBlocking, FusedSweepEqualsPrecomputedMatrix) {
  for (const PreparedDataset* prep :
       {&testing::MediumDataset(), &testing::SmallDirtyDataset()}) {
    for (const FeatureSet& set :
         {FeatureSet::BlastOptimal(), FeatureSet::RcnpOptimal()}) {
      const Matrix features =
          FeatureExtractor(*prep->index, prep->pairs).Compute(set, 2);
      for (PruningKind kind : AllPruningKinds()) {
        MetaBlockingConfig config;
        config.features = set;
        config.pruning = kind;
        config.train_per_class = 25;
        config.seed = 3;
        config.keep_probabilities = true;
        config.keep_retained = true;
        config.execution.num_threads = 2;
        const MetaBlockingResult fused = RunMetaBlocking(*prep, config);
        const MetaBlockingResult reference =
            RunMetaBlockingWithFeatures(*prep, config, features);
        const std::string label =
            prep->name + " " + set.ToString() + " " + PruningKindName(kind);
        EXPECT_EQ(fused.probabilities, reference.probabilities) << label;
        EXPECT_EQ(fused.model_coefficients, reference.model_coefficients)
            << label;
        EXPECT_EQ(fused.retained_indices, reference.retained_indices)
            << label;
        EXPECT_EQ(fused.training_size, reference.training_size) << label;
        EXPECT_GT(fused.retained_indices.size(), 0u) << label;
        // The fused sweep's wall time is split between features and
        // classify by the workers' busy tallies: both get a share.
        EXPECT_GT(fused.feature_seconds, 0.0) << label;
        EXPECT_GT(fused.classify_seconds, 0.0) << label;
      }
    }
  }
}

}  // namespace
}  // namespace gsmb
