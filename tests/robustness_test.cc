// Robustness / failure-injection tests: degenerate inputs, extreme
// parameters, and states a production deployment will eventually hit.

#include <gtest/gtest.h>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "core/pipeline.h"
#include "test_support.h"

namespace gsmb {
namespace {

TEST(Robustness, DatasetWithoutPositiveCandidatesStillRuns) {
  // Ground truth whose pairs never co-occur in blocks: the sampler can only
  // produce negatives; training degenerates to one class but must not
  // crash, and recall is simply 0.
  BlockCollection bc = testing::PaperExampleBlocks();
  GroundTruth gt(/*dirty=*/true);
  gt.AddMatch(0, 5);  // e1-e6: no shared block
  PreparedDataset prep = PrepareFromBlocks("nopos", std::move(bc),
                                           std::move(gt));
  MetaBlockingConfig config;
  config.train_per_class = 5;
  MetaBlockingResult result = RunMetaBlocking(prep, config);
  EXPECT_DOUBLE_EQ(result.metrics.recall, 0.0);
}

TEST(Robustness, EmptyBlockCollectionThrowsAtTraining) {
  BlockCollection empty(/*clean_clean=*/false, 10, 0);
  PreparedDataset prep =
      PrepareFromBlocks("empty", std::move(empty), GroundTruth(true));
  EXPECT_TRUE(prep.pairs.empty());
  MetaBlockingConfig config;
  EXPECT_THROW(RunMetaBlocking(prep, config), std::runtime_error);
}

TEST(Robustness, SingleCandidatePair) {
  BlockCollection bc(/*clean_clean=*/false, 2, 0);
  Block b;
  b.key = "k";
  b.left = {0, 1};
  bc.Add(b);
  GroundTruth gt(true);
  gt.AddMatch(0, 1);
  PreparedDataset prep = PrepareFromBlocks("one", std::move(bc),
                                           std::move(gt));
  MetaBlockingConfig config;
  config.train_per_class = 5;
  // One positive, zero negatives: training set has a single class but two
  // identical... actually one row. Too small -> throws.
  EXPECT_THROW(RunMetaBlocking(prep, config), std::runtime_error);
}

TEST(Robustness, BlastRatioExtremes) {
  testing::PruningFixture f = testing::RandomPruningGraph(30, 0.4, 3);
  const auto blast = MakePruningAlgorithm(PruningKind::kBlast);
  PruningContext zero = f.context;
  zero.blast_ratio = 0.0;
  PruningContext one = f.context;
  one.blast_ratio = 1.0;
  auto all_valid = MakePruningAlgorithm(PruningKind::kBCl)
                       ->Prune(f.pairs, f.probs, f.context);
  // r = 0: every valid pair clears the threshold.
  EXPECT_EQ(blast->Prune(f.pairs, f.probs, zero), all_valid);
  // r = 1: only pairs matching the max of both endpoints survive; strictly
  // fewer (or equal in degenerate graphs).
  EXPECT_LE(blast->Prune(f.pairs, f.probs, one).size(), all_valid.size());
}

TEST(Robustness, ValidityThresholdAboveAllProbabilities) {
  testing::PruningFixture f = testing::RandomPruningGraph(20, 0.4, 5);
  f.context.validity_threshold = 2.0;  // nothing is valid
  for (PruningKind kind : AllPruningKinds()) {
    EXPECT_TRUE(
        MakePruningAlgorithm(kind)->Prune(f.pairs, f.probs, f.context).empty())
        << PruningKindName(kind);
  }
}

TEST(Robustness, PurgingEverythingLeavesEmptyCollection) {
  BlockCollection bc = testing::PaperExampleBlocks();
  // Fraction so small every block exceeds it.
  BlockCollection out = BlockPurging(1e-9).Apply(bc);
  EXPECT_TRUE(out.empty());
}

TEST(Robustness, FilteringHandlesEntityAbsentFromAllBlocks) {
  // Entity 3 exists in the universe but appears in no block.
  BlockCollection bc(/*clean_clean=*/false, 4, 0);
  Block b;
  b.key = "k";
  b.left = {0, 1, 2};
  bc.Add(b);
  EXPECT_NO_THROW(BlockFiltering(0.5).Apply(bc));
}

TEST(Robustness, EntityIndexOnEmptyCollection) {
  BlockCollection bc(/*clean_clean=*/true, 0, 0);
  EntityIndex index(bc);
  EXPECT_EQ(index.num_entities(), 0u);
  EXPECT_EQ(index.num_blocks(), 0u);
  EXPECT_TRUE(GenerateCandidatePairs(index).empty());
}

TEST(Robustness, HugeCnpBudgetKeepsAllValid) {
  testing::PruningFixture f = testing::RandomPruningGraph(25, 0.4, 7);
  f.context.cnp_k = 1e9;
  auto cnp = MakePruningAlgorithm(PruningKind::kCnp)
                 ->Prune(f.pairs, f.probs, f.context);
  auto bcl = MakePruningAlgorithm(PruningKind::kBCl)
                 ->Prune(f.pairs, f.probs, f.context);
  EXPECT_EQ(cnp, bcl);
}

TEST(Robustness, ProbabilityVectorSizeMismatchIsCallerBug) {
  // Documented contract: probabilities.size() == pairs.size(). This test
  // pins the precondition by exercising the valid path only.
  std::vector<CandidatePair> pairs = {{0, 1}};
  std::vector<double> probs = {0.9};
  PruningContext ctx;
  ctx.num_nodes = 2;
  EXPECT_EQ(
      MakePruningAlgorithm(PruningKind::kBCl)->Prune(pairs, probs, ctx).size(),
      1u);
}

}  // namespace
}  // namespace gsmb
