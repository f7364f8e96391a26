#include "core/features.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "gsmb/telemetry.h"
#include "ml/classifier.h"
#include "ml/sampler.h"
#include "test_support.h"

namespace gsmb {
namespace {

// All closed-form expectations below are hand-computed from the paper's
// Figure 1 example (see test_support.h for the block layout):
//   |B| = 8, ||B|| = 24.
//   e5 (id 5): blocks {samsung(||6||), mate(1), phone(1), fold(1)}.
//   e6 (id 6): blocks {samsung(6), 20(3), mate(1), phone(1), fold(1)}.
//   pair (5,6): 4 common blocks.
class PaperFeaturesTest : public ::testing::Test {
 protected:
  PaperFeaturesTest()
      : bc_(testing::PaperExampleBlocks()),
        index_(bc_),
        pairs_(GenerateCandidatePairs(index_)),
        extractor_(index_, pairs_) {}

  size_t RowOf(EntityId left, EntityId right) const {
    for (size_t i = 0; i < pairs_.size(); ++i) {
      if (pairs_[i].left == left && pairs_[i].right == right) return i;
    }
    ADD_FAILURE() << "pair not found";
    return 0;
  }

  BlockCollection bc_;
  EntityIndex index_;
  std::vector<CandidatePair> pairs_;
  FeatureExtractor extractor_;
};

TEST_F(PaperFeaturesTest, MatrixShape) {
  Matrix all = extractor_.ComputeAll();
  EXPECT_EQ(all.rows(), 16u);
  EXPECT_EQ(all.cols(), 9u);
  Matrix js = extractor_.Compute(FeatureSet({Feature::kJs}));
  EXPECT_EQ(js.cols(), 1u);
}

TEST_F(PaperFeaturesTest, JaccardScheme) {
  Matrix js = extractor_.Compute(FeatureSet({Feature::kJs}));
  // (5,6): 4 / (4 + 5 - 4) = 0.8.
  EXPECT_NEAR(js.At(RowOf(5, 6), 0), 0.8, 1e-12);
  // (0,2): 3 / (3 + 3 - 3) = 1.0 — identical block sets.
  EXPECT_NEAR(js.At(RowOf(0, 2), 0), 1.0, 1e-12);
  // (0,1): 1 / (3 + 2 - 1) = 0.25.
  EXPECT_NEAR(js.At(RowOf(0, 1), 0), 0.25, 1e-12);
}

TEST_F(PaperFeaturesTest, CfIbf) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kCfIbf}));
  // (5,6): 4 * log(8/4) * log(8/5).
  EXPECT_NEAR(m.At(RowOf(5, 6), 0),
              4.0 * std::log(2.0) * std::log(8.0 / 5.0), 1e-12);
  // (1,3): 2 common, |B1| = 2, |B3| = 3.
  EXPECT_NEAR(m.At(RowOf(1, 3), 0),
              2.0 * std::log(4.0) * std::log(8.0 / 3.0), 1e-12);
}

TEST_F(PaperFeaturesTest, Raccb) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kRaccb}));
  // (5,6): common blocks samsung(6), mate(1), phone(1), fold(1).
  EXPECT_NEAR(m.At(RowOf(5, 6), 0), 1.0 / 6 + 3.0, 1e-12);
  // (0,2): apple(1), iphone(1), smartphone(10).
  EXPECT_NEAR(m.At(RowOf(0, 2), 0), 2.1, 1e-12);
}

TEST_F(PaperFeaturesTest, ReciprocalSizes) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kRs}));
  // (5,6): sizes 4, 2, 2, 2 -> 1/4 + 3/2.
  EXPECT_NEAR(m.At(RowOf(5, 6), 0), 0.25 + 1.5, 1e-12);
  // (3,4): common blocks 20(size 3), smartphone(size 5).
  EXPECT_NEAR(m.At(RowOf(3, 4), 0), 1.0 / 3 + 0.2, 1e-12);
}

TEST_F(PaperFeaturesTest, WeightedJaccard) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kWjs}));
  // (5,6): common = 1/6+3; denominators: e5 = 1/6+3, e6 = 1/6+1/3+3.
  const double common = 1.0 / 6 + 3.0;
  const double e5 = 1.0 / 6 + 3.0;
  const double e6 = 1.0 / 6 + 1.0 / 3 + 3.0;
  EXPECT_NEAR(m.At(RowOf(5, 6), 0), common / (e5 + e6 - common), 1e-12);
}

TEST_F(PaperFeaturesTest, NormalizedReciprocalSizes) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kNrs}));
  const double common = 0.25 + 1.5;
  const double e5 = 0.25 + 1.5;
  const double e6 = 0.25 + 1.0 / 3 + 1.5;
  EXPECT_NEAR(m.At(RowOf(5, 6), 0), common / (e5 + e6 - common), 1e-12);
}

TEST_F(PaperFeaturesTest, EnhancedJaccard) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kEjs}));
  // (5,6): JS = 0.8, ||e5|| = 9, ||e6|| = 12, ||B|| = 24.
  EXPECT_NEAR(m.At(RowOf(5, 6), 0),
              0.8 * std::log(24.0 / 9.0) * std::log(2.0), 1e-12);
}

TEST_F(PaperFeaturesTest, LcpPerEntity) {
  std::vector<double> lcp = extractor_.ComputeLcpPerEntity();
  ASSERT_EQ(lcp.size(), 7u);
  // e0 co-occurs with {2 (apple, iphone), 1, 3, 4 (smartphone)} -> 4.
  EXPECT_DOUBLE_EQ(lcp[0], 4.0);
  // e5 co-occurs with {1, 3, 6} -> 3.
  EXPECT_DOUBLE_EQ(lcp[5], 3.0);
  // e6 co-occurs with {1, 3, 5 (samsung), 4 (20)} -> 4.
  EXPECT_DOUBLE_EQ(lcp[6], 4.0);
}

TEST_F(PaperFeaturesTest, LcpColumnsInPairMatrix) {
  Matrix m = extractor_.Compute(FeatureSet({Feature::kLcp}));
  ASSERT_EQ(m.cols(), 2u);
  size_t row = RowOf(5, 6);
  EXPECT_DOUBLE_EQ(m.At(row, 0), 3.0);  // LCP(e5)
  EXPECT_DOUBLE_EQ(m.At(row, 1), 4.0);  // LCP(e6)
}

TEST_F(PaperFeaturesTest, SubsetColumnsMatchFullMatrix) {
  Matrix all = extractor_.ComputeAll();
  FeatureSet subset({Feature::kRaccb, Feature::kWjs, Feature::kNrs});
  Matrix sub = extractor_.Compute(subset);
  Matrix selected = all.SelectColumns(subset.FullMatrixColumns());
  ASSERT_EQ(sub.rows(), selected.rows());
  ASSERT_EQ(sub.cols(), selected.cols());
  for (size_t r = 0; r < sub.rows(); ++r) {
    for (size_t c = 0; c < sub.cols(); ++c) {
      EXPECT_DOUBLE_EQ(sub.At(r, c), selected.At(r, c)) << r << "," << c;
    }
  }
}

// Brute-force reference implementation for Clean-Clean feature extraction:
// every quantity recomputed from scratch per pair.
TEST(FeaturesCleanClean, MatchesBruteForce) {
  const PreparedDataset& prep = gsmb::testing::MediumDataset();
  const EntityIndex& index = *prep.index;
  FeatureExtractor extractor(index, prep.pairs);
  Matrix all = extractor.ComputeAll();

  const size_t offset = index.num_left();
  const size_t sample_step = std::max<size_t>(1, prep.pairs.size() / 200);
  for (size_t r = 0; r < prep.pairs.size(); r += sample_step) {
    const CandidatePair& p = prep.pairs[r];
    const size_t gi = p.left;
    const size_t gj = offset + p.right;
    const double common = static_cast<double>(index.CommonBlocks(gi, gj));
    ASSERT_GT(common, 0.0);

    // Recompute the common-block sums by intersecting the block lists.
    double inv_cmp = 0.0;
    double inv_size = 0.0;
    auto bi = index.BlocksOf(gi);
    auto bj = index.BlocksOf(gj);
    size_t a = 0;
    size_t b = 0;
    while (a < bi.size() && b < bj.size()) {
      if (bi[a] < bj[b]) {
        ++a;
      } else if (bj[b] < bi[a]) {
        ++b;
      } else {
        inv_cmp += 1.0 / index.BlockComparisons(bi[a]);
        inv_size += 1.0 / static_cast<double>(index.BlockSize(bi[a]));
        ++a;
        ++b;
      }
    }

    const double nbi = static_cast<double>(index.NumBlocksOf(gi));
    const double nbj = static_cast<double>(index.NumBlocksOf(gj));
    const double nb = static_cast<double>(index.num_blocks());
    EXPECT_NEAR(all.At(r, 0),
                common * std::log(nb / nbi) * std::log(nb / nbj), 1e-9);
    EXPECT_NEAR(all.At(r, 1), inv_cmp, 1e-9);
    EXPECT_NEAR(all.At(r, 2), common / (nbi + nbj - common), 1e-9);
    const double js = common / (nbi + nbj - common);
    EXPECT_NEAR(all.At(r, 5),
                js * std::log(index.TotalComparisons() /
                              index.EntityComparisons(gi)) *
                    std::log(index.TotalComparisons() /
                             index.EntityComparisons(gj)),
                1e-9);
    EXPECT_NEAR(all.At(r, 6),
                inv_cmp / (index.SumInvBlockComparisons(gi) +
                           index.SumInvBlockComparisons(gj) - inv_cmp),
                1e-9);
    EXPECT_NEAR(all.At(r, 7), inv_size, 1e-9);
    EXPECT_NEAR(all.At(r, 8),
                inv_size / (index.SumInvBlockSizes(gi) +
                            index.SumInvBlockSizes(gj) - inv_size),
                1e-9);
  }
}

// A 64-bit fold of the raw bits of every value, in order: any change to
// any bit of any feature changes the fold.
uint64_t FoldBits(const std::vector<double>& values) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h ^= bits;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The kernel's floating-point expressions are pinned bit for bit: these
// folds were recorded from the original per-row kernel. Retained digests
// are far coarser than feature bits, so this is what catches a reordered
// expression or a changed per-entity term.
TEST(FeatureKernel, AllColumnsBitsPinnedCleanClean) {
  const PreparedDataset& prep = gsmb::testing::MediumDataset();
  FeatureExtractor extractor(*prep.index, prep.pairs);
  ASSERT_EQ(prep.pairs.size(), 47718u);
  EXPECT_EQ(FoldBits(extractor.ComputeAll(1).data()), 0xa75f7a10d1bd8e05ULL);
  EXPECT_EQ(FoldBits(extractor.ComputeAll(4).data()), 0xa75f7a10d1bd8e05ULL);
}

TEST(FeatureKernel, AllColumnsBitsPinnedDirty) {
  const PreparedDataset& prep = gsmb::testing::SmallDirtyDataset();
  FeatureExtractor extractor(*prep.index, prep.pairs);
  ASSERT_EQ(prep.pairs.size(), 49049u);
  EXPECT_EQ(FoldBits(extractor.ComputeAll(1).data()), 0x288816b1398e1f90ULL);
  EXPECT_EQ(FoldBits(extractor.ComputeAll(4).data()), 0x288816b1398e1f90ULL);
}

// Score() is the fused sweep: the same rows as Compute(), scored in place.
TEST(FeatureKernel, ScoreEqualsPredictBatchOfCompute) {
  for (const PreparedDataset* prep : {&gsmb::testing::MediumDataset(),
                                      &gsmb::testing::SmallDirtyDataset()}) {
    FeatureExtractor extractor(*prep->index, prep->pairs);
    for (const FeatureSet& set :
         {FeatureSet::BlastOptimal(), FeatureSet::RcnpOptimal(),
          FeatureSet::Paper2014(), FeatureSet::All()}) {
      const Matrix features = extractor.Compute(set, 1);
      Rng rng(5);
      const TrainingSet training = SampleBalanced(prep->is_positive, 25, &rng);
      auto model = MakeClassifier(ClassifierKind::kLogisticRegression);
      model->Fit(features.SelectRows(training.row_indices), training.labels);
      for (size_t threads : {1, 4}) {
        EXPECT_EQ(extractor.Score(set, *model, threads),
                  model->PredictBatch(extractor.Compute(set, threads),
                                      threads))
            << prep->name << " " << set.ToString() << " " << threads
            << " threads";
      }
    }
  }
}

/// Prefix sums of the per-pivot candidate counts of `prep.pairs` — what the
/// streaming preparation counts without materialising the pairs.
std::vector<uint64_t> PivotOffsets(const PreparedDataset& prep) {
  std::vector<uint64_t> offsets(NumCandidatePivots(*prep.index) + 1, 0);
  for (const CandidatePair& pair : prep.pairs) ++offsets[pair.left + 1];
  for (size_t p = 1; p < offsets.size(); ++p) offsets[p] += offsets[p - 1];
  return offsets;
}

/// The raw bits of every value, so EXPECT_EQ compares bit for bit.
std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    std::memcpy(&bits[i], &values[i], sizeof(double));
  }
  return bits;
}

// ScoreCandidateRange() is the streaming shard fill: it regenerates the
// pairs of a slice of the global candidate order and scores them in the
// same pass. Its pairs must be that slice of GenerateCandidatePairs and its
// probabilities that slice of Score(), bit for bit, wherever the slice
// starts and ends.
TEST(FeatureKernel, ScoreCandidateRangeEqualsSliceOfScore) {
  for (const PreparedDataset* prep : {&gsmb::testing::MediumDataset(),
                                      &gsmb::testing::SmallDirtyDataset()}) {
    const std::vector<uint64_t> offsets = PivotOffsets(*prep);
    const uint64_t n = offsets.back();
    ASSERT_EQ(n, prep->pairs.size());
    // A pivot with at least three candidates, past the first few.
    size_t pivot = 10;
    while (offsets[pivot + 1] - offsets[pivot] < 3) ++pivot;
    const uint64_t mid = offsets[pivot] + 1;
    const std::vector<std::pair<uint64_t, uint64_t>> ranges = {
        {0, n},                               // everything
        {mid, mid},                           // empty
        {mid, mid + 1},                       // one candidate
        {mid, n / 2},                         // starts mid-pivot
        {offsets[pivot], mid + 1},            // ends mid-pivot
        {mid, offsets[pivot + 1]},            // one pivot's tail
        {n / 3 + 7, 2 * n / 3 + 5}};          // arbitrary cuts
    FeatureExtractor extractor(*prep->index, prep->pairs);
    for (const FeatureSet& set :
         {FeatureSet::BlastOptimal(), FeatureSet::RcnpOptimal(),
          FeatureSet::Paper2014(), FeatureSet::All()}) {
      Rng rng(5);
      const TrainingSet training = SampleBalanced(prep->is_positive, 25, &rng);
      auto model = MakeClassifier(ClassifierKind::kLogisticRegression);
      model->Fit(extractor.Compute(set).SelectRows(training.row_indices),
                 training.labels);
      const std::vector<double> scored = extractor.Score(set, *model, 1);
      for (size_t threads : {1, 4}) {
        for (const auto& [first, end] : ranges) {
          SCOPED_TRACE(prep->name + " " + set.ToString() + " [" +
                       std::to_string(first) + ", " + std::to_string(end) +
                       ") " + std::to_string(threads) + " threads");
          std::vector<CandidatePair> pairs = {{1, 2}};  // overwritten
          std::vector<double> probabilities = {0.5};
          ScoreCandidateRange(*prep->index, offsets, first, end, set, *model,
                              threads, nullptr, &pairs, &probabilities,
                              nullptr);
          EXPECT_EQ(pairs, std::vector<CandidatePair>(
                               prep->pairs.begin() + first,
                               prep->pairs.begin() + end));
          EXPECT_EQ(Bits(probabilities),
                    Bits(std::vector<double>(scored.begin() + first,
                                             scored.begin() + end)));
        }
      }
    }
  }
}

// The busy tallies the fused-region attribution splits wall time by: the
// range scorer charges its three stages and nothing else; Score() its two.
TEST(FeatureKernel, ScorersTallyBusySecondsPerStage) {
  const PreparedDataset& prep = gsmb::testing::SmallDirtyDataset();
  const std::vector<uint64_t> offsets = PivotOffsets(prep);
  const FeatureSet set = FeatureSet::BlastOptimal();
  FeatureExtractor extractor(*prep.index, prep.pairs);
  Rng rng(5);
  const TrainingSet training = SampleBalanced(prep.is_positive, 25, &rng);
  auto model = MakeClassifier(ClassifierKind::kLogisticRegression);
  model->Fit(extractor.Compute(set).SelectRows(training.row_indices),
             training.labels);

  obs::PhaseTimings range_busy;
  std::vector<CandidatePair> pairs;
  std::vector<double> probabilities;
  ScoreCandidateRange(*prep.index, offsets, 0, offsets.back(), set, *model, 4,
                      nullptr, &pairs, &probabilities, &range_busy);
  obs::PhaseTimings score_busy;
  const std::vector<double> scored =
      extractor.Score(set, *model, 4, nullptr, &score_busy);
  EXPECT_EQ(Bits(probabilities), Bits(scored));  // tallies change nothing

  for (obs::Phase phase :
       {obs::Phase::kPairs, obs::Phase::kFeatures, obs::Phase::kClassify}) {
    EXPECT_GT(range_busy.Get(phase), 0.0) << obs::PhaseName(phase);
  }
  EXPECT_EQ(score_busy.Get(obs::Phase::kPairs), 0.0);
  EXPECT_GT(score_busy.Get(obs::Phase::kFeatures), 0.0);
  EXPECT_GT(score_busy.Get(obs::Phase::kClassify), 0.0);
  for (obs::Phase phase :
       {obs::Phase::kBlocking, obs::Phase::kTrain, obs::Phase::kPrune}) {
    EXPECT_EQ(range_busy.Get(phase), 0.0);
    EXPECT_EQ(score_busy.Get(phase), 0.0);
  }
}

TEST(FeatureKernel, SampledRowsEqualFullMatrixRows) {
  const PreparedDataset& prep = gsmb::testing::MediumDataset();
  const FeatureSet set = FeatureSet::All();
  const Matrix all = FeatureExtractor(*prep.index, prep.pairs).Compute(set);
  // Unsorted, with a pivot's rows split apart — as a balanced sample lists
  // its positives, then its negatives.
  const std::vector<size_t> rows = {prep.pairs.size() - 1, 17, 3, 40000,
                                    18, 0, 12345};
  size_t calls = 0;
  size_t last = 0;
  const Matrix sampled = SampledFeatureRows(
      *prep.index, set, rows,
      [&](size_t row) {
        EXPECT_TRUE(calls == 0 || row > last) << "indices not ascending";
        ++calls;
        last = row;
        return prep.pairs[row];
      },
      4, nullptr);
  EXPECT_EQ(calls, rows.size());
  EXPECT_EQ(sampled.data(), all.SelectRows(rows).data());
}

}  // namespace
}  // namespace gsmb
