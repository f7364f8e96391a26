#include "ml/sampler.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace gsmb {
namespace {

std::vector<uint8_t> MakeLabels(size_t n, size_t positives) {
  std::vector<uint8_t> labels(n, 0);
  for (size_t i = 0; i < positives; ++i) labels[i * (n / positives)] = 1;
  return labels;
}

TEST(Sampler, BalancedSizes) {
  std::vector<uint8_t> labels = MakeLabels(1000, 100);
  Rng rng(1);
  TrainingSet ts = SampleBalanced(labels, 25, &rng);
  EXPECT_EQ(ts.size(), 50u);
  size_t positives = 0;
  for (int l : ts.labels) positives += static_cast<size_t>(l);
  EXPECT_EQ(positives, 25u);
}

TEST(Sampler, LabelsMatchSource) {
  std::vector<uint8_t> labels = MakeLabels(500, 50);
  Rng rng(2);
  TrainingSet ts = SampleBalanced(labels, 10, &rng);
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(static_cast<int>(labels[ts.row_indices[i]]), ts.labels[i]);
  }
}

TEST(Sampler, IndicesDistinct) {
  std::vector<uint8_t> labels = MakeLabels(200, 40);
  Rng rng(3);
  TrainingSet ts = SampleBalanced(labels, 20, &rng);
  std::set<size_t> distinct(ts.row_indices.begin(), ts.row_indices.end());
  EXPECT_EQ(distinct.size(), ts.size());
}

TEST(Sampler, TakesAllWhenClassTooSmall) {
  std::vector<uint8_t> labels(100, 0);
  labels[3] = labels[7] = labels[11] = 1;  // only 3 positives
  Rng rng(4);
  TrainingSet ts = SampleBalanced(labels, 25, &rng);
  size_t positives = 0;
  for (int l : ts.labels) positives += static_cast<size_t>(l);
  EXPECT_EQ(positives, 3u);
  EXPECT_EQ(ts.size(), 3u + 25u);
}

TEST(Sampler, DeterministicGivenSeed) {
  std::vector<uint8_t> labels = MakeLabels(400, 80);
  Rng a(42);
  Rng b(42);
  TrainingSet ta = SampleBalanced(labels, 15, &a);
  TrainingSet tb = SampleBalanced(labels, 15, &b);
  EXPECT_EQ(ta.row_indices, tb.row_indices);
  EXPECT_EQ(ta.labels, tb.labels);
}

TEST(Sampler, DifferentSeedsDiffer) {
  std::vector<uint8_t> labels = MakeLabels(400, 80);
  Rng a(1);
  Rng b(2);
  EXPECT_NE(SampleBalanced(labels, 15, &a).row_indices,
            SampleBalanced(labels, 15, &b).row_indices);
}

TEST(Sampler, EmptyInput) {
  std::vector<uint8_t> labels;
  Rng rng(5);
  TrainingSet ts = SampleBalanced(labels, 25, &rng);
  EXPECT_EQ(ts.size(), 0u);
}

// Literal samples recorded from the original O(|C|) pool sampler: the
// O(k) plan sampler must reproduce its rows and their order exactly.
TEST(Sampler, RowsPinnedBalanced) {
  Rng rng(1);
  const TrainingSet ts = SampleBalanced(MakeLabels(1000, 100), 25, &rng);
  const std::vector<size_t> expected = {
      0,   70,  100, 180, 190, 280, 320, 350, 400, 450, 530, 540, 570,
      590, 620, 640, 650, 660, 720, 790, 800, 830, 850, 870, 890, 18,
      172, 229, 248, 264, 327, 336, 372, 399, 471, 508, 541, 593, 622,
      654, 712, 743, 802, 859, 871, 888, 895, 914, 941, 999};
  EXPECT_EQ(ts.row_indices, expected);
}

TEST(Sampler, RowsPinnedWhenClassTooSmall) {
  std::vector<uint8_t> labels(100, 0);
  labels[3] = labels[7] = labels[11] = 1;
  Rng rng(4);
  const TrainingSet ts = SampleBalanced(labels, 25, &rng);
  const std::vector<size_t> expected = {3,  7,  11, 0,  1,  2,  21,
                                        22, 25, 31, 37, 39, 48, 52,
                                        54, 56, 58, 68, 72, 73, 80,
                                        81, 87, 88, 91, 92, 97, 99};
  EXPECT_EQ(ts.row_indices, expected);
  const std::vector<int> expected_labels = {1, 1, 1, 0, 0, 0, 0, 0, 0, 0,
                                            0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                            0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(ts.labels, expected_labels);
}

// The label-byte overload only gathers the ascending positives; both
// overloads draw the same rows in the same order.
TEST(Sampler, ByteLabelsEqualPositiveIndices) {
  struct Case {
    std::vector<uint8_t> labels;
    size_t per_class;
  };
  std::vector<uint8_t> all_positive(30, 1);
  std::vector<uint8_t> head_positive(50, 0);
  head_positive[0] = head_positive[1] = head_positive[2] = 1;
  std::vector<uint8_t> tail_positive(50, 0);
  tail_positive[48] = tail_positive[49] = 1;
  const std::vector<Case> cases = {
      {{}, 25},                      // empty input
      {MakeLabels(1000, 100), 25},   // both classes larger than k
      {MakeLabels(200, 40), 40},     // k == positives
      {MakeLabels(200, 40), 500},    // k >= both class sizes
      {all_positive, 10},            // no negatives at all
      {head_positive, 5},            // positives below every negative
      {tail_positive, 5},            // positives above every negative
      {std::vector<uint8_t>(40, 0), 7},  // no positives at all
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    std::vector<uint64_t> positives;
    for (size_t i = 0; i < cases[c].labels.size(); ++i) {
      if (cases[c].labels[i]) positives.push_back(i);
    }
    for (uint64_t seed : {0, 1, 42}) {
      Rng a(seed);
      Rng b(seed);
      const TrainingSet from_bytes =
          SampleBalanced(cases[c].labels, cases[c].per_class, &a);
      const TrainingSet from_plan = SampleBalanced(
          positives, cases[c].labels.size(), cases[c].per_class, &b);
      EXPECT_EQ(from_bytes.row_indices, from_plan.row_indices) << "case " << c;
      EXPECT_EQ(from_bytes.labels, from_plan.labels) << "case " << c;
      for (size_t i = 0; i < from_plan.size(); ++i) {
        EXPECT_EQ(cases[c].labels[from_plan.row_indices[i]],
                  from_plan.labels[i])
            << "case " << c;
      }
      // Both generators consumed the same draws.
      EXPECT_EQ(a.NextUint64(1000), b.NextUint64(1000)) << "case " << c;
    }
  }
}

// The original O(|C|) algorithm: explicit positive and negative index
// pools, a dense partial Fisher-Yates over each, then a sort per class.
TrainingSet PoolSample(const std::vector<uint8_t>& is_positive,
                       size_t per_class, Rng* rng) {
  std::vector<size_t> pools[2];
  for (size_t i = 0; i < is_positive.size(); ++i) {
    pools[is_positive[i] ? 0 : 1].push_back(i);
  }
  TrainingSet ts;
  for (int c = 0; c < 2; ++c) {
    std::vector<size_t> chosen;
    for (size_t k : rng->SampleWithoutReplacement(
             pools[c].size(), std::min(per_class, pools[c].size()))) {
      chosen.push_back(pools[c][k]);
    }
    std::sort(chosen.begin(), chosen.end());
    for (size_t i : chosen) {
      ts.row_indices.push_back(i);
      ts.labels.push_back(c == 0 ? 1 : 0);
    }
  }
  return ts;
}

TEST(Sampler, MatchesDensePoolReference) {
  Rng labels_rng(11);
  for (size_t trial = 0; trial < 40; ++trial) {
    const size_t n = labels_rng.NextUint64(400);
    const double positive_rate = labels_rng.NextDouble();
    std::vector<uint8_t> labels(n);
    for (uint8_t& l : labels) l = labels_rng.NextBool(positive_rate) ? 1 : 0;
    const size_t per_class = labels_rng.NextUint64(60);
    Rng a(trial);
    Rng b(trial);
    const TrainingSet expected = PoolSample(labels, per_class, &a);
    const TrainingSet actual = SampleBalanced(labels, per_class, &b);
    EXPECT_EQ(actual.row_indices, expected.row_indices) << "trial " << trial;
    EXPECT_EQ(actual.labels, expected.labels) << "trial " << trial;
  }
}

TEST(Sampler, FivePercentRule) {
  EXPECT_EQ(FivePercentRuleSize(1000), 50u);
  EXPECT_EQ(FivePercentRuleSize(2224), 112u);  // DblpAcm: ceil(111.2)
  EXPECT_EQ(FivePercentRuleSize(10), 1u);
  EXPECT_EQ(FivePercentRuleSize(0), 1u);  // floor of one
}

}  // namespace
}  // namespace gsmb
