#include "blocking/candidate_pairs.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.h"
#include "util/random.h"

namespace gsmb {
namespace {

TEST(CandidatePairs, PaperExampleDistinctSet) {
  BlockCollection bc = testing::PaperExampleBlocks();
  EntityIndex index(bc);
  auto pairs = GenerateCandidatePairs(index);
  // 16 distinct comparisons (hand-enumerated from the 8 blocks).
  EXPECT_EQ(pairs.size(), 16u);
  std::set<std::pair<EntityId, EntityId>> got;
  for (const CandidatePair& p : pairs) got.insert({p.left, p.right});
  const std::set<std::pair<EntityId, EntityId>> expected = {
      {0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {1, 5},
      {1, 6}, {2, 3}, {2, 4}, {3, 4}, {3, 5}, {3, 6}, {4, 6}, {5, 6}};
  EXPECT_EQ(got, expected);
}

TEST(CandidatePairs, GroupedAndSortedOrder) {
  BlockCollection bc = testing::PaperExampleBlocks();
  EntityIndex index(bc);
  auto pairs = GenerateCandidatePairs(index);
  for (size_t i = 1; i < pairs.size(); ++i) {
    const bool left_ascending = pairs[i - 1].left <= pairs[i].left;
    EXPECT_TRUE(left_ascending);
    if (pairs[i - 1].left == pairs[i].left) {
      EXPECT_LT(pairs[i - 1].right, pairs[i].right);
    }
  }
}

TEST(CandidatePairs, DirtyPairsHaveLeftLessThanRight) {
  BlockCollection bc = testing::PaperExampleBlocks();
  EntityIndex index(bc);
  for (const CandidatePair& p : GenerateCandidatePairs(index)) {
    EXPECT_LT(p.left, p.right);
  }
}

TEST(CandidatePairs, CleanCleanCrossPairsOnly) {
  BlockCollection bc(/*clean_clean=*/true, 3, 3);
  Block b;
  b.key = "k";
  b.left = {0, 1};
  b.right = {1, 2};
  bc.Add(b);
  EntityIndex index(bc);
  auto pairs = GenerateCandidatePairs(index);
  ASSERT_EQ(pairs.size(), 4u);
  // (left local, right local): all cross combinations.
  EXPECT_EQ(pairs[0], (CandidatePair{0, 1}));
  EXPECT_EQ(pairs[1], (CandidatePair{0, 2}));
  EXPECT_EQ(pairs[2], (CandidatePair{1, 1}));
  EXPECT_EQ(pairs[3], (CandidatePair{1, 2}));
}

TEST(CandidatePairs, RedundantComparisonsDeduplicated) {
  // Two blocks implying the same pair produce it once.
  BlockCollection bc(/*clean_clean=*/true, 1, 1);
  for (int i = 0; i < 2; ++i) {
    Block b;
    b.key = std::string{"k"} + std::to_string(i);  // GCC PR105651 (-Wrestrict)
    b.left = {0};
    b.right = {0};
    bc.Add(b);
  }
  EntityIndex index(bc);
  auto pairs = GenerateCandidatePairs(index);
  EXPECT_EQ(pairs.size(), 1u);
  // ... although the block collection counts 2 (redundant) comparisons.
  EXPECT_DOUBLE_EQ(bc.TotalComparisons(), 2.0);
}

TEST(CandidatePairs, EmptyCollection) {
  BlockCollection bc(/*clean_clean=*/false, 5, 0);
  EntityIndex index(bc);
  EXPECT_TRUE(GenerateCandidatePairs(index).empty());
}

TEST(CandidatePairs, CountPositives) {
  BlockCollection bc = testing::PaperExampleBlocks();
  EntityIndex index(bc);
  auto pairs = GenerateCandidatePairs(index);
  GroundTruth gt = testing::PaperExampleGroundTruth();
  // All three duplicates co-occur in at least one block.
  EXPECT_EQ(CountPositivePairs(pairs, gt), 3u);
}

std::vector<uint32_t> Drained(AscendingIdSet* set) {
  std::vector<uint32_t> ids;
  set->Drain([&](uint32_t id) { ids.push_back(id); });
  return ids;
}

TEST(AscendingIdSet, EmptyDrainEmitsNothing) {
  AscendingIdSet set(5000);
  EXPECT_TRUE(Drained(&set).empty());
  EXPECT_TRUE(Drained(&set).empty());
  AscendingIdSet none(0);
  EXPECT_TRUE(Drained(&none).empty());
}

TEST(AscendingIdSet, WordSummaryAndTopBoundaries) {
  const uint32_t universe = (1u << 18) + 4096 + 77;
  const std::vector<uint32_t> ids = {universe - 1, 4096,   65,     0,
                                     4095,         64,     63,     4097,
                                     8191,         8192,   262143, 262144,
                                     262145,       266239, 266240};
  AscendingIdSet set(universe);
  for (uint32_t id : ids) set.Insert(id);
  std::vector<uint32_t> expected = ids;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(Drained(&set), expected);
}

TEST(AscendingIdSet, RepeatedInsertsDrainOnce) {
  AscendingIdSet set(300);
  for (int round = 0; round < 3; ++round) {
    for (uint32_t id : {299u, 7u, 64u, 7u, 299u}) set.Insert(id);
  }
  EXPECT_EQ(Drained(&set), (std::vector<uint32_t>{7, 64, 299}));
}

// One set serves pivot after pivot: each drain holds only what was
// inserted since the last one.
TEST(AscendingIdSet, ReusedAcrossPivots) {
  AscendingIdSet set(10000);
  set.Insert(9999);
  set.Insert(5);
  EXPECT_EQ(Drained(&set), (std::vector<uint32_t>{5, 9999}));
  set.Insert(4096);
  EXPECT_EQ(Drained(&set), (std::vector<uint32_t>{4096}));
  set.Insert(4095);
  set.Insert(0);
  EXPECT_EQ(Drained(&set), (std::vector<uint32_t>{0, 4095}));
  EXPECT_TRUE(Drained(&set).empty());
}

// Dense and sparse random sets, small and large universes, against a sort.
TEST(AscendingIdSet, MatchesSortAtEveryDensity) {
  Rng rng(3);
  for (uint32_t universe : {1u, 64u, 4097u, 12000u, 300000u}) {
    AscendingIdSet set(universe);
    for (size_t count : {size_t{1}, size_t{50}, size_t{176}, size_t{1000},
                         static_cast<size_t>(universe)}) {
      std::vector<uint32_t> ids;
      for (size_t i = 0; i < count; ++i) {
        const auto id = static_cast<uint32_t>(rng.NextUint64(universe));
        ids.push_back(id);
        set.Insert(id);
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      EXPECT_EQ(Drained(&set), ids) << universe << " " << count;
    }
  }
}

// DrainRanked emits the marked ids ascending, each with the number of the
// set's ids below it — a row's rank among its pivot's neighbours — and
// empties both the set and the marks, across word, summary and top
// boundaries and when reused.
TEST(AscendingIdSet, DrainRankedRanksTheMarkedIds) {
  Rng rng(5);
  for (uint32_t universe : {64u, 4097u, 300000u}) {
    AscendingIdSet set(universe);
    std::vector<uint64_t> marked((universe + 63) / 64, 0);
    for (size_t count : {size_t{1}, size_t{40}, size_t{2000}}) {
      std::vector<uint32_t> ids;
      for (size_t i = 0; i < count; ++i) {
        ids.push_back(static_cast<uint32_t>(rng.NextUint64(universe)));
      }
      ids.push_back(universe - 1);
      for (uint32_t id : ids) set.Insert(id);
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      std::vector<std::pair<uint32_t, size_t>> expected;
      for (size_t rank = 0; rank < ids.size(); ++rank) {
        if (rank % 3 == 0 || ids[rank] == universe - 1) {
          marked[ids[rank] >> 6] |= uint64_t{1} << (ids[rank] & 63);
          expected.push_back({ids[rank], rank});
        }
      }
      std::vector<std::pair<uint32_t, size_t>> ranked;
      set.DrainRanked(marked.data(), [&](uint32_t id, size_t rank) {
        ranked.push_back({id, rank});
      });
      EXPECT_EQ(ranked, expected) << universe << " " << count;
      EXPECT_TRUE(Drained(&set).empty());
      EXPECT_EQ(std::count(marked.begin(), marked.end(), 0u), marked.size());
    }
  }
}

}  // namespace
}  // namespace gsmb
