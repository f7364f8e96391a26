#include "core/pruning.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace gsmb {
namespace {

PruningContext Ctx(size_t nodes, double cep_k, double cnp_k) {
  PruningContext ctx;
  ctx.num_nodes = nodes;
  ctx.right_offset = 0;
  ctx.validity_threshold = 0.5;
  ctx.cep_k = cep_k;
  ctx.cnp_k = cnp_k;
  return ctx;
}

TEST(Cep, KeepsTopK) {
  std::vector<CandidatePair> pairs = {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}};
  std::vector<double> probs = {0.9, 0.8, 0.7, 0.6, 0.55};
  auto retained = MakePruningAlgorithm(PruningKind::kCep)
                      ->Prune(pairs, probs, Ctx(4, 3, 1));
  EXPECT_EQ(retained, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(Cep, IgnoresInvalidEvenIfBudgetAllows) {
  std::vector<CandidatePair> pairs = {{0, 1}, {0, 2}, {1, 2}};
  std::vector<double> probs = {0.9, 0.3, 0.2};
  auto retained = MakePruningAlgorithm(PruningKind::kCep)
                      ->Prune(pairs, probs, Ctx(3, 3, 1));
  EXPECT_EQ(retained, (std::vector<uint32_t>{0}));
}

TEST(Cep, BudgetLargerThanValidKeepsAllValid) {
  std::vector<CandidatePair> pairs = {{0, 1}, {0, 2}};
  std::vector<double> probs = {0.7, 0.6};
  auto retained = MakePruningAlgorithm(PruningKind::kCep)
                      ->Prune(pairs, probs, Ctx(3, 100, 1));
  EXPECT_EQ(retained.size(), 2u);
}

TEST(Cep, ZeroBudgetKeepsNothing) {
  std::vector<CandidatePair> pairs = {{0, 1}};
  std::vector<double> probs = {0.9};
  EXPECT_TRUE(MakePruningAlgorithm(PruningKind::kCep)
                  ->Prune(pairs, probs, Ctx(2, 0, 1)).empty());
}

TEST(Cep, TieBreaksPreferEarlierPairs) {
  std::vector<CandidatePair> pairs = {{0, 1}, {0, 2}, {1, 2}};
  std::vector<double> probs = {0.7, 0.7, 0.7};
  auto retained = MakePruningAlgorithm(PruningKind::kCep)
                      ->Prune(pairs, probs, Ctx(3, 2, 1));
  EXPECT_EQ(retained, (std::vector<uint32_t>{0, 1}));
}

TEST(Cep, FractionalBudgetFloors) {
  std::vector<CandidatePair> pairs = {{0, 1}, {0, 2}};
  std::vector<double> probs = {0.9, 0.8};
  auto retained = MakePruningAlgorithm(PruningKind::kCep)
                      ->Prune(pairs, probs, Ctx(3, 1.9, 1));
  EXPECT_EQ(retained.size(), 1u);
}

TEST(Cnp, PerNodeQueuesUnionSemantics) {
  // k = 1: each node keeps its single best pair; union retains a pair that
  // is best for either endpoint.
  std::vector<CandidatePair> pairs = {{0, 1}, {0, 2}, {1, 2}};
  std::vector<double> probs = {0.9, 0.6, 0.7};
  auto retained = MakePruningAlgorithm(PruningKind::kCnp)
                      ->Prune(pairs, probs, Ctx(3, 10, 1));
  // Node 0 best: (0,1). Node 1 best: (0,1). Node 2 best: (1,2).
  // (0,2) is best for nobody -> dropped.
  EXPECT_EQ(retained, (std::vector<uint32_t>{0, 2}));
}

TEST(Rcnp, IntersectionSemantics) {
  std::vector<CandidatePair> pairs = {{0, 1}, {0, 2}, {1, 2}};
  std::vector<double> probs = {0.9, 0.6, 0.7};
  auto retained = MakePruningAlgorithm(PruningKind::kRcnp)
                      ->Prune(pairs, probs, Ctx(3, 10, 1));
  // (0,1) is in both endpoint queues; (1,2) only in node 2's queue.
  EXPECT_EQ(retained, (std::vector<uint32_t>{0}));
}

TEST(Rcnp, SubsetOfCnp) {
  testing::PruningFixture f = testing::RandomPruningGraph(50, 0.25, 31);
  auto cnp = MakePruningAlgorithm(PruningKind::kCnp)
                 ->Prune(f.pairs, f.probs, f.context);
  auto rcnp = MakePruningAlgorithm(PruningKind::kRcnp)
                  ->Prune(f.pairs, f.probs, f.context);
  EXPECT_LE(rcnp.size(), cnp.size());
  size_t j = 0;
  for (uint32_t idx : rcnp) {
    while (j < cnp.size() && cnp[j] < idx) ++j;
    ASSERT_LT(j, cnp.size());
    EXPECT_EQ(cnp[j], idx);
  }
}

TEST(Cnp, RespectsPerNodeBudget) {
  testing::PruningFixture f = testing::RandomPruningGraph(30, 0.5, 17);
  f.context.cnp_k = 2.0;
  auto retained = MakePruningAlgorithm(PruningKind::kCnp)
                      ->Prune(f.pairs, f.probs, f.context);
  // No node may appear in more than ... well, union semantics allow more
  // via the partner's queue; but each pair retained must be top-2 for at
  // least one endpoint. Verify by recomputing top-2 sets.
  std::vector<std::vector<double>> node_probs(30);
  for (size_t i = 0; i < f.pairs.size(); ++i) {
    if (f.probs[i] < 0.5) continue;
    node_probs[f.pairs[i].left].push_back(f.probs[i]);
    node_probs[f.pairs[i].right].push_back(f.probs[i]);
  }
  auto kth_best = [&](size_t node) {
    auto& v = node_probs[node];
    if (v.size() <= 2) return v.empty() ? 1e9 : -1e9;
    std::vector<double> sorted = v;
    std::sort(sorted.rbegin(), sorted.rend());
    return sorted[1];  // 2nd best
  };
  for (uint32_t idx : retained) {
    const CandidatePair& p = f.pairs[idx];
    const double prob = f.probs[idx];
    // Retained => prob within top-2 of at least one endpoint (allowing
    // ties at the boundary).
    EXPECT_TRUE(prob >= kth_best(p.left) - 1e-12 ||
                prob >= kth_best(p.right) - 1e-12);
  }
}

TEST(Cnp, InvalidPairsNeverRetained) {
  std::vector<CandidatePair> pairs = {{0, 1}, {1, 2}};
  std::vector<double> probs = {0.49, 0.51};
  for (PruningKind kind : {PruningKind::kCep, PruningKind::kCnp,
                           PruningKind::kRcnp}) {
    auto retained =
        MakePruningAlgorithm(kind)->Prune(pairs, probs, Ctx(3, 10, 2));
    EXPECT_EQ(retained, (std::vector<uint32_t>{1})) << PruningKindName(kind);
  }
}

TEST(Cnp, CleanCleanRightOffsetAddressesDistinctNodes) {
  // Clean-Clean: left 0 and right 0 are different nodes.
  PruningContext ctx = Ctx(4, 10, 1);
  ctx.right_offset = 2;  // |E1| = 2
  std::vector<CandidatePair> pairs = {{0, 0}, {1, 0}, {0, 1}};
  std::vector<double> probs = {0.9, 0.8, 0.7};
  auto retained =
      MakePruningAlgorithm(PruningKind::kCnp)->Prune(pairs, probs, ctx);
  // Queues: L0 best (0,0)=0.9; L1 best (1,0)=0.8; R0 best 0.9; R1 best 0.7.
  EXPECT_EQ(retained, (std::vector<uint32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace gsmb
