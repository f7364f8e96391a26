#include "core/pruning.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pruning_aggregates.h"
#include "gsmb/telemetry.h"
#include "stream/streaming_dataset.h"
#include "stream/streaming_executor.h"
#include "test_support.h"
#include "util/random.h"
#include "util/thread_pool.h"

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

// ---------------------------------------------------------------------------
// The selection against a brute-force reference.
// ---------------------------------------------------------------------------

/// Each budget's valid pairs (CEP: one budget over every pair; CNP/RCNP:
/// one per node, a pair counting against both endpoints) sorted by
/// (P descending, index ascending), the first k of them kept; a pair is
/// retained when one budget keeps it, or both for RCNP.
std::vector<uint32_t> BruteForce(PruningKind kind,
                                 const std::vector<CandidatePair>& pairs,
                                 const std::vector<double>& probs,
                                 const PruningContext& ctx) {
  const bool per_node = kind != PruningKind::kCep;
  const size_t k =
      per_node ? static_cast<size_t>(std::max(1.0, std::round(ctx.cnp_k)))
               : static_cast<size_t>(std::max(0.0, std::floor(ctx.cep_k)));
  std::vector<std::vector<uint32_t>> budgets(per_node ? ctx.num_nodes : 1);
  for (uint32_t i = 0; i < pairs.size(); ++i) {
    if (probs[i] < ctx.validity_threshold) continue;
    if (per_node) {
      budgets[LeftNode(pairs[i])].push_back(i);
      budgets[RightNode(pairs[i], ctx)].push_back(i);
    } else {
      budgets[0].push_back(i);
    }
  }
  std::vector<int> kept(pairs.size(), 0);
  for (std::vector<uint32_t>& members : budgets) {
    std::sort(members.begin(), members.end(), [&](uint32_t a, uint32_t b) {
      if (probs[a] != probs[b]) return probs[a] > probs[b];
      return a < b;
    });
    for (size_t r = 0; r < std::min(k, members.size()); ++r) {
      ++kept[members[r]];
    }
  }
  const int required = kind == PruningKind::kRcnp ? 2 : 1;
  std::vector<uint32_t> retained;
  for (uint32_t i = 0; i < pairs.size(); ++i) {
    if (kept[i] >= required) retained.push_back(i);
  }
  return retained;
}

/// A graph whose probabilities take five values, so most ranks fall to the
/// index tie-break: 0.2 and 0.4 lie below the floor and 0.5 on it. A dense
/// core spans several chunks; the periphery's nodes hold a few pairs each,
/// so some hold exactly k and some k + 1 valid pairs. Clean-Clean puts 300
/// nodes on each side (a core of 260), Dirty 560 (a core of 370).
testing::PruningFixture TiedGraph(bool clean_clean, uint64_t seed) {
  const size_t left = clean_clean ? 300 : 560;
  const size_t right = clean_clean ? 300 : 560;
  const size_t core = clean_clean ? 260 : 370;
  const double values[] = {0.2, 0.4, 0.5, 0.7, 0.9};
  testing::PruningFixture f;
  Rng rng(seed);
  for (size_t i = 0; i < left; ++i) {
    for (size_t j = clean_clean ? 0 : i + 1; j < right; ++j) {
      const double density =
          i < core && j < core ? 0.6 : 3.0 / static_cast<double>(right);
      if (!rng.NextBool(density)) continue;
      f.pairs.push_back({static_cast<EntityId>(i), static_cast<EntityId>(j)});
      f.probs.push_back(values[rng.NextUint64(5)]);
    }
  }
  f.context.num_nodes = clean_clean ? left + right : left;
  f.context.right_offset = clean_clean ? left : 0;
  f.context.validity_threshold = 0.5;
  return f;
}

size_t CountValid(const testing::PruningFixture& f) {
  return static_cast<size_t>(std::count_if(
      f.probs.begin(), f.probs.end(),
      [&](double p) { return p >= f.context.validity_threshold; }));
}

/// PruneWithAggregator's retained set and the list's peak bytes.
std::vector<uint32_t> PruneAndMeasure(PruningKind kind,
                                      const testing::PruningFixture& f,
                                      const PruningContext& ctx,
                                      double* peak_bytes) {
  obs::TelemetrySink sink;
  obs::InstallSink(&sink);
  std::vector<uint32_t> retained =
      PruneWithAggregator(kind, f.pairs, f.probs, ctx);
  obs::InstallSink(nullptr);
  *peak_bytes = sink.SnapshotMetrics().gauges.at("topk.bytes.peak");
  return retained;
}

// Every budget of the tricky kinds: CEP at K = 0, 1, valid - 1, valid and
// valid + 1, CNP and RCNP at k = 1, 2, 3, at 1 and 4 threads. At k <= 3
// every chunk but the last holds more than twice the per-node budgets'
// total, so the list compacts after each of them inside the one FoldChunks
// call (CEP's at K = 1 too); it never holds more than that total twice plus
// one chunk's rows.
TEST(CardinalitySelection, MatchesBruteForceOnTiedGraphs) {
  for (bool clean_clean : {true, false}) {
    const testing::PruningFixture f = TiedGraph(clean_clean, 23);
    const size_t valid = CountValid(f);
    const std::vector<ChunkRange> chunks = DeterministicChunks(f.pairs.size());
    ASSERT_GE(chunks.size(), 4u);
    ASSERT_LT(valid, f.pairs.size());

    struct Case {
      PruningKind kind;
      double budget;  // K for CEP, k for CNP/RCNP
    };
    std::vector<Case> cases;
    for (double cep : {0.0, 1.0, valid - 1.0, valid * 1.0, valid + 1.0}) {
      cases.push_back({PruningKind::kCep, cep});
    }
    for (PruningKind kind : {PruningKind::kCnp, PruningKind::kRcnp}) {
      for (double k : {1.0, 2.0, 3.0}) cases.push_back({kind, k});
    }
    for (const Case& c : cases) {
      PruningContext ctx = f.context;
      (c.kind == PruningKind::kCep ? ctx.cep_k : ctx.cnp_k) = c.budget;
      SCOPED_TRACE(std::string(clean_clean ? "Clean-Clean " : "Dirty ") +
                   PruningKindName(c.kind) +
                   " budget=" + std::to_string(c.budget));
      if (c.kind != PruningKind::kCep) {
        const auto k = static_cast<size_t>(c.budget);
        // Nodes holding exactly k and k + 1 valid pairs.
        std::vector<size_t> degree(ctx.num_nodes, 0);
        for (size_t i = 0; i < f.pairs.size(); ++i) {
          if (f.probs[i] < ctx.validity_threshold) continue;
          ++degree[LeftNode(f.pairs[i])];
          ++degree[RightNode(f.pairs[i], ctx)];
        }
        EXPECT_GT(std::count(degree.begin(), degree.end(), k), 0);
        EXPECT_GT(std::count(degree.begin(), degree.end(), k + 1), 0);
        for (size_t ch = 0; ch + 1 < chunks.size(); ++ch) {
          const auto chunk_valid = std::count_if(
              f.probs.begin() + chunks[ch].begin,
              f.probs.begin() + chunks[ch].end,
              [&](double p) { return p >= ctx.validity_threshold; });
          EXPECT_GT(static_cast<size_t>(chunk_valid), 2 * ctx.num_nodes * k);
        }
      }
      const std::vector<uint32_t> expected =
          BruteForce(c.kind, f.pairs, f.probs, ctx);
      const size_t budget = c.kind == PruningKind::kCep
                                ? static_cast<size_t>(c.budget)
                                : ctx.num_nodes * static_cast<size_t>(c.budget);
      for (size_t threads : {size_t{1}, size_t{4}}) {
        ctx.execution.num_threads = threads;
        double peak = 0.0;
        EXPECT_EQ(PruneAndMeasure(c.kind, f, ctx, &peak), expected)
            << "threads=" << threads;
        EXPECT_LE(peak, static_cast<double>((2 * budget + kDefaultChunkGrain) *
                                            sizeof(RetainedCandidate)));
      }
    }
  }
}

// With every row valid (floor 0) and k = 1, the list never holds more than
// twice the budgets' total plus one chunk's rows, 24 bytes each.
TEST(CardinalitySelection, ListStaysWithinTwiceTheBudgetPlusOneChunk) {
  ASSERT_EQ(sizeof(RetainedCandidate), 24u);
  for (bool clean_clean : {true, false}) {
    testing::PruningFixture f = TiedGraph(clean_clean, 29);
    f.context.validity_threshold = 0.0;
    f.context.cnp_k = 1.0;
    f.context.cep_k = static_cast<double>(f.context.num_nodes);
    const size_t budget = f.context.num_nodes;
    for (PruningKind kind :
         {PruningKind::kCep, PruningKind::kCnp, PruningKind::kRcnp}) {
      SCOPED_TRACE(PruningKindName(kind));
      double peak = 0.0;
      PruneAndMeasure(kind, f, f.context, &peak);
      EXPECT_LE(peak, static_cast<double>((2 * budget + kDefaultChunkGrain) *
                                          sizeof(RetainedCandidate)));
      // The list compacted: it never held every row.
      EXPECT_LT(peak, static_cast<double>(f.pairs.size() *
                                          sizeof(RetainedCandidate)));
    }
  }
}

// The executor folds one shard at a time: at 1, 4 and 16 shards and 1 and 4
// threads its cardinality kinds retain the brute-force selection over every
// candidate's probability, at floor 0 and at the default 0.5. At floor 0
// every candidate is valid and the list compacts mid-fold: it never holds
// them all, nor more than twice its budget plus one chunk.
TEST(CardinalitySelection, ExecutorMatchesBruteForce) {
  for (const PreparedDataset* prep :
       {&testing::MediumDataset(), &testing::SmallDirtyDataset()}) {
    const StreamingDataset twin = PrepareStreamingFromBlocks(
        prep->name, prep->blocks, prep->ground_truth, /*num_threads=*/2);
    for (double floor : {0.0, 0.5}) {
      MetaBlockingConfig config;
      config.train_per_class = 25;
      config.seed = 7;
      config.keep_retained = true;
      config.validity_threshold = floor;
      config.keep_probabilities = true;
      const std::vector<double> probs =
          RunMetaBlocking(*prep, config).probabilities;
      ASSERT_EQ(probs.size(), prep->pairs.size());
      config.keep_probabilities = false;
      PruningContext ctx = PruningContext::FromIndex(*prep->index, prep->stats);
      ctx.validity_threshold = floor;
      for (PruningKind kind :
           {PruningKind::kCep, PruningKind::kCnp, PruningKind::kRcnp}) {
        config.pruning = kind;
        const std::vector<uint32_t> expected =
            BruteForce(kind, prep->pairs, probs, ctx);
        ASSERT_FALSE(expected.empty());
        const size_t budget =
            kind == PruningKind::kCep
                ? static_cast<size_t>(ctx.cep_k)
                : ctx.num_nodes * static_cast<size_t>(std::round(ctx.cnp_k));
        for (size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
          for (size_t threads : {size_t{1}, size_t{4}}) {
            SCOPED_TRACE(prep->name + " " + PruningKindName(kind) +
                         " floor=" + std::to_string(floor) +
                         " shards=" + std::to_string(shards) +
                         " threads=" + std::to_string(threads));
            StreamingOptions options;
            options.num_shards = shards;
            config.execution.num_threads = threads;
            obs::TelemetrySink sink;
            obs::InstallSink(&sink);
            EXPECT_EQ(StreamingExecutor(twin, options).Run(config)
                          .retained_indices,
                      expected);
            obs::InstallSink(nullptr);
            const double peak =
                sink.SnapshotMetrics().gauges.at("topk.bytes.peak");
            EXPECT_LE(peak, static_cast<double>(
                                (2 * budget + kDefaultChunkGrain) *
                                sizeof(RetainedCandidate)));
            if (floor == 0.0) {
              EXPECT_LT(peak, static_cast<double>(probs.size() *
                                                  sizeof(RetainedCandidate)));
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gsmb
