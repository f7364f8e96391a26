// Serving-layer equivalence suite: any interleaving of AddProfiles() and
// Refresh() must leave the session with exactly the retained pairs of a
// cold session built from scratch on the same profiles — bit-identical,
// across thread counts and pruning algorithms. Plus dirty-shard locality
// and query behaviour.

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/block_stats.h"
#include "blocking/candidate_pairs.h"
#include "blocking/entity_index.h"
#include "blocking/token_blocking.h"
#include "core/features.h"
#include "core/pipeline.h"
#include "datasets/dirty_generator.h"
#include "serve/session.h"
#include "serve/serving_model.h"

namespace gsmb {
namespace {

DirtySpec TestSpec(size_t num_entities, uint64_t seed) {
  DirtySpec spec;
  spec.name = "serve-test";
  spec.num_entities = num_entities;
  spec.seed = seed;
  return spec;
}

const GeneratedDirty& TestData() {
  static const GeneratedDirty data =
      DirtyGenerator().Generate(TestSpec(500, 11));
  return data;
}

// One model shared by every test: trained once with the batch pipeline on
// an independent generated dataset (different seed than the serving data).
const ServingModel& TestModel() {
  static const ServingModel model = [] {
    const GeneratedDirty labelled =
        DirtyGenerator().Generate(TestSpec(400, 23));
    ServingModelTraining training;
    training.train_per_class = 40;
    return TrainServingModel(labelled.entities, labelled.ground_truth,
                             FeatureSet::BlastOptimal(), training);
  }();
  return model;
}

SessionOptions TestOptions(size_t num_shards = 8, size_t num_threads = 1) {
  SessionOptions options;
  options.num_shards = num_shards;
  options.execution.num_threads = num_threads;
  return options;
}

MetaBlockingSession ColdSession(const SessionOptions& options,
                                const std::vector<EntityProfile>& profiles) {
  MetaBlockingSession session(options, TestModel());
  session.AddProfiles(profiles);
  session.Refresh();
  return session;
}

std::vector<EntityProfile> Slice(const std::vector<EntityProfile>& all,
                                 size_t begin, size_t end) {
  return {all.begin() + begin, all.begin() + end};
}

// The serving trainer is the batch trainer: on the same labelled
// collection its raw-space model is the batch run's coefficients bit for
// bit, for both linear classifiers and for a feature set with LCP.
TEST(ServeModel, EqualsTheBatchPipelinesModel) {
  const GeneratedDirty labelled = DirtyGenerator().Generate(TestSpec(400, 23));
  const PreparedDataset prep =
      PrepareDirty("batch", labelled.entities, labelled.ground_truth);
  for (ClassifierKind classifier :
       {ClassifierKind::kLogisticRegression, ClassifierKind::kLinearSvc}) {
    for (const FeatureSet& features :
         {FeatureSet::BlastOptimal(), FeatureSet::RcnpOptimal()}) {
      ServingModelTraining training;
      training.classifier = classifier;
      training.train_per_class = 40;
      training.seed = 5;
      size_t training_size = 0;
      const ServingModel model =
          TrainServingModel(labelled.entities, labelled.ground_truth,
                            features, training, &training_size);

      MetaBlockingConfig config;
      config.features = features;
      config.classifier = classifier;
      config.train_per_class = 40;
      config.seed = 5;
      const MetaBlockingResult batch = RunMetaBlocking(prep, config);
      std::vector<double> coefficients = model.weights;
      coefficients.push_back(model.intercept);
      EXPECT_EQ(coefficients, batch.model_coefficients)
          << ClassifierKindName(classifier) << ", "
          << features.Dimensions() << " features";
      EXPECT_EQ(training_size, batch.training_size);
    }
  }
}

TEST(ServeSession, RejectsInvalidConstruction) {
  SessionOptions no_shards = TestOptions(0);
  EXPECT_THROW(MetaBlockingSession(no_shards, TestModel()),
               std::invalid_argument);
  ServingModel broken = TestModel();
  broken.weights.pop_back();
  EXPECT_THROW(MetaBlockingSession(TestOptions(), broken),
               std::invalid_argument);
}

TEST(ServeSession, EmptySessionIsWellBehaved) {
  MetaBlockingSession session(TestOptions(), TestModel());
  EXPECT_EQ(session.Refresh(), 0u);
  EXPECT_TRUE(session.RetainedPairs().empty());
  EXPECT_TRUE(session.QueryCandidates(TestData().entities[0]).empty());
  EXPECT_EQ(session.Stats().num_profiles, 0u);
}

TEST(ServeSession, SingleBatchMatchesColdRebuildAcrossThreads) {
  const auto& profiles = TestData().entities.profiles();
  const std::vector<CandidatePair> reference =
      ColdSession(TestOptions(8, 1), profiles).RetainedPairs();
  ASSERT_FALSE(reference.empty());
  for (size_t threads : {2, 8}) {
    EXPECT_EQ(ColdSession(TestOptions(8, threads), profiles).RetainedPairs(),
              reference)
        << threads << " threads";
  }
}

// The tentpole guarantee: refresh-as-you-go over arbitrary batch splits
// retains exactly what a one-shot build on the union retains.
TEST(ServeSession, InterleavedIngestMatchesColdRebuild) {
  const auto& profiles = TestData().entities.profiles();
  const size_t n = profiles.size();
  const std::vector<CandidatePair> reference =
      ColdSession(TestOptions(8, 1), profiles).RetainedPairs();
  ASSERT_FALSE(reference.empty());

  // Refresh after every batch.
  for (size_t threads : {1, 2, 8}) {
    MetaBlockingSession session(TestOptions(8, threads), TestModel());
    session.AddProfiles(Slice(profiles, 0, n / 3));
    session.Refresh();
    session.AddProfiles(Slice(profiles, n / 3, 2 * n / 3));
    session.Refresh();
    session.AddProfiles(Slice(profiles, 2 * n / 3, n));
    session.Refresh();
    EXPECT_EQ(session.RetainedPairs(), reference) << threads << " threads";
  }

  // Ragged batches, some refreshes skipped, one profile at a time at the
  // end; a final refresh settles everything.
  MetaBlockingSession session(TestOptions(8, 2), TestModel());
  session.AddProfiles(Slice(profiles, 0, 7));
  session.Refresh();
  session.AddProfiles(Slice(profiles, 7, n / 2));
  session.AddProfiles(Slice(profiles, n / 2, n - 5));
  session.Refresh();
  for (size_t i = n - 5; i < n; ++i) session.AddProfile(profiles[i]);
  session.Refresh();
  EXPECT_EQ(session.RetainedPairs(), reference);

  // Redundant refreshes are no-ops.
  EXPECT_EQ(session.Refresh(), 0u);
  EXPECT_EQ(session.RetainedPairs(), reference);
}

TEST(ServeSession, EquivalenceHoldsForEveryPruningAlgorithm) {
  const auto& profiles = TestData().entities.profiles();
  const size_t n = profiles.size();
  for (PruningKind kind : AllPruningKinds()) {
    SessionOptions options = TestOptions(8, 2);
    options.pruning = kind;
    MetaBlockingSession cold(options, TestModel());
    cold.AddProfiles(profiles);
    cold.Refresh();

    MetaBlockingSession incremental(options, TestModel());
    incremental.AddProfiles(Slice(profiles, 0, n / 2));
    incremental.Refresh();
    incremental.AddProfiles(Slice(profiles, n / 2, n));
    incremental.Refresh();
    EXPECT_EQ(incremental.RetainedPairs(), cold.RetainedPairs())
        << PruningKindName(kind);
  }
}

TEST(ServeSession, MaxBlockSizePurgingIsStable) {
  const auto& profiles = TestData().entities.profiles();
  const size_t n = profiles.size();
  SessionOptions options = TestOptions(8, 2);
  options.max_block_size = 24;
  MetaBlockingSession cold(options, TestModel());
  cold.AddProfiles(profiles);
  cold.Refresh();

  MetaBlockingSession incremental(options, TestModel());
  incremental.AddProfiles(Slice(profiles, 0, n / 4));
  incremental.Refresh();
  incremental.AddProfiles(Slice(profiles, n / 4, n));
  incremental.Refresh();
  EXPECT_EQ(incremental.RetainedPairs(), cold.RetainedPairs());
}

// With one shard and no size cap, the per-shard pipeline IS the library's
// batch pipeline over Token Blocking: validate the shard machinery against
// the primitives it is built from.
TEST(ServeSession, OneShardMatchesBatchPrimitives) {
  const EntityCollection& entities = TestData().entities;
  const ServingModel& model = TestModel();

  MetaBlockingSession session(TestOptions(1, 1), model);
  session.AddProfiles(entities.profiles());
  session.Refresh();

  const BlockCollection blocks = TokenBlocking().Build(entities);
  const EntityIndex index(blocks);
  const std::vector<CandidatePair> pairs = GenerateCandidatePairs(index, 1);
  const FeatureExtractor extractor(index, pairs);
  const Matrix features = extractor.Compute(model.features, 1);
  std::vector<double> probabilities(pairs.size());
  for (size_t r = 0; r < pairs.size(); ++r) {
    probabilities[r] = model.Predict(features.Row(r));
  }
  PruningContext context =
      PruningContext::FromIndex(index, ComputeBlockStats(blocks));
  const std::vector<uint32_t> retained_rows =
      MakePruningAlgorithm(PruningKind::kBlast)
          ->Prune(pairs, probabilities, context);
  std::vector<CandidatePair> expected;
  expected.reserve(retained_rows.size());
  for (uint32_t row : retained_rows) expected.push_back(pairs[row]);

  EXPECT_EQ(session.RetainedPairs(), expected);
}

TEST(ServeSession, IngestDirtiesOnlyTouchedShards) {
  const auto& profiles = TestData().entities.profiles();
  MetaBlockingSession session(TestOptions(64, 2), TestModel());
  session.AddProfiles(profiles);
  session.Refresh();
  EXPECT_EQ(session.DirtyShardCount(), 0u);

  // A probe with two tokens can touch at most two shards.
  EntityProfile narrow("narrow-1");
  narrow.AddAttribute("title", "zzserveuniq alphaserve");
  session.AddProfile(narrow);
  const size_t dirty = session.DirtyShardCount();
  EXPECT_GE(dirty, 1u);
  EXPECT_LE(dirty, 2u);
  EXPECT_EQ(session.Refresh(), dirty);
  EXPECT_EQ(session.DirtyShardCount(), 0u);
}

TEST(ServeSession, RetainedPairsFindDuplicates) {
  const GeneratedDirty& data = TestData();
  SessionOptions options = TestOptions(8, 2);
  options.max_block_size = 24;  // serving-style purging of stop-word blocks
  MetaBlockingSession session(options, TestModel());
  session.AddProfiles(data.entities.profiles());
  session.Refresh();
  const std::vector<CandidatePair> retained = session.RetainedPairs();
  ASSERT_FALSE(retained.empty());
  size_t true_positives = 0;
  for (const CandidatePair& p : retained) {
    if (data.ground_truth.IsMatch(p.left, p.right)) ++true_positives;
  }
  // The session must actually be useful: near-complete recall, and
  // precision well above the candidate baseline (|D| / #candidates).
  const double recall = static_cast<double>(true_positives) /
                        static_cast<double>(data.ground_truth.size());
  const double precision = static_cast<double>(true_positives) /
                           static_cast<double>(retained.size());
  const double baseline = static_cast<double>(data.ground_truth.size()) /
                          static_cast<double>(session.Stats().num_candidates);
  EXPECT_GT(recall, 0.9);
  EXPECT_GT(precision, 0.15);
  EXPECT_GT(precision, 3.0 * baseline);
}

TEST(ServeSession, QueryFindsResidentTwin) {
  const GeneratedDirty& data = TestData();
  MetaBlockingSession session(TestOptions(8, 2), TestModel());
  session.AddProfiles(data.entities.profiles());
  session.Refresh();

  // An *external* probe that copies a resident profile must surface that
  // resident (they share every token). Check a handful of spread-out ids.
  for (EntityId id : {EntityId{0}, EntityId{123}, EntityId{321}}) {
    const std::vector<QueryMatch> matches =
        session.QueryCandidates(data.entities[id], 10);
    const bool found =
        std::any_of(matches.begin(), matches.end(),
                    [&](const QueryMatch& m) { return m.id == id; });
    EXPECT_TRUE(found) << "query for resident id " << id;
  }
}

TEST(ServeSession, ResidentQueryExcludesSelfAndFindsDuplicates) {
  const GeneratedDirty& data = TestData();
  MetaBlockingSession session(TestOptions(8, 2), TestModel());
  session.AddProfiles(data.entities.profiles());
  session.Refresh();

  // Querying *as* a resident (exclude = own id) must never return the
  // probe itself, and should surface its known duplicates.
  size_t partners_found = 0;
  size_t checked = 0;
  for (const MatchPair& match : data.ground_truth.pairs()) {
    if (checked == 10) break;
    ++checked;
    const std::vector<QueryMatch> matches = session.QueryCandidates(
        data.entities[match.left], 10, match.left);
    for (const QueryMatch& m : matches) {
      ASSERT_NE(m.id, match.left) << "self-match leaked into results";
      if (m.id == match.right) ++partners_found;
    }
  }
  EXPECT_GE(partners_found, 7u) << "of " << checked << " known duplicates";
}

TEST(ServeSession, QueryIsDeterministicAndBounded) {
  const GeneratedDirty& data = TestData();
  MetaBlockingSession session(TestOptions(8, 2), TestModel());
  session.AddProfiles(data.entities.profiles());
  session.Refresh();

  const EntityProfile& probe = data.entities[42];
  const std::vector<QueryMatch> first = session.QueryCandidates(probe, 5);
  const std::vector<QueryMatch> second = session.QueryCandidates(probe, 5);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_LE(first.size(), 5u);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].probability, second[i].probability);
    EXPECT_GE(first[i].probability, session.options().validity_threshold);
    if (i > 0) {
      EXPECT_GE(first[i - 1].probability, first[i].probability);
    }
  }
}

TEST(ServeSession, QueryWithUnknownTokensIsEmpty) {
  const GeneratedDirty& data = TestData();
  MetaBlockingSession session(TestOptions(8, 1), TestModel());
  session.AddProfiles(data.entities.profiles());
  session.Refresh();
  EntityProfile alien("alien-1");
  alien.AddAttribute("x", "qqqqqq wwwwww eeeeee");
  EXPECT_TRUE(session.QueryCandidates(alien).empty());
}

TEST(ServeSession, StatsReflectSessionState) {
  const auto& profiles = TestData().entities.profiles();
  MetaBlockingSession session(TestOptions(8, 2), TestModel());
  session.AddProfiles(profiles);
  SessionStats before = session.Stats();
  EXPECT_EQ(before.num_profiles, profiles.size());
  EXPECT_GT(before.dirty_shards, 0u);
  EXPECT_EQ(before.num_retained, 0u);

  session.Refresh();
  SessionStats after = session.Stats();
  EXPECT_EQ(after.dirty_shards, 0u);
  EXPECT_GT(after.num_blocks, 0u);
  EXPECT_GT(after.num_candidates, 0u);
  EXPECT_EQ(after.num_retained, session.RetainedPairs().size());
}

}  // namespace
}  // namespace gsmb
