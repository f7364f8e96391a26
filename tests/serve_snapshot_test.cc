// Snapshot round-trip tests: a restored session must serve (retained set,
// queries) and evolve (further AddProfiles/Refresh) exactly like the
// original.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/dirty_generator.h"
#include "serve/session.h"
#include "serve/serving_model.h"

namespace gsmb {
namespace {

DirtySpec TestSpec(size_t num_entities, uint64_t seed) {
  DirtySpec spec;
  spec.name = "snapshot-test";
  spec.num_entities = num_entities;
  spec.seed = seed;
  return spec;
}

const GeneratedDirty& TestData() {
  static const GeneratedDirty data =
      DirtyGenerator().Generate(TestSpec(400, 31));
  return data;
}

const ServingModel& TestModel() {
  static const ServingModel model = [] {
    const GeneratedDirty labelled =
        DirtyGenerator().Generate(TestSpec(300, 5));
    ServingModelTraining training;
    training.train_per_class = 30;
    return TrainServingModel(labelled.entities, labelled.ground_truth,
                             FeatureSet::RcnpOptimal(), training);
  }();
  return model;
}

SessionOptions TestOptions() {
  SessionOptions options;
  options.num_shards = 8;
  options.execution.num_threads = 2;
  return options;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

const std::string kGoldenPath =
    std::string(GSMB_FIXTURE_DIR) + "/golden_session.snap";

// A small session from hand-written profiles and a hand-set model (no
// generator, no training), so every build saves the same bytes. Its
// snapshot is checked in at kGoldenPath: a change to the snapshot layout,
// or to util/binary_io underneath it, shows up as a mismatch there.
MetaBlockingSession GoldenSession() {
  static const char* const kWords[] = {"acme", "laptop", "pro",  "14",
                                       "silver", "ultra", "max", "mini",
                                       "pack", "blue",   "red"};
  constexpr int kNumWords = 11;
  ServingModel model;
  model.features = FeatureSet::BlastOptimal();
  model.weights.assign(model.features.Dimensions(), 0.75);
  model.intercept = -1.5;
  SessionOptions options;
  options.num_shards = 3;
  options.execution.num_threads = 1;
  MetaBlockingSession session(options, model);

  std::vector<EntityProfile> profiles;
  for (int i = 0; i < 24; ++i) {
    // Profiles 2k and 2k+1 describe the same item.
    const int k = i / 2;
    EntityProfile profile("g" + std::to_string(i));
    profile.AddAttribute("title",
                         std::string(kWords[k % kNumWords]) + " " +
                             kWords[(3 * k + 1) % kNumWords] + " " +
                             kWords[(7 * k + 2) % kNumWords]);
    profile.AddAttribute("code", "c" + std::to_string(k));
    profiles.push_back(std::move(profile));
  }
  session.AddProfiles({profiles.begin(), profiles.begin() + 20});
  session.Refresh();
  // Ingested but not refreshed: the snapshot carries dirty marks too.
  session.AddProfiles({profiles.begin() + 20, profiles.end()});
  return session;
}

void ExpectSameQueries(const MetaBlockingSession& a,
                       const MetaBlockingSession& b) {
  for (EntityId id : {EntityId{3}, EntityId{77}, EntityId{200}}) {
    const auto qa = a.QueryCandidates(TestData().entities[id], 8);
    const auto qb = b.QueryCandidates(TestData().entities[id], 8);
    ASSERT_EQ(qa.size(), qb.size()) << "probe " << id;
    for (size_t i = 0; i < qa.size(); ++i) {
      EXPECT_EQ(qa[i].id, qb[i].id) << "probe " << id;
      EXPECT_EQ(qa[i].probability, qb[i].probability) << "probe " << id;
    }
  }
}

TEST(ServeSnapshot, RoundTripPreservesServingState) {
  MetaBlockingSession session(TestOptions(), TestModel());
  session.AddProfiles(TestData().entities.profiles());
  session.Refresh();

  const std::string path = TempPath("session_roundtrip.snap");
  session.Save(path);
  MetaBlockingSession restored = MetaBlockingSession::Load(path);
  std::remove(path.c_str());

  EXPECT_EQ(restored.profiles().size(), session.profiles().size());
  EXPECT_EQ(restored.DirtyShardCount(), 0u);
  EXPECT_EQ(restored.RetainedPairs(), session.RetainedPairs());
  EXPECT_EQ(restored.options().pruning, session.options().pruning);
  EXPECT_EQ(restored.model().weights, session.model().weights);
  ExpectSameQueries(session, restored);
}

TEST(ServeSnapshot, MidStreamSnapshotKeepsDirtyMarksAndEquivalence) {
  const auto& profiles = TestData().entities.profiles();
  const size_t n = profiles.size();

  // Snapshot with ingested-but-unrefreshed profiles: dirty marks must
  // survive, and finishing the stream after a restore must land on the
  // same retained set as a cold one-shot build.
  MetaBlockingSession session(TestOptions(), TestModel());
  session.AddProfiles({profiles.begin(), profiles.begin() + n / 2});
  session.Refresh();
  session.AddProfiles({profiles.begin() + n / 2,
                       profiles.begin() + 2 * n / 3});
  const size_t dirty_at_save = session.DirtyShardCount();
  ASSERT_GT(dirty_at_save, 0u);

  const std::string path = TempPath("session_midstream.snap");
  session.Save(path);
  MetaBlockingSession restored = MetaBlockingSession::Load(path);
  std::remove(path.c_str());
  EXPECT_EQ(restored.DirtyShardCount(), dirty_at_save);

  restored.AddProfiles({profiles.begin() + 2 * n / 3, profiles.end()});
  restored.Refresh();

  MetaBlockingSession cold(TestOptions(), TestModel());
  cold.AddProfiles(profiles);
  cold.Refresh();
  EXPECT_EQ(restored.RetainedPairs(), cold.RetainedPairs());
}

TEST(ServeSnapshot, MissingFileThrows) {
  EXPECT_THROW(MetaBlockingSession::Load(TempPath("does_not_exist.snap")),
               std::runtime_error);
}

TEST(ServeSnapshot, RejectsForeignAndTruncatedFiles) {
  const std::string foreign = TempPath("foreign.snap");
  {
    std::ofstream out(foreign, std::ios::binary);
    out << "this is not a session snapshot at all";
  }
  EXPECT_THROW(MetaBlockingSession::Load(foreign), std::runtime_error);
  std::remove(foreign.c_str());

  MetaBlockingSession session(TestOptions(), TestModel());
  session.AddProfiles(
      {TestData().entities.profiles().begin(),
       TestData().entities.profiles().begin() + 50});
  session.Refresh();
  const std::string path = TempPath("truncated.snap");
  session.Save(path);
  // Chop the file roughly in half: Load must fail cleanly, not crash.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(MetaBlockingSession::Load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ServeSnapshot, GoldenSnapshotSavesByteForByte) {
  const std::string golden = ReadBytes(kGoldenPath);
  ASSERT_FALSE(golden.empty()) << "missing fixture " << kGoldenPath;

  const MetaBlockingSession session = GoldenSession();
  ASSERT_FALSE(session.RetainedPairs().empty());
  ASSERT_GT(session.DirtyShardCount(), 0u);
  const std::string path = TempPath("golden_session.snap");
  session.Save(path);
  if (ReadBytes(path) == golden) {
    std::remove(path.c_str());
  } else {
    ADD_FAILURE() << "Save no longer reproduces " << kGoldenPath
                  << " (snapshot format break); fresh bytes kept at "
                  << path;
  }
}

TEST(ServeSnapshot, GoldenSnapshotLoadsAndResaves) {
  MetaBlockingSession loaded = MetaBlockingSession::Load(kGoldenPath);
  const MetaBlockingSession expected = GoldenSession();
  EXPECT_EQ(loaded.profiles().size(), expected.profiles().size());
  EXPECT_EQ(loaded.DirtyShardCount(), expected.DirtyShardCount());
  EXPECT_EQ(loaded.RetainedPairs(), expected.RetainedPairs());

  const std::string path = TempPath("golden_resaved.snap");
  loaded.Save(path);
  EXPECT_EQ(ReadBytes(path), ReadBytes(kGoldenPath));
  std::remove(path.c_str());
}

TEST(ServeSnapshot, RejectsInflatedShardCountBeforeAllocating) {
  const std::string path = TempPath("inflated_shards.snap");
  GoldenSession().Save(path);
  std::string bytes = ReadBytes(path);
  // num_shards is the u64 right after the 8-byte magic. The session
  // constructor sizes its shard vector from it, so the count must be
  // rejected as corrupt before that, not surface as bad_alloc.
  const uint64_t inflated = uint64_t{1} << 40;
  ASSERT_GT(bytes.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    bytes[8 + i] = static_cast<char>((inflated >> (8 * i)) & 0xff);
  }
  WriteBytes(path, bytes);
  EXPECT_THROW(MetaBlockingSession::Load(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gsmb
