// Prepared snapshots (gsmb/snapshot.h): a saved preparation loads back
// bit-identical to a cold Engine::Prepare — pointer-distinct handle, same
// digests, same retained pairs for every pruning kind on the batch AND
// streaming backend — at any load thread count. Truncated, corrupted and
// version-bumped files are rejected with diagnostics, never UB, and the
// load proves what it rebuilt by recomputing both digests.

#include "gsmb/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gsmb/engine.h"
#include "gsmb/job_spec.h"

namespace gsmb {
namespace {

JobSpec BaseSpec() {
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedDirty;
  spec.dataset.name = "D10K";
  spec.dataset.scale = 0.04;
  spec.training.labels_per_class = 15;
  spec.training.seed = 7;
  spec.execution.shards = 2;
  spec.execution.options.num_threads = 1;
  spec.output.keep_retained = true;
  return spec;
}

std::string PathFor(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

TEST(PreparedSnapshot, RoundTripsDigestIdenticalAtAnyThreadCount) {
  const JobSpec spec = BaseSpec();
  Engine engine;
  Result<PreparedHandle> prepared = engine.Prepare(spec);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  const std::string path = PathFor("roundtrip.snapshot");
  Status saved = SavePreparedSnapshot(**prepared, path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  for (size_t threads : {size_t{1}, size_t{8}}) {
    Result<PreparedHandle> loaded = LoadPreparedSnapshot(path, threads);
    ASSERT_TRUE(loaded.ok()) << "threads=" << threads << ": "
                             << loaded.status().ToString();
    // A loaded handle is a genuinely independent object...
    EXPECT_NE(loaded->get(), prepared->get());
    // ...that reproduces the exact preparation, proven by digests.
    EXPECT_EQ((*loaded)->cache_key, (*prepared)->cache_key);
    EXPECT_EQ((*loaded)->dataset_fingerprint, (*prepared)->dataset_fingerprint)
        << "threads=" << threads;
    EXPECT_EQ((*loaded)->prepared_digest, (*prepared)->prepared_digest)
        << "threads=" << threads;
    EXPECT_EQ((*loaded)->inputs.e1.size(), (*prepared)->inputs.e1.size());
    EXPECT_EQ((*loaded)->inputs.ground_truth.size(),
              (*prepared)->inputs.ground_truth.size());
    EXPECT_EQ((*loaded)->stream.blocks.size(), (*prepared)->stream.blocks.size());
  }
}

TEST(PreparedSnapshot, InfoPeeksTheHeaderWithoutLoading) {
  const JobSpec spec = BaseSpec();
  Engine engine;
  Result<PreparedHandle> prepared = engine.Prepare(spec);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  const std::string path = PathFor("info.snapshot");
  ASSERT_TRUE(SavePreparedSnapshot(**prepared, path).ok());

  Result<PreparedSnapshotInfo> info = ReadPreparedSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->cache_key, (*prepared)->cache_key);
  EXPECT_EQ(info->dataset_fingerprint, (*prepared)->dataset_fingerprint);
  EXPECT_EQ(info->prepared_digest, (*prepared)->prepared_digest);
  EXPECT_EQ(info->file_bytes, std::filesystem::file_size(path));
}

// The acceptance bar: an engine seeded from a snapshot retains exactly the
// pairs a cold engine retains, for all 8 pruning kinds, on the batch and
// streaming backend — and never prepares (cache misses stay 0).
TEST(PreparedSnapshot, AdoptedHandleMatchesColdPrepareForAllPruningKinds) {
  const JobSpec base = BaseSpec();
  const std::string path = PathFor("adopt.snapshot");
  {
    Engine writer;
    Result<PreparedHandle> prepared = writer.Prepare(base);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ASSERT_TRUE(SavePreparedSnapshot(**prepared, path).ok());
  }

  Engine cold;
  Engine adopted;
  Result<PreparedHandle> loaded = LoadPreparedSnapshot(path, /*num_threads=*/1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(adopted.AdoptPrepared(*loaded).ok());

  const PruningKind kinds[] = {
      PruningKind::kBCl, PruningKind::kWep,  PruningKind::kWnp,
      PruningKind::kRwnp, PruningKind::kBlast, PruningKind::kCep,
      PruningKind::kCnp, PruningKind::kRcnp,
  };
  for (PruningKind kind : kinds) {
    for (ExecutionMode mode : {ExecutionMode::kBatch, ExecutionMode::kStreaming}) {
      JobSpec spec = base;
      spec.pruning.kind = kind;
      spec.execution.mode = mode;
      Result<JobResult> want = cold.Run(spec);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      Result<JobResult> got = adopted.Run(spec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->retained, want->retained)
          << PruningKindName(kind) << "/" << ExecutionModeName(mode);
      EXPECT_EQ(got->retained_digest, want->retained_digest);
      EXPECT_EQ(got->dataset_fingerprint, want->dataset_fingerprint);
      EXPECT_EQ(got->prepared_digest, want->prepared_digest);
    }
  }
  // Every run above was served by the adopted preparation.
  EXPECT_EQ(adopted.prepare_cache_stats().misses, 0u);
  EXPECT_EQ(adopted.prepare_cache_stats().hits, 16u);
}

TEST(PreparedSnapshot, AdoptRejectsNullAndDisabledCache) {
  Engine engine;
  EXPECT_FALSE(engine.AdoptPrepared(nullptr).ok());

  EngineOptions no_cache;
  no_cache.prepare_cache_max_entries = 0;
  Engine uncached(no_cache);
  Result<PreparedHandle> prepared = engine.Prepare(BaseSpec());
  ASSERT_TRUE(prepared.ok());
  Status adopted = uncached.AdoptPrepared(*prepared);
  ASSERT_FALSE(adopted.ok());
  EXPECT_NE(adopted.message().find("cache is disabled"), std::string::npos)
      << adopted.message();
}

// ---------------------------------------------------------------------------
// Rejection: truncation / corruption / version bump
// ---------------------------------------------------------------------------

class PreparedSnapshotRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine engine;
    Result<PreparedHandle> prepared = engine.Prepare(BaseSpec());
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    // ctest runs each test of this fixture as its own process, possibly in
    // parallel: a shared file name would let one SetUp truncate the file
    // while another test reads it.
    path_ = PathFor(std::string(::testing::UnitTest::GetInstance()
                                    ->current_test_info()
                                    ->name()) +
                    ".rejection.snapshot");
    ASSERT_TRUE(SavePreparedSnapshot(**prepared, path_).ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(PreparedSnapshotRejection, TruncatedFilesFailWithADiagnostic) {
  const std::string path = PathFor("truncated.snapshot");
  // Every truncation point must fail cleanly: inside the magic, inside the
  // header, mid-profiles, and one byte short of complete.
  for (size_t keep : {size_t{0}, size_t{4}, size_t{20}, bytes_.size() / 2,
                      bytes_.size() - 1}) {
    WriteFileBytes(path, bytes_.substr(0, keep));
    Result<PreparedHandle> loaded = LoadPreparedSnapshot(path, 1);
    ASSERT_FALSE(loaded.ok()) << "accepted a " << keep << "-byte prefix of a "
                              << bytes_.size() << "-byte snapshot";
    EXPECT_NE(loaded.status().message().find(path), std::string::npos)
        << "diagnostic does not name the file: "
        << loaded.status().message();
  }
}

TEST_F(PreparedSnapshotRejection, CorruptedBytesFailEitherParseOrDigest) {
  const std::string path = PathFor("corrupted.snapshot");
  // Flip one byte at several offsets: whatever still parses must be caught
  // by the recomputed-digest check, never silently executed.
  for (size_t offset : {bytes_.size() / 4, bytes_.size() / 2,
                        (3 * bytes_.size()) / 4}) {
    std::string corrupted = bytes_;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x5a);
    WriteFileBytes(path, corrupted);
    Result<PreparedHandle> loaded = LoadPreparedSnapshot(path, 1);
    ASSERT_FALSE(loaded.ok())
        << "accepted a snapshot with byte " << offset << " flipped";
  }
}

TEST_F(PreparedSnapshotRejection, DigestMismatchNamesBothDigests) {
  // Surgically alter the stored prepared_digest (bytes right after the
  // magic + cache-key string): the file parses fine, so the rebuilt-digest
  // comparison is the only thing standing — the diagnostic must name the
  // stored and rebuilt value.
  const size_t key_size = 8 + 8;  // magic + cache_key length field
  uint64_t cache_key_size = 0;
  std::memcpy(&cache_key_size, bytes_.data() + 8, sizeof cache_key_size);
  const size_t digest_offset = key_size + cache_key_size + 8;  // skip fp
  ASSERT_LT(digest_offset + 8, bytes_.size());
  std::string altered = bytes_;
  altered[digest_offset] = static_cast<char>(altered[digest_offset] ^ 0xff);
  const std::string path = PathFor("digest.snapshot");
  WriteFileBytes(path, altered);

  Result<PreparedHandle> loaded = LoadPreparedSnapshot(path, 1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("digest mismatch"),
            std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("stored"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("rebuilt"), std::string::npos);
}

TEST_F(PreparedSnapshotRejection, FutureFormatVersionIsRejectedByName) {
  std::string bumped = bytes_;
  bumped[6] = '9';
  bumped[7] = '9';  // "GSMBPS01" -> "GSMBPS99"
  const std::string path = PathFor("version.snapshot");
  WriteFileBytes(path, bumped);

  for (bool load : {false, true}) {
    Status status = load ? LoadPreparedSnapshot(path, 1).status()
                         : ReadPreparedSnapshotInfo(path).status();
    ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("unsupported format version"),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("GSMBPS99"), std::string::npos);
  }
}

TEST_F(PreparedSnapshotRejection, NonSnapshotFilesAreRejectedAsSuch) {
  const std::string path = PathFor("not_a.snapshot");
  WriteFileBytes(path, "{\"version\": 2, \"this is\": \"a job spec\"}");
  Result<PreparedHandle> loaded = LoadPreparedSnapshot(path, 1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("not a prepared snapshot"),
            std::string::npos)
      << loaded.status().message();

  Result<PreparedHandle> missing =
      LoadPreparedSnapshot(PathFor("does_not_exist.snapshot"), 1);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace gsmb
