// Prepared-snapshot save/load (gsmb/snapshot.h).
//
// Layout (util/binary_io: little-endian on every host; only the
// preparation's sources of truth are stored — derived state is rebuilt on
// load through the same code path a cold Engine::Prepare takes, so the file
// cannot drift from the build):
//   magic       "GSMBPS01"
//   header      cache_key, dataset_fingerprint, prepared_digest,
//               prepare_seconds
//   inputs      dirty flag, E1 profiles, E2 profiles (external id +
//               attribute name/value pairs, in internal-id order),
//               ground truth (dirty flag + pairs in insertion order)
//   blocks      clean_clean flag, stream name, |E1|, |E2|, post-purge/
//               filter blocks (key + left ids + right ids, in order)
//
// Every length field is validated against the bytes remaining in the file
// before any container is sized from it, every entity id against the
// declared collection sizes — a corrupt file fails with a diagnostic, not
// UB. After the rebuild, both header digests are recomputed and compared:
// the load is trusted only because it proves it reproduced the exact
// preparation the save described.

#include "gsmb/snapshot.h"

#include <cstdint>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gsmb/digest.h"
#include "stream/streaming_dataset.h"
#include "util/binary_io.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

void WriteCollection(BinaryWriter& writer,
                     const EntityCollection& collection) {
  writer.String(collection.name());
  writer.U64(collection.size());
  for (const EntityProfile& profile : collection.profiles()) {
    writer.String(profile.external_id());
    writer.U64(profile.attributes().size());
    for (const Attribute& attribute : profile.attributes()) {
      writer.String(attribute.name);
      writer.String(attribute.value);
    }
  }
}

/// Checks the 8 magic bytes, distinguishing "not a snapshot at all" from
/// "a snapshot of another format version".
Status CheckMagic(BinaryReader& reader, const std::string& path) {
  char magic[8];
  reader.Bytes(magic, sizeof magic);
  const std::string_view got(magic, sizeof magic);
  if (got == kPreparedSnapshotMagic) return Status::Ok();
  if (got.substr(0, 6) == kPreparedSnapshotMagic.substr(0, 6)) {
    return Status::InvalidArgument(
        "prepared snapshot '" + path + "': unsupported format version '" +
        std::string(got) + "' (this build reads '" +
        std::string(kPreparedSnapshotMagic) + "')");
  }
  return Status::InvalidArgument("prepared snapshot '" + path +
                                 "': not a prepared snapshot (bad magic)");
}

/// Header fields after the magic, shared by Load and ReadInfo.
PreparedSnapshotInfo ReadHeader(BinaryReader& reader) {
  PreparedSnapshotInfo info;
  info.cache_key = reader.String();
  info.dataset_fingerprint = reader.U64();
  info.prepared_digest = reader.U64();
  info.prepare_seconds = reader.F64();
  info.file_bytes = reader.size();
  return info;
}

EntityCollection ReadCollection(BinaryReader& reader) {
  EntityCollection collection(reader.String());
  // A profile is at least one external-id length field + one attr count.
  const uint64_t count = reader.Count(16);
  collection.Reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    EntityProfile profile(reader.String());
    const uint64_t num_attributes = reader.Count(16);
    for (uint64_t a = 0; a < num_attributes; ++a) {
      std::string attr_name = reader.String();
      std::string attr_value = reader.String();
      profile.AddAttribute(std::move(attr_name), std::move(attr_value));
    }
    collection.Add(std::move(profile));
  }
  return collection;
}

}  // namespace

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

Status SavePreparedSnapshot(const PreparedInputs& prepared,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::NotFound("prepared snapshot: cannot open '" + path +
                            "' for writing");
  }
  BinaryWriter writer(out);

  writer.Bytes(kPreparedSnapshotMagic.data(), kPreparedSnapshotMagic.size());
  writer.String(prepared.cache_key);
  writer.U64(prepared.dataset_fingerprint);
  writer.U64(prepared.prepared_digest);
  writer.F64(prepared.prepare_seconds);

  writer.U8(prepared.inputs.dirty ? 1 : 0);
  WriteCollection(writer, prepared.inputs.e1);
  WriteCollection(writer, prepared.inputs.e2);

  const GroundTruth& gt = prepared.inputs.ground_truth;
  writer.U8(gt.dirty() ? 1 : 0);
  writer.U64(gt.size());
  for (const MatchPair& pair : gt.pairs()) {
    writer.U32(pair.left);
    writer.U32(pair.right);
  }

  const BlockCollection& blocks = prepared.stream.blocks;
  writer.U8(blocks.clean_clean() ? 1 : 0);
  writer.String(prepared.stream.name);
  writer.U64(blocks.num_left_entities());
  writer.U64(blocks.num_right_entities());
  writer.U64(blocks.size());
  for (const Block& block : blocks.blocks()) {
    writer.String(block.key);
    writer.U64(block.left.size());
    for (EntityId id : block.left) writer.U32(id);
    writer.U64(block.right.size());
    for (EntityId id : block.right) writer.U32(id);
  }

  out.flush();
  if (!out.good()) {
    return Status::Internal("prepared snapshot: write to '" + path +
                            "' failed");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Header peek
// ---------------------------------------------------------------------------

Result<PreparedSnapshotInfo> ReadPreparedSnapshotInfo(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("prepared snapshot: cannot open '" + path + "'");
  }
  try {
    BinaryReader reader(in, "file");
    Status magic = CheckMagic(reader, path);
    if (!magic.ok()) return magic;
    return ReadHeader(reader);
  } catch (const std::exception& e) {
    return Status::InvalidArgument("prepared snapshot '" + path +
                                   "': " + e.what());
  }
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

Result<PreparedHandle> LoadPreparedSnapshot(const std::string& path,
                                            size_t num_threads) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("prepared snapshot: cannot open '" + path + "'");
  }
  if (num_threads == 0) num_threads = HardwareThreads();

  Stopwatch load_watch;
  PreparedSnapshotInfo info;
  auto prepared = std::make_shared<PreparedInputs>();
  try {
    BinaryReader reader(in, "file");
    Status magic = CheckMagic(reader, path);
    if (!magic.ok()) return magic;
    info = ReadHeader(reader);

    JobInputs& inputs = prepared->inputs;
    inputs.dirty = reader.U8() != 0;
    inputs.e1 = ReadCollection(reader);
    inputs.e2 = ReadCollection(reader);

    const bool gt_dirty = reader.U8() != 0;
    GroundTruth ground_truth(gt_dirty);
    const uint64_t num_matches = reader.Count(8);
    const uint64_t left_bound = inputs.e1.size();
    const uint64_t right_bound =
        inputs.dirty ? inputs.e1.size() : inputs.e2.size();
    for (uint64_t i = 0; i < num_matches; ++i) {
      const uint32_t left = reader.U32();
      const uint32_t right = reader.U32();
      if (left >= left_bound || right >= right_bound) {
        return Status::InvalidArgument(
            "prepared snapshot '" + path +
            "': ground-truth pair references an entity id out of range");
      }
      ground_truth.AddMatch(left, right);
    }
    inputs.ground_truth = ground_truth;

    const bool clean_clean = reader.U8() != 0;
    const std::string stream_name = reader.String();
    const uint64_t num_left = reader.U64();
    const uint64_t num_right = reader.U64();
    if (num_left != inputs.e1.size() ||
        num_right != (inputs.dirty ? 0 : inputs.e2.size())) {
      return Status::InvalidArgument(
          "prepared snapshot '" + path +
          "': block collection entity counts disagree with the stored "
          "profiles");
    }
    BlockCollection blocks(clean_clean, num_left, num_right);
    const uint64_t num_blocks = reader.Count(24);
    blocks.Reserve(num_blocks);
    const uint64_t member_bound_left = num_left;
    const uint64_t member_bound_right = clean_clean ? num_right : num_left;
    for (uint64_t b = 0; b < num_blocks; ++b) {
      Block block;
      block.key = reader.String();
      const uint64_t num_left_members = reader.Count(4);
      block.left.reserve(num_left_members);
      for (uint64_t i = 0; i < num_left_members; ++i) {
        const uint32_t id = reader.U32();
        if (id >= member_bound_left) {
          return Status::InvalidArgument(
              "prepared snapshot '" + path +
              "': block member id out of range");
        }
        block.left.push_back(id);
      }
      const uint64_t num_right_members = reader.Count(4);
      block.right.reserve(num_right_members);
      for (uint64_t i = 0; i < num_right_members; ++i) {
        const uint32_t id = reader.U32();
        if (id >= member_bound_right) {
          return Status::InvalidArgument(
              "prepared snapshot '" + path +
              "': block member id out of range");
        }
        block.right.push_back(id);
      }
      blocks.Add(std::move(block));
    }

    // Rebuild the derived state — EntityIndex, stats, the counting sweep —
    // through the exact code path a cold Prepare takes. Deterministic at
    // any thread count, so the rebuilt stream is bit-identical to the one
    // the snapshot was saved from.
    prepared->stream = PrepareStreamingFromBlocks(
        stream_name, std::move(blocks), std::move(ground_truth), num_threads);
  } catch (const std::exception& e) {
    return Status::InvalidArgument("prepared snapshot '" + path +
                                   "': " + e.what());
  }

  // Verify, don't trust: a file corrupted into something parseable must
  // not execute. Both digests are recomputed over the REBUILT state.
  const uint64_t fingerprint = obs::DatasetFingerprint(prepared->inputs);
  if (fingerprint != info.dataset_fingerprint) {
    return Status::Internal(
        "prepared snapshot '" + path +
        "': dataset fingerprint mismatch after load (stored " +
        obs::DigestHex(info.dataset_fingerprint) + ", rebuilt " +
        obs::DigestHex(fingerprint) + ") — the file is corrupt");
  }
  const uint64_t digest = obs::PreparedStreamDigest(prepared->stream);
  if (digest != info.prepared_digest) {
    return Status::Internal(
        "prepared snapshot '" + path +
        "': prepared digest mismatch after load (stored " +
        obs::DigestHex(info.prepared_digest) + ", rebuilt " +
        obs::DigestHex(digest) + ") — the file is corrupt");
  }

  prepared->cache_key = info.cache_key;
  prepared->dataset_fingerprint = fingerprint;
  prepared->prepared_digest = digest;
  // The handle reports the LOAD cost as its one-off preparation cost: that
  // is what this process actually paid, and what flows into
  // JobResult::blocking_seconds for runs executed against the handle.
  prepared->prepare_seconds = load_watch.ElapsedSeconds();
  return PreparedHandle(std::move(prepared));
}

}  // namespace gsmb
