// Binary snapshot save/load for MetaBlockingSession.
//
// Layout (util/binary_io: little-endian on every host, doubles bit-exact so
// a restored session scores and prunes identically):
//   magic "GSMBSN02"
//   options   num_shards, num_threads, min_token_length, max_block_size,
//             pruning kind, blast_ratio, validity_threshold,
//             cnp_entity_universe
//   model     feature mask, weights, intercept
//   profiles  external id + attribute name/value pairs, in id order
//   shards    per shard: dirty flag, cached block/candidate stats, retained
//             pairs, per-entity aggregates
//
// The shard *key tables* are not serialised: they are a pure function of
// the profiles (tokenise, route by stable hash), so Load() replays the
// profiles instead — smaller snapshots and one fewer format detail that
// could drift from the ingest path.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/session.h"
#include "util/binary_io.h"

namespace gsmb {

namespace {

constexpr char kMagic[8] = {'G', 'S', 'M', 'B', 'S', 'N', '0', '2'};

// A shard record is at least its dirty flag plus five 8-byte fields (block
// count, comparisons, candidates, retained count, aggregate count).
constexpr uint64_t kMinShardRecordBytes = 1 + 5 * 8;

}  // namespace

void MetaBlockingSession::Save(const std::string& path) const {
  // A reader lock: Save is a consistent point-in-time snapshot even while
  // concurrent queries run; writers (ingest/refresh) wait.
  std::shared_lock<std::shared_mutex> lock(sync_->mutex);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("session snapshot: cannot open " + path +
                             " for writing");
  }
  BinaryWriter writer(out);

  writer.Bytes(kMagic, sizeof kMagic);
  writer.U64(options_.num_shards);
  writer.U64(options_.execution.num_threads);
  writer.U64(options_.min_token_length);
  writer.U64(options_.max_block_size);
  writer.U8(static_cast<uint8_t>(options_.pruning));
  writer.F64(options_.blast_ratio);
  writer.F64(options_.validity_threshold);
  writer.U64(options_.cnp_entity_universe);

  writer.U8(model_.features.mask());
  writer.U64(model_.weights.size());
  for (double w : model_.weights) writer.F64(w);
  writer.F64(model_.intercept);

  writer.U64(profiles_.size());
  for (const EntityProfile& p : profiles_.profiles()) {
    writer.String(p.external_id());
    writer.U64(p.attributes().size());
    for (const Attribute& a : p.attributes()) {
      writer.String(a.name);
      writer.String(a.value);
    }
  }

  writer.U64(shards_.size());
  for (const Shard& shard : shards_) {
    writer.U8(shard.dirty ? 1 : 0);
    writer.U64(shard.num_blocks);
    writer.F64(shard.total_comparisons);
    writer.U64(shard.num_candidates);
    writer.U64(shard.retained.size());
    for (const CandidatePair& p : shard.retained) {
      writer.U32(p.left);
      writer.U32(p.right);
    }
    writer.U64(shard.aggregates.size());
    // In ascending id order, NOT hash-table order: two sessions with the
    // same logical state must serialise to the same bytes, and unordered
    // iteration order depends on insertion history and hash seed.
    std::vector<EntityId> ids;
    ids.reserve(shard.aggregates.size());
    for (const auto& [id, agg] : shard.aggregates) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (const EntityId id : ids) {
      const EntityAggregates& agg = shard.aggregates.at(id);
      writer.U32(id);
      writer.U32(agg.num_blocks);
      writer.F64(agg.comparisons);
      writer.F64(agg.inv_comparisons);
      writer.F64(agg.inv_sizes);
      writer.F64(agg.lcp);
    }
  }

  out.flush();
  if (!out) {
    throw std::runtime_error("session snapshot: write to " + path +
                             " failed");
  }
}

MetaBlockingSession MetaBlockingSession::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("session snapshot: cannot open " + path);
  }
  BinaryReader reader(in, "session snapshot");

  char magic[sizeof kMagic];
  reader.Bytes(magic, sizeof magic);
  if (!std::equal(magic, magic + sizeof magic, kMagic)) {
    throw std::runtime_error("session snapshot: " + path +
                             " is not a GSMB session snapshot");
  }

  SessionOptions options;
  // Bounded by the shard records the file can hold: the constructor sizes
  // the shard vector from this field before anything else checks it.
  options.num_shards = reader.Count(kMinShardRecordBytes);
  options.execution.num_threads = reader.U64();
  options.min_token_length = reader.U64();
  options.max_block_size = reader.U64();
  const uint8_t pruning = reader.U8();
  if (pruning > static_cast<uint8_t>(PruningKind::kRcnp)) {
    throw std::runtime_error("session snapshot: invalid pruning kind");
  }
  options.pruning = static_cast<PruningKind>(pruning);
  options.blast_ratio = reader.F64();
  options.validity_threshold = reader.F64();
  options.cnp_entity_universe = reader.U64();

  ServingModel model;
  model.features = FeatureSet::FromMask(reader.U8());
  model.weights.resize(reader.Count(sizeof(double)));
  for (double& w : model.weights) w = reader.F64();
  model.intercept = reader.F64();

  // The constructor validates options and model and sizes the shards.
  MetaBlockingSession session(options, std::move(model));

  // Replay the profiles through the normal ingest path to rebuild the
  // shard key tables (dirty marks are overwritten from the file below).
  const uint64_t num_profiles = reader.Count(sizeof(uint64_t));
  for (uint64_t i = 0; i < num_profiles; ++i) {
    EntityProfile profile(reader.String());
    const uint64_t num_attributes = reader.Count(2 * sizeof(uint64_t));
    for (uint64_t a = 0; a < num_attributes; ++a) {
      std::string name = reader.String();
      std::string value = reader.String();
      profile.AddAttribute(std::move(name), std::move(value));
    }
    session.AddProfile(profile);
  }

  const uint64_t num_shards = reader.U64();
  if (num_shards != session.shards_.size()) {
    throw std::runtime_error("session snapshot: shard count mismatch");
  }
  // Every id must index the profiles just replayed, or later queries and
  // retained-pair exports would index out of bounds.
  const auto checked_id = [&](uint32_t id) {
    if (id >= session.profiles_.size()) {
      throw std::runtime_error(
          "session snapshot: entity id out of range (corrupt file)");
    }
    return static_cast<EntityId>(id);
  };
  for (Shard& shard : session.shards_) {
    shard.dirty = reader.U8() != 0;
    shard.num_blocks = reader.U64();
    shard.total_comparisons = reader.F64();
    shard.num_candidates = reader.U64();
    shard.retained.assign(reader.Count(2 * sizeof(uint32_t)),
                          CandidatePair{});
    for (CandidatePair& p : shard.retained) {
      p.left = checked_id(reader.U32());
      p.right = checked_id(reader.U32());
    }
    const uint64_t num_aggregates =
        reader.Count(2 * sizeof(uint32_t) + 4 * sizeof(double));
    shard.aggregates.clear();
    shard.aggregates.reserve(num_aggregates);
    for (uint64_t a = 0; a < num_aggregates; ++a) {
      const EntityId id = checked_id(reader.U32());
      EntityAggregates agg;
      agg.num_blocks = reader.U32();
      agg.comparisons = reader.F64();
      agg.inv_comparisons = reader.F64();
      agg.inv_sizes = reader.F64();
      agg.lcp = reader.F64();
      shard.aggregates.emplace(id, agg);
    }
  }
  return session;
}

}  // namespace gsmb
