#include "gsmb/prepared.h"

#include "blocking/entity_index.h"
#include "gsmb/telemetry.h"
#include "util/stopwatch.h"

namespace gsmb {

const PreparedInputs::BatchArrays& PreparedInputs::Batch(
    size_t num_threads) const {
  // call_once makes the lazy materialisation safe under concurrent Execute
  // calls against one shared handle: every caller gets the same arrays,
  // built exactly once. The winner's thread count shapes only the build's
  // wall clock — GenerateCandidatePairs is bit-identical for any value.
  std::call_once(batch_once_, [&] {
    // The batch backend's pair-generation phase happens here, inside the
    // handle — span it so a batch trace shows the same canonical phases
    // as a streaming one.
    GSMB_SPAN("pairs");
    Stopwatch watch;
    batch_.pairs = GenerateCandidatePairs(*stream.index, num_threads);
    batch_.materialize_seconds = watch.ElapsedSeconds();
    batch_ready_.store(true, std::memory_order_release);
  });
  return batch_;
}

namespace {

size_t ProfileBytes(const EntityCollection& collection) {
  size_t bytes = collection.size() * sizeof(EntityProfile);
  for (const EntityProfile& profile : collection.profiles()) {
    bytes += profile.external_id().size();
    for (const Attribute& attribute : profile.attributes()) {
      bytes += sizeof(Attribute) + attribute.name.size() +
               attribute.value.size();
    }
  }
  return bytes;
}

size_t GroundTruthBytes(const GroundTruth& gt) {
  // Pair vector plus the hash-set index (bucket + node overhead estimate).
  return gt.size() * (sizeof(MatchPair) + 4 * sizeof(uint64_t));
}

size_t BlockBytes(const BlockCollection& blocks) {
  size_t bytes = blocks.size() * sizeof(Block);
  for (const Block& block : blocks.blocks()) {
    bytes += block.key.size() +
             (block.left.size() + block.right.size()) * sizeof(EntityId);
  }
  return bytes;
}

size_t IndexBytes(const EntityIndex& index) {
  // Both CSR directions carry Σ|b| uint32 entries plus per-entity offsets
  // and four per-entity aggregate arrays.
  return index.TotalEntityOccurrences() * 2 * sizeof(uint32_t) +
         index.num_entities() * (2 * sizeof(size_t) + 4 * sizeof(double)) +
         index.num_blocks() * (sizeof(uint32_t) + sizeof(double));
}

}  // namespace

size_t PreparedInputs::ApproxBytes() const {
  size_t bytes = sizeof(PreparedInputs) + cache_key.size();
  bytes += ProfileBytes(inputs.e1) + ProfileBytes(inputs.e2);
  // The ground truth is held twice (inputs + the counting preparation).
  bytes += 2 * GroundTruthBytes(inputs.ground_truth);
  bytes += BlockBytes(stream.blocks);
  if (stream.index != nullptr) bytes += IndexBytes(*stream.index);
  bytes += stream.pivot_offsets.size() * sizeof(uint64_t);
  bytes += stream.positive_indices.size() * sizeof(uint64_t);
  if (batch_materialized()) {
    bytes += batch_.pairs.size() * sizeof(CandidatePair);
  }
  return bytes;
}

}  // namespace gsmb
