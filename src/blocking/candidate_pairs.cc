#include "blocking/candidate_pairs.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace gsmb {

size_t NumCandidatePivots(const EntityIndex& index) {
  return index.clean_clean() ? index.num_left() : index.num_entities();
}

size_t PivotOfCandidate(const std::vector<uint64_t>& pivot_offsets,
                        uint64_t index) {
  auto it = std::upper_bound(pivot_offsets.begin(), pivot_offsets.end(),
                             index);
  return static_cast<size_t>(it - pivot_offsets.begin()) - 1;
}

PivotNeighbourGenerator::PivotNeighbourGenerator(const EntityIndex& index)
    : index_(index), last_seen_(index.num_entities(), 0) {}

void PivotNeighbourGenerator::Generate(size_t pivot,
                                       std::vector<EntityId>* neighbours) {
  // Epoch-marked dedup: last_seen_[g] == current epoch means global entity
  // g was already collected for this pivot. Identical to the sweep inside
  // GenerateCandidatePairs.
  ++epoch_;
  neighbours->clear();
  const bool clean_clean = index_.clean_clean();
  const size_t num_left = index_.num_left();
  if (clean_clean) {
    for (uint32_t bid : index_.BlocksOf(pivot)) {
      for (uint32_t g : index_.BlockRightGlobals(bid)) {
        if (last_seen_[g] != epoch_) {
          last_seen_[g] = epoch_;
          neighbours->push_back(static_cast<EntityId>(g - num_left));
        }
      }
    }
  } else {
    for (uint32_t bid : index_.BlocksOf(pivot)) {
      for (uint32_t g : index_.BlockLeftGlobals(bid)) {
        // Keep only j > i: every unordered pair is emitted exactly once,
        // grouped under its smaller id.
        if (g > pivot && last_seen_[g] != epoch_) {
          last_seen_[g] = epoch_;
          neighbours->push_back(static_cast<EntityId>(g));
        }
      }
    }
  }
  std::sort(neighbours->begin(), neighbours->end());
}

std::vector<CandidatePair> GenerateCandidatePairs(const EntityIndex& index,
                                                  size_t num_threads) {
  const size_t num_pivots = NumCandidatePivots(index);

  // Pivot entities are independent, so the sweep parallelises over
  // fixed-grain pivot chunks: each worker keeps its own epoch-marked
  // scratch and fills chunk-owned output slots, which concatenate in chunk
  // order — the pair list is identical to the serial sweep for any thread
  // count.
  const std::vector<ChunkRange> chunks =
      DeterministicChunks(num_pivots, kPivotChunkGrain);
  std::vector<std::vector<CandidatePair>> parts(chunks.size());
  ParallelFor(chunks.size(), num_threads,
              [&](size_t chunks_begin, size_t chunks_end) {
                PivotNeighbourGenerator generator(index);
                std::vector<EntityId> neighbours;
                for (size_t c = chunks_begin; c < chunks_end; ++c) {
                  std::vector<CandidatePair>& out = parts[c];
                  for (size_t e = chunks[c].begin; e < chunks[c].end; ++e) {
                    generator.Generate(e, &neighbours);
                    for (EntityId right : neighbours) {
                      out.push_back({static_cast<EntityId>(e), right});
                    }
                  }
                }
              });

  return MergeChunkParts(&parts, num_threads);
}

size_t CountPositivePairs(const std::vector<CandidatePair>& pairs,
                          const GroundTruth& gt) {
  size_t count = 0;
  for (const CandidatePair& p : pairs) {
    if (gt.IsMatch(p.left, p.right)) ++count;
  }
  return count;
}

}  // namespace gsmb
