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
    : index_(index), neighbours_(index.num_entities()) {}

void PivotNeighbourGenerator::Generate(size_t pivot,
                                       std::vector<EntityId>* neighbours) {
  // The set dedupes the co-occurring globals and drains them ascending.
  neighbours->clear();
  if (index_.clean_clean()) {
    for (uint32_t bid : index_.BlocksOf(pivot)) {
      for (uint32_t g : index_.BlockRightGlobals(bid)) neighbours_.Insert(g);
    }
    const auto right_offset = static_cast<uint32_t>(index_.num_left());
    neighbours_.Drain([&](uint32_t g) {
      neighbours->push_back(static_cast<EntityId>(g - right_offset));
    });
  } else {
    for (uint32_t bid : index_.BlocksOf(pivot)) {
      for (uint32_t g : index_.BlockLeftGlobals(bid)) {
        // Keep only j > i: every unordered pair is emitted exactly once,
        // grouped under its smaller id.
        if (g > pivot) neighbours_.Insert(g);
      }
    }
    neighbours_.Drain(
        [&](uint32_t g) { neighbours->push_back(static_cast<EntityId>(g)); });
  }
}

std::vector<CandidatePair> GenerateCandidatePairs(const EntityIndex& index,
                                                  size_t num_threads) {
  const size_t num_pivots = NumCandidatePivots(index);

  // Pivot entities are independent, so the sweep parallelises over
  // fixed-grain pivot chunks that workers claim one at a time: each worker
  // keeps its own neighbour set and fills chunk-owned output slots, which
  // concatenate in chunk order — the pair list is identical to the serial
  // sweep for any thread count.
  const std::vector<ChunkRange> chunks =
      DeterministicChunks(num_pivots, kPivotChunkGrain);
  std::vector<std::vector<CandidatePair>> parts(chunks.size());
  ParallelClaim(chunks.size(), num_threads, [&](const auto& next) {
    PivotNeighbourGenerator generator(index);
    std::vector<EntityId> neighbours;
    for (size_t c; next(&c);) {
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
