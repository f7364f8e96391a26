#include "stream/streaming_dataset.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "blocking/candidate_pairs.h"
#include "blocking/token_blocking.h"
#include "core/features.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

// A ground-truth match found during the counting sweep, addressed by its
// (pivot, rank-within-pivot) position so it can be turned into a global
// candidate index once the prefix sums exist.
struct LocalPositive {
  uint64_t pivot;
  uint64_t rank;
};

StreamingDataset FinishStreamingPreparation(const std::string& name,
                                            BlockCollection blocks,
                                            GroundTruth ground_truth,
                                            size_t num_threads) {
  StreamingDataset prep;
  prep.name = name;
  prep.clean_clean = blocks.clean_clean();
  prep.ground_truth = std::move(ground_truth);
  prep.blocks = std::move(blocks);
  prep.index = std::make_unique<EntityIndex>(prep.blocks, num_threads);
  prep.stats = ComputeBlockStats(prep.blocks);

  // The ground-truth matches by (pivot, partner), ascending: a pivot's
  // partners are found by binary search in its ascending neighbour list,
  // instead of a hash probe per candidate.
  const EntityIndex& index = *prep.index;
  const size_t num_pivots = NumCandidatePivots(index);
  std::vector<MatchPair> matches = prep.ground_truth.pairs();
  std::sort(matches.begin(), matches.end(),
            [](const MatchPair& a, const MatchPair& b) {
              return a.left != b.left ? a.left < b.left : a.right < b.right;
            });

  // One counting sweep: per-pivot candidate counts plus the positions of
  // the ground-truth matches among them. Workers claim pivot chunks one at
  // a time (Dirty-ER pivots near the start carry most of the pairs), and
  // chunk-owned outputs concatenate in chunk order, so both results are
  // identical for any thread count.
  std::vector<uint64_t> counts(num_pivots, 0);
  const std::vector<ChunkRange> chunks =
      DeterministicChunks(num_pivots, kPivotChunkGrain);
  std::vector<std::vector<LocalPositive>> positive_parts(chunks.size());
  ParallelClaim(chunks.size(), num_threads, [&](const auto& next) {
    PivotNeighbourGenerator generator(index);
    std::vector<EntityId> neighbours;
    for (size_t c; next(&c);) {
      for (size_t p = chunks[c].begin; p < chunks[c].end; ++p) {
        generator.Generate(p, &neighbours);
        counts[p] = neighbours.size();
        // Partners ascending => ranks ascending within the pivot.
        auto match = std::lower_bound(
            matches.begin(), matches.end(), p,
            [](const MatchPair& m, size_t pivot) { return m.left < pivot; });
        for (; match != matches.end() && match->left == p; ++match) {
          const auto it = std::lower_bound(neighbours.begin(),
                                           neighbours.end(), match->right);
          if (it != neighbours.end() && *it == match->right) {
            positive_parts[c].push_back(
                {p, static_cast<uint64_t>(it - neighbours.begin())});
          }
        }
      }
    }
  });

  prep.pivot_offsets.resize(num_pivots + 1, 0);
  for (size_t p = 0; p < num_pivots; ++p) {
    prep.pivot_offsets[p + 1] = prep.pivot_offsets[p] + counts[p];
  }

  // Chunks ascending, pivots ascending within a chunk, ranks ascending
  // within a pivot => global indices ascending.
  for (const std::vector<LocalPositive>& part : positive_parts) {
    for (const LocalPositive& positive : part) {
      prep.positive_indices.push_back(prep.pivot_offsets[positive.pivot] +
                                      positive.rank);
    }
  }

  prep.blocking_quality.num_candidates =
      static_cast<size_t>(prep.num_candidates());
  prep.blocking_quality.duplicates_covered = prep.positive_indices.size();
  if (!prep.ground_truth.empty()) {
    prep.blocking_quality.recall =
        static_cast<double>(prep.blocking_quality.duplicates_covered) /
        static_cast<double>(prep.ground_truth.size());
  }
  if (prep.blocking_quality.num_candidates > 0) {
    prep.blocking_quality.precision =
        static_cast<double>(prep.blocking_quality.duplicates_covered) /
        static_cast<double>(prep.blocking_quality.num_candidates);
  }
  if (prep.blocking_quality.recall + prep.blocking_quality.precision > 0.0) {
    prep.blocking_quality.f1 = 2.0 * prep.blocking_quality.recall *
                               prep.blocking_quality.precision /
                               (prep.blocking_quality.recall +
                                prep.blocking_quality.precision);
  }
  return prep;
}

}  // namespace

StreamingDataset PrepareStreamingCleanClean(const std::string& name,
                                            const EntityCollection& e1,
                                            const EntityCollection& e2,
                                            GroundTruth ground_truth,
                                            const BlockingOptions& options) {
  if (ground_truth.dirty()) {
    throw std::invalid_argument(
        "PrepareStreamingCleanClean: ground truth has Dirty-ER semantics");
  }
  BlockCollection raw = TokenBlocking(options.min_token_length)
      .Build(e1, e2, options.execution.num_threads);
  return FinishStreamingPreparation(
      name, PreprocessBlocks(std::move(raw), options),
      std::move(ground_truth), options.execution.num_threads);
}

StreamingDataset PrepareStreamingDirty(const std::string& name,
                                       const EntityCollection& e,
                                       GroundTruth ground_truth,
                                       const BlockingOptions& options) {
  if (!ground_truth.dirty()) {
    throw std::invalid_argument(
        "PrepareStreamingDirty: ground truth has Clean-Clean semantics");
  }
  BlockCollection raw = TokenBlocking(options.min_token_length)
      .Build(e, options.execution.num_threads);
  return FinishStreamingPreparation(
      name, PreprocessBlocks(std::move(raw), options),
      std::move(ground_truth), options.execution.num_threads);
}

StreamingDataset PrepareStreamingFromBlocks(const std::string& name,
                                            BlockCollection blocks,
                                            GroundTruth ground_truth,
                                            size_t num_threads) {
  return FinishStreamingPreparation(name, std::move(blocks),
                                    std::move(ground_truth), num_threads);
}

TrainedClassifier TrainClassifier(const StreamingDataset& dataset,
                                  const MetaBlockingConfig& config,
                                  const std::vector<double>* lcp,
                                  obs::PhaseTimings* phases) {
  PairRegenerator regenerate(*dataset.index, dataset.pivot_offsets);
  return TrainClassifier(
      dataset.positive_indices, dataset.num_candidates(), config,
      [&](const std::vector<size_t>& rows) {
        return SampledFeatureRows(
            *dataset.index, config.features, rows,
            [&](size_t row) { return regenerate.At(row); },
            config.execution.num_threads, lcp);
      },
      dataset.name, phases);
}

}  // namespace gsmb
