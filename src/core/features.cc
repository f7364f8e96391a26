#include "core/features.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>

#include "ml/classifier.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

// Per-neighbour sums over the current pivot's blocks, packed into one
// 24-byte record so a touch reads and writes one record, not four arrays.
// Epoch-marked and reused across pivots, so no allocation happens inside
// the sweep. The common-block count is exact as an integer; it converts to
// the same double that summing 1.0 per common block gives.
struct NeighbourSums {
  uint32_t epoch = 0;
  uint32_t common = 0;           // |B_i ∩ B_j|
  double inv_comparisons = 0.0;  // Σ 1/||b|| over common blocks
  double inv_sizes = 0.0;        // Σ 1/|b|  over common blocks
};

// Rows per tile: a tile's gathered inputs and values stay in L1.
constexpr size_t kTileRows = 128;

// One worker's tile: the gathered per-row inputs, then the rows' values
// row-major (row r, column c at values[r * dims + c]).
struct Tile {
  size_t other[kTileRows];  // global id of the row's neighbour
  double common[kTileRows];
  double inv_comparisons[kTileRows];
  double inv_sizes[kTileRows];
  double other_blocks[kTileRows];  // |B_j|
  double values[kTileRows * kFullMatrixCols];
};

/// Contiguous [begin, end) row ranges sharing one pivot (left) entity.
std::vector<std::pair<size_t, size_t>> PivotGroups(
    const std::vector<CandidatePair>& pairs) {
  std::vector<std::pair<size_t, size_t>> groups;
  size_t row = 0;
  while (row < pairs.size()) {
    size_t end = row;
    const EntityId pivot = pairs[row].left;
    while (end < pairs.size() && pairs[end].left == pivot) ++end;
    groups.push_back({row, end});
    row = end;
  }
  return groups;
}

/// LCP per global entity: one distinct-candidate sweep.
std::vector<double> LcpPerEntity(const EntityIndex& index,
                                 size_t num_threads) {
  const size_t n = index.num_entities();
  std::vector<double> lcp(n, 0.0);
  ParallelFor(n, num_threads, [&](size_t begin, size_t end) {
    std::vector<uint32_t> last_seen(n, 0);
    uint32_t epoch = 0;
    for (size_t e = begin; e < end; ++e) {
      ++epoch;
      size_t count = 0;
      const bool left_side = !index.clean_clean() || e < index.num_left();
      for (uint32_t bid : index.BlocksOf(e)) {
        // Candidates of a left entity are the right members and vice
        // versa; for Dirty ER every co-occurring entity is a candidate.
        if (index.clean_clean()) {
          auto others = left_side ? index.BlockRightGlobals(bid)
                                  : index.BlockLeftGlobals(bid);
          for (uint32_t g : others) {
            if (last_seen[g] != epoch) {
              last_seen[g] = epoch;
              ++count;
            }
          }
        } else {
          for (uint32_t g : index.BlockLeftGlobals(bid)) {
            if (g != e && last_seen[g] != epoch) {
              last_seen[g] = epoch;
              ++count;
            }
          }
        }
      }
      lcp[e] = static_cast<double>(count);
    }
  });
  return lcp;
}

/// The row kernel: evaluates the rows of `pairs` a tile at a time — up to
/// kTileRows consecutive rows of one pivot — into a stack buffer, in
/// set.FullMatrixColumns() order, and hands each tile to
/// sink(first_row, count, values). A tile is filled one feature column at a
/// time, so each expression runs as a tight loop, and the sink then
/// consumes whole rows (a copy, or the classifier) in a loop of its own.
/// Workers own whole pivot groups, so each row is produced exactly once.
template <typename Sink>
void SweepRows(const EntityIndex& index,
               const std::vector<CandidatePair>& pairs, const FeatureSet& set,
               size_t num_threads, const std::vector<double>* precomputed_lcp,
               const Sink& sink) {
  assert(!set.empty());
  if (pairs.empty()) return;
  std::vector<double> lcp_local;
  const std::vector<double>* lcp = precomputed_lcp;
  if (set.Contains(Feature::kLcp) && lcp == nullptr) {
    lcp_local = LcpPerEntity(index, num_threads);
    lcp = &lcp_local;
  }
  assert(!set.Contains(Feature::kLcp) ||
         lcp->size() == index.num_entities());

  const std::vector<Feature> members = set.Members();
  const size_t dims = set.Dimensions();
  const bool clean_clean = index.clean_clean();
  const size_t right_offset = index.num_left();
  const size_t num_entities = index.num_entities();
  const double num_blocks = static_cast<double>(index.num_blocks());
  const double total_comparisons = index.TotalComparisons();

  // log(|B|/|B_i|) and log(||B||/||e_i||), once per entity.
  std::vector<double> log_ibf;
  std::vector<double> log_ejs;
  if (set.Contains(Feature::kCfIbf)) log_ibf.resize(num_entities);
  if (set.Contains(Feature::kEjs)) log_ejs.resize(num_entities);
  if (!log_ibf.empty() || !log_ejs.empty()) {
    ParallelFor(num_entities, num_threads, [&](size_t begin, size_t end) {
      for (size_t e = begin; e < end; ++e) {
        if (!log_ibf.empty() && index.NumBlocksOf(e) > 0) {
          log_ibf[e] =
              std::log(num_blocks / static_cast<double>(index.NumBlocksOf(e)));
        }
        if (!log_ejs.empty()) {
          log_ejs[e] = index.EntityComparisons(e) > 0.0
                           ? std::log(total_comparisons /
                                      index.EntityComparisons(e))
                           : 0.0;
        }
      }
    });
  }

  const std::vector<std::pair<size_t, size_t>> groups = PivotGroups(pairs);
  ParallelFor(groups.size(), num_threads, [&](size_t begin, size_t end) {
    std::vector<NeighbourSums> sums(num_entities);
    uint32_t epoch = 0;
    Tile tile{};
    for (size_t g = begin; g < end; ++g) {
      const size_t pivot = pairs[groups[g].first].left;  // left global == local

      // Accumulate per-neighbour sums over the pivot's blocks. A first
      // touch stores the terms directly: 0.0 + x == x for these x >= 0.
      ++epoch;
      for (uint32_t bid : index.BlocksOf(pivot)) {
        const double inv_cmp = index.BlockComparisons(bid) > 0.0
                                   ? 1.0 / index.BlockComparisons(bid)
                                   : 0.0;
        const double inv_size =
            1.0 / static_cast<double>(index.BlockSize(bid));
        auto others = clean_clean ? index.BlockRightGlobals(bid)
                                  : index.BlockLeftGlobals(bid);
        for (uint32_t other : others) {
          if (!clean_clean && other == pivot) continue;
          NeighbourSums& s = sums[other];
          if (s.epoch != epoch) {
            s = NeighbourSums{epoch, 1, inv_cmp, inv_size};
          } else {
            s.common += 1;
            s.inv_comparisons += inv_cmp;
            s.inv_sizes += inv_size;
          }
        }
      }

      const double pivot_blocks =
          static_cast<double>(index.NumBlocksOf(pivot));
      const double pivot_inv_cmp = index.SumInvBlockComparisons(pivot);
      const double pivot_inv_size = index.SumInvBlockSizes(pivot);

      for (size_t first = groups[g].first; first < groups[g].second;
           first += kTileRows) {
        const size_t count = std::min(kTileRows, groups[g].second - first);
        for (size_t r = 0; r < count; ++r) {
          const CandidatePair& p = pairs[first + r];
          const size_t other = clean_clean ? right_offset + p.right
                                           : static_cast<size_t>(p.right);
          const NeighbourSums& s = sums[other];
          assert(s.epoch == epoch && "pair not implied by the entity index");
          tile.other[r] = other;
          tile.common[r] = static_cast<double>(s.common);
          tile.inv_comparisons[r] = s.inv_comparisons;
          tile.inv_sizes[r] = s.inv_sizes;
          tile.other_blocks[r] = static_cast<double>(index.NumBlocksOf(other));
        }

        // One column at a time; row r's value goes to out[r * dims].
        size_t col = 0;
        for (Feature f : members) {
          double* out = tile.values + col;
          switch (f) {
            case Feature::kCfIbf:
              for (size_t r = 0; r < count; ++r) {
                out[r * dims] =
                    tile.common[r] * log_ibf[pivot] * log_ibf[tile.other[r]];
              }
              break;
            case Feature::kRaccb:
              for (size_t r = 0; r < count; ++r) {
                out[r * dims] = tile.inv_comparisons[r];
              }
              break;
            case Feature::kJs:
              for (size_t r = 0; r < count; ++r) {
                out[r * dims] =
                    tile.common[r] /
                    (pivot_blocks + tile.other_blocks[r] - tile.common[r]);
              }
              break;
            case Feature::kLcp:
              for (size_t r = 0; r < count; ++r) {
                out[r * dims] = (*lcp)[pivot];
                out[r * dims + 1] = (*lcp)[tile.other[r]];
              }
              ++col;
              break;
            case Feature::kEjs:
              for (size_t r = 0; r < count; ++r) {
                const double js =
                    tile.common[r] /
                    (pivot_blocks + tile.other_blocks[r] - tile.common[r]);
                out[r * dims] =
                    js * log_ejs[pivot] * log_ejs[tile.other[r]];
              }
              break;
            case Feature::kWjs:
              for (size_t r = 0; r < count; ++r) {
                const double denom =
                    pivot_inv_cmp +
                    index.SumInvBlockComparisons(tile.other[r]) -
                    tile.inv_comparisons[r];
                out[r * dims] =
                    denom > 0.0 ? tile.inv_comparisons[r] / denom : 0.0;
              }
              break;
            case Feature::kRs:
              for (size_t r = 0; r < count; ++r) {
                out[r * dims] = tile.inv_sizes[r];
              }
              break;
            case Feature::kNrs:
              for (size_t r = 0; r < count; ++r) {
                const double denom = pivot_inv_size +
                                     index.SumInvBlockSizes(tile.other[r]) -
                                     tile.inv_sizes[r];
                out[r * dims] =
                    denom > 0.0 ? tile.inv_sizes[r] / denom : 0.0;
              }
              break;
          }
          ++col;
        }
        sink(first, count, tile.values);
      }
    }
  });
}

}  // namespace

FeatureExtractor::FeatureExtractor(const EntityIndex& index,
                                   const std::vector<CandidatePair>& pairs)
    : index_(index), pairs_(pairs) {}

std::vector<double> FeatureExtractor::ComputeLcpPerEntity(
    size_t num_threads) const {
  return LcpPerEntity(index_, num_threads);
}

Matrix FeatureExtractor::Compute(const FeatureSet& set, size_t num_threads,
                                 const std::vector<double>* precomputed_lcp)
    const {
  Matrix out(pairs_.size(), set.Dimensions());
  SweepRows(index_, pairs_, set, num_threads, precomputed_lcp,
            [&](size_t first, size_t count, const double* values) {
              std::copy(values, values + count * out.cols(), out.Row(first));
            });
  return out;
}

std::vector<double> FeatureExtractor::Score(
    const FeatureSet& set, const ProbabilisticClassifier& model,
    size_t num_threads, const std::vector<double>* precomputed_lcp) const {
  std::vector<double> probabilities(pairs_.size());
  const size_t dims = set.Dimensions();
  SweepRows(index_, pairs_, set, num_threads, precomputed_lcp,
            [&](size_t first, size_t count, const double* values) {
              for (size_t r = 0; r < count; ++r) {
                probabilities[first + r] =
                    model.PredictProbability(values + r * dims);
              }
            });
  return probabilities;
}

Matrix SampledFeatureRows(const EntityIndex& index, const FeatureSet& set,
                          const std::vector<size_t>& rows,
                          const std::function<CandidatePair(size_t)>& pair_at,
                          size_t num_threads,
                          const std::vector<double>* precomputed_lcp) {
  // Extract in ascending candidate order (grouped by pivot, as the kernel
  // expects), then scatter each row back to its position in `rows`.
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return rows[a] < rows[b]; });
  std::vector<CandidatePair> pairs(rows.size());
  for (size_t r = 0; r < order.size(); ++r) pairs[r] = pair_at(rows[order[r]]);

  const Matrix sorted = FeatureExtractor(index, pairs).Compute(
      set, num_threads, precomputed_lcp);
  Matrix out(rows.size(), sorted.cols());
  for (size_t r = 0; r < order.size(); ++r) {
    std::copy(sorted.Row(r), sorted.Row(r) + sorted.cols(),
              out.Row(order[r]));
  }
  return out;
}

}  // namespace gsmb
