#include "core/features.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "gsmb/telemetry.h"
#include "ml/classifier.h"
#include "util/stopwatch.h"
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
  double probabilities[kTileRows];
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

/// One worker's busy tally: Charge(phase) adds the time since the previous
/// charge to `phase`, one clock read per stage boundary. Reads no clock
/// without a tally.
class StageClock {
 public:
  explicit StageClock(obs::PhaseTimings* tally) : tally_(tally) {}

  void Charge(obs::Phase phase) {
    if (tally_ != nullptr) tally_->Add(phase, watch_.Lap());
  }

 private:
  obs::PhaseTimings* tally_;
  Stopwatch watch_;
};

/// Number of pieces ForEachPiece splits [0, n) into, n > 0.
size_t NumPieces(size_t n, size_t num_threads) {
  return std::min(std::max<size_t>(1, num_threads), n);
}

/// Runs fn(piece, begin, end, clock) in parallel over near-equal contiguous
/// pieces of [0, n), n > 0, one per worker (NumPieces of them). With
/// `busy`, each worker's clock tallies its seconds per phase and the
/// tallies are added to `busy` in piece order.
template <typename Fn>
void ForEachPiece(size_t n, size_t num_threads, obs::PhaseTimings* busy,
                  const Fn& fn) {
  const size_t pieces = NumPieces(n, num_threads);
  std::vector<obs::PhaseTimings> tallies(pieces);
  ParallelFor(pieces, pieces, [&](size_t first, size_t last) {
    for (size_t p = first; p < last; ++p) {
      StageClock clock(busy != nullptr ? &tallies[p] : nullptr);
      fn(p, n * p / pieces, n * (p + 1) / pieces, clock);
    }
  });
  if (busy == nullptr) return;
  for (const obs::PhaseTimings& tally : tallies) busy->MergeFrom(tally);
}

/// The row kernel of one feature set: its columns and the per-entity terms
/// every row reads (LCP, log(|B|/|B_i|), log(||B||/||e_i||)). Its two
/// callers — SweepRows over a given pair list, ScoreCandidateRange over a
/// slice of the global candidate order — share the accumulation and the
/// column evaluation below.
class RowKernel {
 public:
  /// One worker's scratch: the per-neighbour sums, epoch-marked and reused
  /// across pivots so no allocation happens inside the sweep, the set the
  /// pivot's neighbours are collected in, and the tile.
  struct Scratch {
    explicit Scratch(size_t num_entities)
        : sums(num_entities), neighbours(num_entities) {}

    std::vector<NeighbourSums> sums;
    uint32_t epoch = 0;
    AscendingIdSet neighbours;
    Tile tile{};
  };

  RowKernel(const EntityIndex& index, const FeatureSet& set,
            size_t num_threads, const std::vector<double>* precomputed_lcp)
      : index_(index), members_(set.Members()), dims_(set.Dimensions()),
        lcp_(precomputed_lcp) {
    assert(!set.empty());
    if (set.Contains(Feature::kLcp) && lcp_ == nullptr) {
      lcp_local_ = LcpPerEntity(index, num_threads);
      lcp_ = &lcp_local_;
    }
    assert(!set.Contains(Feature::kLcp) ||
           lcp_->size() == index.num_entities());

    // log(|B|/|B_i|) and log(||B||/||e_i||), once per entity.
    const size_t num_entities = index.num_entities();
    const double num_blocks = static_cast<double>(index.num_blocks());
    const double total_comparisons = index.TotalComparisons();
    if (set.Contains(Feature::kCfIbf)) log_ibf_.resize(num_entities);
    if (set.Contains(Feature::kEjs)) log_ejs_.resize(num_entities);
    if (log_ibf_.empty() && log_ejs_.empty()) return;
    ParallelFor(num_entities, num_threads, [&](size_t begin, size_t end) {
      for (size_t e = begin; e < end; ++e) {
        if (!log_ibf_.empty() && index.NumBlocksOf(e) > 0) {
          log_ibf_[e] =
              std::log(num_blocks / static_cast<double>(index.NumBlocksOf(e)));
        }
        if (!log_ejs_.empty()) {
          log_ejs_[e] = index.EntityComparisons(e) > 0.0
                            ? std::log(total_comparisons /
                                       index.EntityComparisons(e))
                            : 0.0;
        }
      }
    });
  }
  RowKernel(const RowKernel&) = delete;
  RowKernel& operator=(const RowKernel&) = delete;

  size_t dims() const { return dims_; }

  /// Accumulates the per-neighbour sums over the pivot's blocks, starting a
  /// new epoch. Only neighbours above the pivot are touched: every row
  /// (pivot, g) has g > pivot — on Clean-Clean each right global exceeds
  /// any left pivot, so only Dirty ER needs the check, where a pair is
  /// listed under its smaller id — and one neighbour's sums never depend on
  /// another's. With kCollect, each neighbour's global id is inserted into
  /// scratch->neighbours at its first touch.
  template <bool kCollect>
  void Accumulate(size_t pivot, Scratch* scratch) const {
    const bool clean_clean = index_.clean_clean();
    const uint32_t epoch = ++scratch->epoch;
    NeighbourSums* sums = scratch->sums.data();
    for (uint32_t bid : index_.BlocksOf(pivot)) {
      const double inv_cmp = index_.BlockComparisons(bid) > 0.0
                                 ? 1.0 / index_.BlockComparisons(bid)
                                 : 0.0;
      const double inv_size =
          1.0 / static_cast<double>(index_.BlockSize(bid));
      auto others = clean_clean ? index_.BlockRightGlobals(bid)
                                : index_.BlockLeftGlobals(bid);
      for (uint32_t other : others) {
        if (!clean_clean && other <= pivot) continue;
        NeighbourSums& s = sums[other];
        // A first touch stores the terms directly: 0.0 + x == x for these
        // x >= 0.
        if (s.epoch != epoch) {
          s = NeighbourSums{epoch, 1, inv_cmp, inv_size};
          if constexpr (kCollect) scratch->neighbours.Insert(other);
        } else {
          s.common += 1;
          s.inv_comparisons += inv_cmp;
          s.inv_sizes += inv_size;
        }
      }
    }
  }

  /// Evaluates the pivot's rows for the neighbours in
  /// scratch->tile.other[0, count) into scratch->tile.values, one feature
  /// column at a time so each expression runs as a tight loop; row r's
  /// column c lands at values[r * dims + c], in set.FullMatrixColumns()
  /// order. The pivot's sums must be the current epoch's.
  void EvaluateTile(size_t pivot, size_t count, Scratch* scratch) const {
    Tile& tile = scratch->tile;
    for (size_t r = 0; r < count; ++r) {
      const NeighbourSums& s = scratch->sums[tile.other[r]];
      assert(s.epoch == scratch->epoch &&
             "pair not implied by the entity index");
      tile.common[r] = static_cast<double>(s.common);
      tile.inv_comparisons[r] = s.inv_comparisons;
      tile.inv_sizes[r] = s.inv_sizes;
      tile.other_blocks[r] =
          static_cast<double>(index_.NumBlocksOf(tile.other[r]));
    }

    const double pivot_blocks = static_cast<double>(index_.NumBlocksOf(pivot));
    const double pivot_inv_cmp = index_.SumInvBlockComparisons(pivot);
    const double pivot_inv_size = index_.SumInvBlockSizes(pivot);
    const size_t dims = dims_;
    size_t col = 0;
    for (Feature f : members_) {
      double* out = tile.values + col;
      switch (f) {
        case Feature::kCfIbf:
          for (size_t r = 0; r < count; ++r) {
            out[r * dims] =
                tile.common[r] * log_ibf_[pivot] * log_ibf_[tile.other[r]];
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
            out[r * dims] = (*lcp_)[pivot];
            out[r * dims + 1] = (*lcp_)[tile.other[r]];
          }
          ++col;
          break;
        case Feature::kEjs:
          for (size_t r = 0; r < count; ++r) {
            const double js =
                tile.common[r] /
                (pivot_blocks + tile.other_blocks[r] - tile.common[r]);
            out[r * dims] = js * log_ejs_[pivot] * log_ejs_[tile.other[r]];
          }
          break;
        case Feature::kWjs:
          for (size_t r = 0; r < count; ++r) {
            const double denom = pivot_inv_cmp +
                                 index_.SumInvBlockComparisons(tile.other[r]) -
                                 tile.inv_comparisons[r];
            out[r * dims] = denom > 0.0 ? tile.inv_comparisons[r] / denom : 0.0;
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
                                 index_.SumInvBlockSizes(tile.other[r]) -
                                 tile.inv_sizes[r];
            out[r * dims] = denom > 0.0 ? tile.inv_sizes[r] / denom : 0.0;
          }
          break;
      }
      ++col;
    }
  }

 private:
  const EntityIndex& index_;
  const std::vector<Feature> members_;
  const size_t dims_;
  const std::vector<double>* lcp_;
  std::vector<double> lcp_local_;
  std::vector<double> log_ibf_;
  std::vector<double> log_ejs_;
};

/// Evaluates the rows of `pairs` a tile at a time — up to kTileRows
/// consecutive rows of one pivot — and hands each tile to
/// sink(first_row, count, values). Workers own whole pivot groups, so each
/// row is produced exactly once. With `busy`, the workers' seconds in the
/// kernel are added to its kFeatures and their seconds in the sink (the
/// classifier, for Score) to its kClassify.
template <typename Sink>
void SweepRows(const EntityIndex& index,
               const std::vector<CandidatePair>& pairs, const FeatureSet& set,
               size_t num_threads, const std::vector<double>* precomputed_lcp,
               obs::PhaseTimings* busy, const Sink& sink) {
  if (pairs.empty()) return;
  const RowKernel kernel(index, set, num_threads, precomputed_lcp);
  const bool clean_clean = index.clean_clean();
  const size_t right_offset = index.num_left();

  const std::vector<std::pair<size_t, size_t>> groups = PivotGroups(pairs);
  ForEachPiece(groups.size(), num_threads, busy,
               [&](size_t, size_t begin, size_t end, StageClock& clock) {
    RowKernel::Scratch scratch(index.num_entities());
    for (size_t g = begin; g < end; ++g) {
      const size_t pivot = pairs[groups[g].first].left;  // left global == local
      kernel.Accumulate<false>(pivot, &scratch);
      for (size_t first = groups[g].first; first < groups[g].second;
           first += kTileRows) {
        const size_t count = std::min(kTileRows, groups[g].second - first);
        for (size_t r = 0; r < count; ++r) {
          const CandidatePair& p = pairs[first + r];
          scratch.tile.other[r] = clean_clean ? right_offset + p.right
                                              : static_cast<size_t>(p.right);
        }
        kernel.EvaluateTile(pivot, count, &scratch);
        clock.Charge(obs::Phase::kFeatures);
        sink(first, count, scratch.tile.values);
        clock.Charge(obs::Phase::kClassify);
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
  SweepRows(index_, pairs_, set, num_threads, precomputed_lcp, nullptr,
            [&](size_t first, size_t count, const double* values) {
              std::copy(values, values + count * out.cols(), out.Row(first));
            });
  return out;
}

std::vector<double> FeatureExtractor::Score(
    const FeatureSet& set, const ProbabilisticClassifier& model,
    size_t num_threads, const std::vector<double>* precomputed_lcp,
    obs::PhaseTimings* busy, double floor) const {
  std::vector<double> probabilities(pairs_.size());
  const size_t dims = set.Dimensions();
  SweepRows(index_, pairs_, set, num_threads, precomputed_lcp, busy,
            [&](size_t first, size_t count, const double* values) {
              model.PredictTile(values, count, dims, floor,
                                probabilities.data() + first);
            });
  return probabilities;
}

size_t ScoredCandidates::LowerRow(uint64_t index) const {
  if (indices.empty()) {
    return index <= first ? 0
                          : static_cast<size_t>(
                                std::min<uint64_t>(index - first, size()));
  }
  return static_cast<size_t>(
      std::lower_bound(indices.begin(), indices.end(), index) -
      indices.begin());
}

void ScoreCandidateRange(const EntityIndex& index,
                         const std::vector<uint64_t>& pivot_offsets,
                         uint64_t first, uint64_t end, const FeatureSet& set,
                         const ProbabilisticClassifier& model, double floor,
                         size_t num_threads,
                         const std::vector<double>* precomputed_lcp,
                         ScoredCandidates* out, obs::PhaseTimings* busy) {
  assert(first <= end && end <= pivot_offsets.back());
  // Every row clears a floor <= 0, so it is written in place with an
  // implicit index; above it, each worker keeps only its rows that clear.
  const bool keep_all = !(floor > 0.0);
  if (!keep_all && end > uint64_t{std::numeric_limits<uint32_t>::max()} + 1) {
    throw std::out_of_range(
        "ScoreCandidateRange: kept rows carry 32-bit candidate indices");
  }
  const size_t n = static_cast<size_t>(end - first);
  out->first = first;
  out->indices.clear();
  // Every row is overwritten, so a reused buffer of the same size is not
  // cleared first; kept rows are appended after the sweep.
  out->pairs.resize(keep_all ? n : 0);
  out->probabilities.resize(keep_all ? n : 0);
  if (n == 0) return;
  const RowKernel kernel(index, set, num_threads, precomputed_lcp);
  const size_t dims = kernel.dims();
  const uint32_t right_offset =
      index.clean_clean() ? static_cast<uint32_t>(index.num_left()) : 0;
  std::vector<ScoredCandidates> kept(keep_all ? 0 : NumPieces(n, num_threads));

  // Split by candidate count: a pivot cut by a piece boundary is swept by
  // both pieces, each emitting its own rows.
  ForEachPiece(n, num_threads, busy, [&](size_t piece, size_t begin,
                                         size_t stop, StageClock& clock) {
    RowKernel::Scratch scratch(index.num_entities());
    std::vector<uint32_t> neighbours;
    uint64_t row = first + begin;
    for (size_t pivot = PivotOfCandidate(pivot_offsets, row);
         row < first + stop; ++pivot) {
      const uint64_t pivot_first = pivot_offsets[pivot];
      const uint64_t pivot_stop =
          std::min<uint64_t>(pivot_offsets[pivot + 1], first + stop);
      if (row >= pivot_stop) continue;  // a pivot without candidates

      // The sweep that accumulates the pivot's sums also collects its
      // neighbours; drained ascending, they are PivotNeighbourGenerator's
      // list, so row pivot_first + i pairs the pivot with neighbours[i].
      kernel.Accumulate<true>(pivot, &scratch);
      neighbours.clear();
      scratch.neighbours.Drain([&](uint32_t g) { neighbours.push_back(g); });
      assert(neighbours.size() == pivot_offsets[pivot + 1] - pivot_first);
      const auto pair_of = [&](uint64_t i) {
        return CandidatePair{
            static_cast<EntityId>(pivot),
            static_cast<EntityId>(neighbours[i - pivot_first] - right_offset)};
      };
      if (keep_all) {
        for (uint64_t i = row; i < pivot_stop; ++i) {
          out->pairs[i - first] = pair_of(i);
        }
      }
      clock.Charge(obs::Phase::kPairs);

      while (row < pivot_stop) {
        const auto count =
            static_cast<size_t>(std::min<uint64_t>(kTileRows, pivot_stop - row));
        std::copy_n(neighbours.begin() + (row - pivot_first), count,
                    scratch.tile.other);
        kernel.EvaluateTile(pivot, count, &scratch);
        clock.Charge(obs::Phase::kFeatures);
        double* probabilities = keep_all
                                    ? out->probabilities.data() + (row - first)
                                    : scratch.tile.probabilities;
        model.PredictTile(scratch.tile.values, count, dims, floor,
                          probabilities);
        if (!keep_all) {
          ScoredCandidates& mine = kept[piece];
          for (size_t r = 0; r < count; ++r) {
            if (probabilities[r] >= floor) {
              mine.indices.push_back(static_cast<uint32_t>(row + r));
              mine.pairs.push_back(pair_of(row + r));
              mine.probabilities.push_back(probabilities[r]);
            }
          }
        }
        clock.Charge(obs::Phase::kClassify);
        row += count;
      }
    }
  });
  if (keep_all) return;

  // Pieces are ascending and disjoint, so their rows concatenate in order.
  std::vector<size_t> offsets(kept.size() + 1, 0);
  for (size_t p = 0; p < kept.size(); ++p) {
    offsets[p + 1] = offsets[p] + kept[p].size();
  }
  out->indices.resize(offsets.back());
  out->pairs.resize(offsets.back());
  out->probabilities.resize(offsets.back());
  ParallelFor(kept.size(), kept.size(), [&](size_t begin, size_t stop) {
    for (size_t p = begin; p < stop; ++p) {
      std::copy(kept[p].indices.begin(), kept[p].indices.end(),
                out->indices.begin() + offsets[p]);
      std::copy(kept[p].pairs.begin(), kept[p].pairs.end(),
                out->pairs.begin() + offsets[p]);
      std::copy(kept[p].probabilities.begin(), kept[p].probabilities.end(),
                out->probabilities.begin() + offsets[p]);
      kept[p] = ScoredCandidates();
    }
  });
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
