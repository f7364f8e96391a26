#include "core/features.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
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

// Suffix boxes per call to the model's bound.
constexpr size_t kBoxBatch = 4;

// Pieces of a multi-threaded fill per worker.
constexpr size_t kPiecesPerWorker = 8;

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

/// Runs fn(state, piece, begin, end, clock) over `pieces` near-equal
/// contiguous pieces of [0, n), 0 < pieces <= n, which up to `num_threads`
/// workers claim one at a time (ParallelClaim), so pieces of uneven cost
/// balance. Each worker makes its state once (make_state()) and keeps it
/// across the pieces it claims. With `busy`, each worker's clock tallies
/// its seconds per phase, added to `busy` when the worker is done.
template <typename MakeState, typename Fn>
void ForEachPiece(size_t n, size_t pieces, size_t num_threads,
                  obs::PhaseTimings* busy, const MakeState& make_state,
                  const Fn& fn) {
  std::mutex busy_mutex;
  ParallelClaim(pieces, num_threads, [&](const auto& next) {
    auto state = make_state();
    obs::PhaseTimings tally;
    StageClock clock(busy != nullptr ? &tally : nullptr);
    for (size_t p = 0; next(&p);) {
      fn(state, p, n * p / pieces, n * (p + 1) / pieces, clock);
    }
    if (busy == nullptr) return;
    const std::lock_guard<std::mutex> lock(busy_mutex);
    busy->MergeFrom(tally);
  });
}

/// The running terms of one suffix of a pivot's blocks (in the filter's
/// smallest-first order), from which the box of every row whose neighbour
/// is first met in that suffix is bounded: the suffix's length bounds the
/// row's common-block count, its sums bound the row's, its least terms
/// bound the row's sums from below (a row's sum is at least each term it
/// adds), and the ranges bound the neighbour's per-entity terms.
struct Suffix {
  double count = 0.0;
  double inv_comparisons = 0.0;
  double inv_sizes = 0.0;
  double min_inv_comparisons = std::numeric_limits<double>::infinity();
  double min_inv_sizes = std::numeric_limits<double>::infinity();
  std::array<FeatureTerms::Range, FeatureTerms::kNumTerms> ranges;

  /// Adds block `bid` in front of the suffix.
  void Add(const FeatureTerms& terms, uint32_t bid) {
    const FeatureTerms::BlockWeights& weights = terms.weights[bid];
    count += 1.0;
    inv_comparisons += weights.inv_comparisons;
    inv_sizes += weights.inv_size;
    min_inv_comparisons =
        std::min(min_inv_comparisons, weights.inv_comparisons);
    min_inv_sizes = std::min(min_inv_sizes, weights.inv_size);
    const size_t n = terms.ranged.size();
    const FeatureTerms::Range* members = terms.member_ranges.data() + bid * n;
    for (size_t i = 0; i < n; ++i) ranges[terms.ranged[i]].Add(members[i]);
  }
};

/// The range of x * y over x in {x1, x2} and y in [y_lo, y_hi], written to
/// *lo and *hi. For a row computing x * y with x between x1 and x2 and y in
/// the range, one rounded product is monotone in each factor, so the
/// extremes over the box sit at its corners, with no margin.
void ProductRange(double x1, double x2, double y_lo, double y_hi, double* lo,
                  double* hi) {
  const double corners[4] = {x1 * y_lo, x1 * y_hi, x2 * y_lo, x2 * y_hi};
  *lo = *std::min_element(corners, corners + 4);
  *hi = *std::max_element(corners, corners + 4);
}

/// The range of a normalised sum (WJS, NRS): sum / (pivot + q - sum), or 0
/// when that denominator is not positive, for a row whose sum lies in
/// [sum_lo, sum_hi] and whose neighbour's total q lies in `q`. The sum is at
/// most q, so the quotient is at most sum_hi / (pivot + max(q.lo, sum_hi) -
/// sum_hi), and at least sum_lo / (pivot + q.hi - sum_lo). The sums round
/// differently from a row's, so both ends carry the relative `margin`.
void NormalisedSumRange(double pivot, double sum_lo, double sum_hi,
                        const FeatureTerms::Range& q, double margin,
                        double* lo, double* hi) {
  const double high_denom = pivot + std::max(q.lo, sum_hi) - sum_hi;
  *hi = high_denom > 0.0 ? sum_hi / high_denom * (1.0 + margin)
                         : std::numeric_limits<double>::infinity();
  // Every row's denominator is positive when the pivot's own total is.
  const double low_denom = pivot + q.hi - sum_lo;
  *lo = pivot > 0.0 && low_denom > 0.0 ? sum_lo / low_denom * (1.0 - margin)
                                      : 0.0;
}

/// The row kernel of one feature set: its columns and the per-entity and
/// per-block terms every row reads (FeatureTerms). Its two callers —
/// Compute over a given pair list, ScoreCandidateRange over a slice of the
/// global candidate order — share the accumulation and the column
/// evaluation below; ScoreCandidateRange also bounds a pivot's rows first.
class RowKernel {
 public:
  /// One worker's scratch: the per-neighbour sums, epoch-marked and reused
  /// across pivots so no allocation happens inside the sweep, the set the
  /// pivot's neighbours are collected in, the filter's found neighbours (a
  /// bit per entity, cleared as the rows are read) and suffix boxes, and
  /// the tile.
  struct Scratch {
    explicit Scratch(size_t num_entities)
        : sums(num_entities), neighbours(num_entities),
          found((num_entities + 63) / 64, 0) {}

    bool Found(uint32_t id) const {
      return ((found[id >> 6] >> (id & 63)) & 1) != 0;
    }

    std::vector<NeighbourSums> sums;
    uint32_t epoch = 0;
    AscendingIdSet neighbours;
    std::vector<uint64_t> found;
    uint32_t last_found = 0;      // the largest id in `found`
    std::vector<uint64_t> order;  // (|b| << 32) | block id, smallest first
    double lo[kBoxBatch * kFullMatrixCols];  // a batch of suffix boxes
    double hi[kBoxBatch * kFullMatrixCols];
    Tile tile{};
  };

  RowKernel(const EntityIndex& index, const FeatureSet& set,
            const FeatureTerms& terms)
      : index_(index), terms_(terms), members_(set.Members()),
        dims_(set.Dimensions()) {
    assert(!set.empty());
    if (terms.set != set || terms.weights.size() != index.num_blocks()) {
      throw std::invalid_argument(
          "FeatureTerms built for another feature set or index");
    }
  }
  RowKernel(const RowKernel&) = delete;
  RowKernel& operator=(const RowKernel&) = delete;

  size_t dims() const { return dims_; }

  /// Accumulates the per-neighbour sums over the pivot's blocks in
  /// ascending block id, starting a new epoch. Only neighbours above the
  /// pivot are touched: every row (pivot, g) has g > pivot — on
  /// Clean-Clean each right global exceeds any left pivot, so only Dirty ER
  /// needs the check, where a pair is listed under its smaller id — and one
  /// neighbour's sums never depend on another's. With kFoundOnly, only the
  /// neighbours in scratch->found get sums, each with the same additions in
  /// the same order, and with kCollect every neighbour's global id up to
  /// the last found one is inserted into scratch->neighbours (kCollect
  /// alone inserts every neighbour's).
  template <bool kCollect, bool kFoundOnly>
  void Accumulate(size_t pivot, Scratch* scratch) const {
    const bool clean_clean = index_.clean_clean();
    const uint32_t epoch = ++scratch->epoch;
    NeighbourSums* sums = scratch->sums.data();
    for (uint32_t bid : index_.BlocksOf(pivot)) {
      const double inv_cmp = terms_.weights[bid].inv_comparisons;
      const double inv_size = terms_.weights[bid].inv_size;
      for (uint32_t other : Candidates(bid)) {
        if (!clean_clean && other <= pivot) continue;
        if constexpr (kFoundOnly) {
          // Neighbours above the last found one change no found row's rank.
          if (kCollect && other <= scratch->last_found) {
            scratch->neighbours.Insert(other);
          }
          if (!scratch->Found(other)) continue;
        }
        NeighbourSums& s = sums[other];
        // A first touch stores the terms directly: 0.0 + x == x for these
        // x >= 0.
        if (s.epoch != epoch) {
          s = NeighbourSums{epoch, 1, inv_cmp, inv_size};
          if constexpr (kCollect && !kFoundOnly) {
            scratch->neighbours.Insert(other);
          }
        } else {
          s.common += 1;
          s.inv_comparisons += inv_cmp;
          s.inv_sizes += inv_size;
        }
      }
    }
  }

  /// The prefix filter. Orders the pivot's blocks smallest first, bounds
  /// the rows of every suffix of that order (WriteBox) and asks the model
  /// which suffix boxes may reach `floor`. Returns p, the number of blocks
  /// before the first suffix from which no box may, and marks in
  /// scratch->found the neighbours of those p blocks: a neighbour first met
  /// at position p or later shares only blocks of a ruled-out suffix, so
  /// it cannot reach the floor. Returns the pivot's block count instead,
  /// leaving scratch->found empty, when the bound cuts nothing or the
  /// first p blocks hold more than half of the pivot's block members.
  size_t FindNeighbours(size_t pivot, const ProbabilisticClassifier& model,
                        double floor, Scratch* scratch) const {
    const std::span<const uint32_t> blocks = index_.BlocksOf(pivot);
    const size_t k = blocks.size();
    std::vector<uint64_t>& order = scratch->order;
    order.resize(k);
    for (size_t j = 0; j < k; ++j) {
      order[j] = (uint64_t{index_.BlockSize(blocks[j])} << 32) | blocks[j];
    }
    std::sort(order.begin(), order.end());

    // The suffixes from the shortest, a batch of boxes per call to the
    // model, until one may reach the floor: each suffix after it was ruled
    // out.
    double* lo = scratch->lo;
    double* hi = scratch->hi;
    Suffix suffix;
    size_t prefix = k;
    while (prefix > 0) {
      const size_t batch_begin = prefix > kBoxBatch ? prefix - kBoxBatch : 0;
      for (size_t j = prefix; j-- > batch_begin;) {
        suffix.Add(terms_, static_cast<uint32_t>(order[j]));
        WriteBox(pivot, suffix, lo + (j - batch_begin) * dims_,
                 hi + (j - batch_begin) * dims_);
      }
      bool reach[kBoxBatch];
      model.MayReachFloor(lo, hi, prefix - batch_begin, dims_, floor, reach);
      size_t may = prefix - batch_begin;
      while (may > 0 && !reach[may - 1]) --may;
      prefix = batch_begin + may;
      if (may > 0) break;
    }
    // A prefix holding most of the pivot's block members finds about as
    // many neighbours as the sweep meets, and costs more than it saves.
    uint64_t members = 0;
    uint64_t prefix_members = 0;
    for (size_t j = 0; j < k; ++j) {
      members += order[j] >> 32;
      if (j < prefix) prefix_members += order[j] >> 32;
    }
    if (prefix == k || 2 * prefix_members > members) return k;

    const bool clean_clean = index_.clean_clean();
    scratch->last_found = 0;
    for (size_t j = 0; j < prefix; ++j) {
      for (uint32_t other : Candidates(static_cast<uint32_t>(order[j]))) {
        if (clean_clean || other > pivot) {
          scratch->found[other >> 6] |= uint64_t{1} << (other & 63);
          scratch->last_found = std::max(scratch->last_found, other);
        }
      }
    }
    return prefix;
  }

  /// Evaluates the pivot's rows for the neighbours in
  /// scratch->tile.other[0, count) into scratch->tile.values, one feature
  /// column at a time so each expression runs as a tight loop; row r's
  /// column c lands at values[r * dims + c], in set.FullMatrixColumns()
  /// order. The neighbours' sums must be the current epoch's.
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

    const std::vector<double>& lcp = terms_.lcp;
    const std::vector<double>& log_ibf = terms_.log_ibf;
    const std::vector<double>& log_ejs = terms_.log_ejs;
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
            out[r * dims] = lcp[pivot];
            out[r * dims + 1] = lcp[tile.other[r]];
          }
          ++col;
          break;
        case Feature::kEjs:
          for (size_t r = 0; r < count; ++r) {
            const double js =
                tile.common[r] /
                (pivot_blocks + tile.other_blocks[r] - tile.common[r]);
            out[r * dims] = js * log_ejs[pivot] * log_ejs[tile.other[r]];
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
  /// The members of block `bid` that a row may pair with a pivot: its
  /// right side on Clean-Clean, every member on Dirty ER (where only those
  /// above the pivot pair with it).
  std::span<const uint32_t> Candidates(uint32_t bid) const {
    return index_.clean_clean() ? index_.BlockRightGlobals(bid)
                                : index_.BlockLeftGlobals(bid);
  }

  /// Writes, column by column in EvaluateTile's order, a box holding the
  /// computed row of every neighbour whose common blocks all lie in
  /// `suffix`. Counts, the logarithms and LCP enter each column through the
  /// row's own expression at the box's corners, which is exact; the sums
  /// carry FeatureTerms::margin.
  void WriteBox(size_t pivot, const Suffix& suffix, double* lo,
                double* hi) const {
    using Term = FeatureTerms::Term;
    const double margin = terms_.margin;
    const double pivot_blocks = static_cast<double>(index_.NumBlocksOf(pivot));
    const double count = suffix.count;
    // JS = common / (|B_p| + |B_q| - common) with 1 <= common <= count and
    // common <= |B_q|: every operand is an integer, so the bounds are
    // exact: 1 / (|B_p| + max |B_q| - 1) and count / (|B_p| + max(min
    // |B_q|, count) - count).
    const FeatureTerms::Range& q_blocks = suffix.ranges[Term::kBlocks];
    const auto js_lo = [&] { return 1.0 / (pivot_blocks + q_blocks.hi - 1.0); };
    const auto js_hi = [&] {
      return count / (pivot_blocks + std::max(q_blocks.lo, count) - count);
    };
    size_t col = 0;
    for (Feature f : members_) {
      switch (f) {
        case Feature::kCfIbf: {
          const double lp = terms_.log_ibf[pivot];
          const FeatureTerms::Range& lq = suffix.ranges[Term::kLogIbf];
          ProductRange(1.0 * lp, count * lp, lq.lo, lq.hi, lo + col,
                       hi + col);
          break;
        }
        case Feature::kRaccb:
          lo[col] = suffix.min_inv_comparisons;
          hi[col] = suffix.inv_comparisons * (1.0 + margin);
          break;
        case Feature::kJs:
          lo[col] = js_lo();
          hi[col] = js_hi();
          break;
        case Feature::kLcp:
          lo[col] = hi[col] = terms_.lcp[pivot];
          ++col;
          lo[col] = suffix.ranges[Term::kLcp].lo;
          hi[col] = suffix.ranges[Term::kLcp].hi;
          break;
        case Feature::kEjs: {
          const double lp = terms_.log_ejs[pivot];
          const FeatureTerms::Range& lq = suffix.ranges[Term::kLogEjs];
          ProductRange(js_lo() * lp, js_hi() * lp, lq.lo, lq.hi, lo + col,
                       hi + col);
          break;
        }
        case Feature::kWjs:
          NormalisedSumRange(index_.SumInvBlockComparisons(pivot),
                             suffix.min_inv_comparisons,
                             suffix.inv_comparisons,
                             suffix.ranges[Term::kInvComparisons], margin,
                             lo + col, hi + col);
          break;
        case Feature::kRs:
          lo[col] = suffix.min_inv_sizes;
          hi[col] = suffix.inv_sizes * (1.0 + margin);
          break;
        case Feature::kNrs:
          NormalisedSumRange(index_.SumInvBlockSizes(pivot),
                             suffix.min_inv_sizes, suffix.inv_sizes,
                             suffix.ranges[Term::kInvSizes], margin, lo + col,
                             hi + col);
          break;
      }
      ++col;
    }
  }

  const EntityIndex& index_;
  const FeatureTerms& terms_;
  const std::vector<Feature> members_;
  const size_t dims_;
};

}  // namespace

FeatureTerms::FeatureTerms(const EntityIndex& index, const FeatureSet& set,
                           size_t num_threads, bool block_bounds)
    : set(set), block_bounds(block_bounds) {
  const size_t num_entities = index.num_entities();
  if (set.Contains(Feature::kLcp)) lcp = LcpPerEntity(index, num_threads);

  // log(|B|/|B_i|) and log(||B||/||e_i||), once per entity.
  const double num_blocks = static_cast<double>(index.num_blocks());
  const double total_comparisons = index.TotalComparisons();
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

  size_t max_blocks = 0;
  for (size_t e = 0; e < num_entities; ++e) {
    max_blocks = std::max(max_blocks, index.NumBlocksOf(e));
  }
  margin = static_cast<double>(max_blocks + 16) * 0x1p-46;

  // The per-entity terms the set's columns read of a row's neighbour, each
  // with its values per entity.
  std::vector<std::vector<double>> own_values;
  std::vector<const double*> values;
  const auto add = [&](Term term, const double* of) {
    ranged.push_back(term);
    values.push_back(of);
  };
  const auto own = [&](const auto& of) {
    std::vector<double>& per_entity = own_values.emplace_back(num_entities);
    for (size_t e = 0; e < num_entities; ++e) per_entity[e] = of(e);
    return per_entity.data();
  };
  if (block_bounds) {
    if (set.Contains(Feature::kJs) || set.Contains(Feature::kEjs)) {
      add(kBlocks, own([&](size_t e) {
            return static_cast<double>(index.NumBlocksOf(e));
          }));
    }
    if (set.Contains(Feature::kWjs)) {
      add(kInvComparisons,
          own([&](size_t e) { return index.SumInvBlockComparisons(e); }));
    }
    if (set.Contains(Feature::kNrs)) {
      add(kInvSizes, own([&](size_t e) { return index.SumInvBlockSizes(e); }));
    }
    if (!log_ibf.empty()) add(kLogIbf, log_ibf.data());
    if (!log_ejs.empty()) add(kLogEjs, log_ejs.data());
    if (!lcp.empty()) add(kLcp, lcp.data());
    member_ranges.resize(index.num_blocks() * ranged.size());
  }

  weights.resize(index.num_blocks());
  ParallelFor(index.num_blocks(), num_threads, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      const auto bid = static_cast<uint32_t>(b);
      // The sweep's own expressions, so its sums keep their bits.
      weights[b].inv_comparisons = index.BlockComparisons(bid) > 0.0
                                       ? 1.0 / index.BlockComparisons(bid)
                                       : 0.0;
      weights[b].inv_size = 1.0 / static_cast<double>(index.BlockSize(bid));
      auto members = index.clean_clean() ? index.BlockRightGlobals(bid)
                                         : index.BlockLeftGlobals(bid);
      for (size_t i = 0; i < values.size(); ++i) {
        Range& member_range = member_ranges[b * values.size() + i];
        for (uint32_t member : members) member_range.Add(values[i][member]);
      }
    }
  });
}

FeatureExtractor::FeatureExtractor(const EntityIndex& index,
                                   const std::vector<CandidatePair>& pairs)
    : index_(index), pairs_(pairs) {}

std::vector<double> FeatureExtractor::ComputeLcpPerEntity(
    size_t num_threads) const {
  return LcpPerEntity(index_, num_threads);
}

Matrix FeatureExtractor::Compute(const FeatureSet& set, size_t num_threads,
                                 const FeatureTerms* terms) const {
  Matrix out(pairs_.size(), set.Dimensions());
  if (pairs_.empty()) return out;
  std::optional<FeatureTerms> own_terms;
  if (terms == nullptr) terms = &own_terms.emplace(index_, set, num_threads);
  const RowKernel kernel(index_, set, *terms);
  const bool clean_clean = index_.clean_clean();
  const size_t right_offset = index_.num_left();

  // Rows a tile at a time — up to kTileRows consecutive rows of one pivot.
  // Workers own whole pivot groups, so each row is written exactly once.
  const std::vector<std::pair<size_t, size_t>> groups = PivotGroups(pairs_);
  ForEachPiece(groups.size(),
               std::min(std::max<size_t>(1, num_threads), groups.size()),
               num_threads, nullptr,
               [&] { return RowKernel::Scratch(index_.num_entities()); },
               [&](RowKernel::Scratch& scratch, size_t, size_t begin,
                   size_t end, StageClock&) {
    for (size_t g = begin; g < end; ++g) {
      const size_t pivot = pairs_[groups[g].first].left;  // left global id
      kernel.Accumulate<false, false>(pivot, &scratch);
      for (size_t first = groups[g].first; first < groups[g].second;
           first += kTileRows) {
        const size_t count = std::min(kTileRows, groups[g].second - first);
        for (size_t r = 0; r < count; ++r) {
          const CandidatePair& p = pairs_[first + r];
          scratch.tile.other[r] = clean_clean ? right_offset + p.right
                                              : static_cast<size_t>(p.right);
        }
        kernel.EvaluateTile(pivot, count, &scratch);
        std::copy(scratch.tile.values, scratch.tile.values + count * out.cols(),
                  out.Row(first));
      }
    }
  });
  return out;
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
                         size_t num_threads, const FeatureTerms* terms,
                         ScoredCandidates* out, obs::PhaseTimings* busy,
                         const std::vector<CandidatePair>* resident) {
  assert(first <= end && end <= pivot_offsets.back());
  assert(resident == nullptr || resident->size() == pivot_offsets.back());
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
  std::optional<FeatureTerms> own_terms;
  if (terms == nullptr) {
    terms = &own_terms.emplace(index, set, num_threads,
                               /*block_bounds=*/!keep_all);
  }
  const RowKernel kernel(index, set, *terms);
  // The prefix filter bounds rows against the floor from the block ranges.
  const bool filter = !keep_all && terms->block_bounds;
  const size_t dims = kernel.dims();
  const uint32_t right_offset =
      index.clean_clean() ? static_cast<uint32_t>(index.num_left()) : 0;
  // Split by candidate count into a few pieces per worker, claimed as
  // workers free up: the filter's work per candidate varies from pivot to
  // pivot (on Dirty ER, a late pivot meets its blocks' members below it
  // too). A pivot cut by a piece boundary is swept by both pieces, each
  // emitting its own rows.
  const size_t pieces = std::min<size_t>(
      n, num_threads > 1 ? num_threads * kPiecesPerWorker : 1);
  std::vector<ScoredCandidates> kept(keep_all ? 0 : pieces);
  std::vector<uint64_t> evaluated(pieces, 0);
  // One worker's state: the kernel's scratch, the pivot's neighbours and
  // the rows the filter found, each a neighbour and its candidate index.
  struct FoundRow {
    uint32_t neighbour;
    uint32_t index;
  };
  struct Worker {
    RowKernel::Scratch scratch;
    std::vector<uint32_t> neighbours;
    std::vector<FoundRow> found;
  };
  ForEachPiece(n, pieces, num_threads, busy,
               [&] { return Worker{RowKernel::Scratch(index.num_entities()),
                                   {}, {}}; },
               [&](Worker& worker, size_t piece, size_t begin, size_t stop,
                   StageClock& clock) {
    RowKernel::Scratch& scratch = worker.scratch;
    std::vector<uint32_t>& neighbours = worker.neighbours;
    std::vector<FoundRow>& found = worker.found;
    // Keeps the tile's rows that clear the floor; row r is candidate
    // index_of(r), pairing the pivot with tile.other[r].
    const auto keep = [&](size_t pivot, size_t count, const auto& index_of) {
      ScoredCandidates& mine = kept[piece];
      const double* probabilities = scratch.tile.probabilities;
      for (size_t r = 0; r < count; ++r) {
        if (probabilities[r] >= floor) {
          mine.indices.push_back(static_cast<uint32_t>(index_of(r)));
          mine.pairs.push_back(
              {static_cast<EntityId>(pivot),
               static_cast<EntityId>(scratch.tile.other[r] - right_offset)});
          mine.probabilities.push_back(probabilities[r]);
        }
      }
    };
    uint64_t row = first + begin;
    for (size_t pivot = PivotOfCandidate(pivot_offsets, row);
         row < first + stop; ++pivot) {
      const uint64_t pivot_first = pivot_offsets[pivot];
      const uint64_t pivot_stop =
          std::min<uint64_t>(pivot_offsets[pivot + 1], first + stop);
      if (row >= pivot_stop) continue;  // a pivot without candidates

      const size_t blocks = index.NumBlocksOf(pivot);
      const size_t prefix =
          filter ? kernel.FindNeighbours(pivot, model, floor, &scratch)
                 : blocks;
      if (prefix < blocks) {
        // Only the found neighbours can reach the floor: their sums alone,
        // then their global indices, ascending — read from the resident
        // pairs, or the pivot's offset plus each one's rank among the
        // neighbour bits the same pass sets.
        found.clear();
        if (prefix > 0 && resident != nullptr) {
          kernel.Accumulate<false, true>(pivot, &scratch);
          // Every found neighbour is in the pivot's slice: the pass reads
          // each one's index and clears its bit.
          for (uint64_t i = pivot_first; i < pivot_offsets[pivot + 1]; ++i) {
            const uint32_t g = right_offset + (*resident)[i].right;
            uint64_t& word = scratch.found[g >> 6];
            const uint64_t bit = uint64_t{1} << (g & 63);
            if ((word & bit) != 0) {
              word &= ~bit;
              found.push_back({g, static_cast<uint32_t>(i)});
            }
          }
        } else if (prefix > 0) {
          kernel.Accumulate<true, true>(pivot, &scratch);
          scratch.neighbours.DrainRanked(
              scratch.found.data(), [&](uint32_t g, size_t rank) {
                found.push_back(
                    {g, static_cast<uint32_t>(pivot_first + rank)});
              });
        }
        clock.Charge(resident != nullptr ? obs::Phase::kFeatures
                                         : obs::Phase::kPairs);

        // The found rows in [row, pivot_stop), a tile at a time.
        const auto by_index = [](const FoundRow& found_row, uint64_t at) {
          return found_row.index < at;
        };
        const auto from =
            std::lower_bound(found.begin(), found.end(), row, by_index);
        const auto to =
            std::lower_bound(from, found.end(), pivot_stop, by_index);
        for (auto tile_first = from; tile_first < to;) {
          const auto count = std::min<size_t>(kTileRows, to - tile_first);
          for (size_t r = 0; r < count; ++r) {
            scratch.tile.other[r] = tile_first[r].neighbour;
          }
          kernel.EvaluateTile(pivot, count, &scratch);
          evaluated[piece] += count;
          clock.Charge(obs::Phase::kFeatures);
          model.PredictTile(scratch.tile.values, count, dims, floor,
                            scratch.tile.probabilities);
          keep(pivot, count, [&](size_t r) { return tile_first[r].index; });
          clock.Charge(obs::Phase::kClassify);
          tile_first += count;
        }
        row = pivot_stop;
        continue;
      }

      // Row pivot_first + i pairs the pivot with neighbours[i]: read from
      // the resident pairs, or collected by the sweep that accumulates the
      // pivot's sums and drained ascending — PivotNeighbourGenerator's list.
      neighbours.clear();
      if (resident != nullptr) {
        kernel.Accumulate<false, false>(pivot, &scratch);
        for (uint64_t i = pivot_first; i < pivot_offsets[pivot + 1]; ++i) {
          neighbours.push_back(right_offset + (*resident)[i].right);
        }
      } else {
        kernel.Accumulate<true, false>(pivot, &scratch);
        scratch.neighbours.Drain([&](uint32_t g) { neighbours.push_back(g); });
      }
      assert(neighbours.size() == pivot_offsets[pivot + 1] - pivot_first);
      if (keep_all) {
        for (uint64_t i = row; i < pivot_stop; ++i) {
          out->pairs[i - first] = CandidatePair{
              static_cast<EntityId>(pivot),
              static_cast<EntityId>(neighbours[i - pivot_first] -
                                    right_offset)};
        }
      }
      // Without pair generation, the sweep is the rows' feature work.
      clock.Charge(resident != nullptr ? obs::Phase::kFeatures
                                       : obs::Phase::kPairs);

      while (row < pivot_stop) {
        const auto count =
            static_cast<size_t>(std::min<uint64_t>(kTileRows, pivot_stop - row));
        std::copy_n(neighbours.begin() + (row - pivot_first), count,
                    scratch.tile.other);
        kernel.EvaluateTile(pivot, count, &scratch);
        evaluated[piece] += count;
        clock.Charge(obs::Phase::kFeatures);
        double* probabilities = keep_all
                                    ? out->probabilities.data() + (row - first)
                                    : scratch.tile.probabilities;
        model.PredictTile(scratch.tile.values, count, dims, floor,
                          probabilities);
        if (!keep_all) keep(pivot, count, [&](size_t r) { return row + r; });
        clock.Charge(obs::Phase::kClassify);
        row += count;
      }
    }
  });
  uint64_t evaluated_rows = 0;
  for (uint64_t rows : evaluated) evaluated_rows += rows;
  obs::CounterAdd("pairs.scored", evaluated_rows);
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
                          size_t num_threads, const FeatureTerms* terms) {
  // Extract in ascending candidate order (grouped by pivot, as the kernel
  // expects), then scatter each row back to its position in `rows`.
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return rows[a] < rows[b]; });
  std::vector<CandidatePair> pairs(rows.size());
  for (size_t r = 0; r < order.size(); ++r) pairs[r] = pair_at(rows[order[r]]);

  const Matrix sorted =
      FeatureExtractor(index, pairs).Compute(set, num_threads, terms);
  Matrix out(rows.size(), sorted.cols());
  for (size_t r = 0; r < order.size(); ++r) {
    std::copy(sorted.Row(r), sorted.Row(r) + sorted.cols(),
              out.Row(order[r]));
  }
  return out;
}

}  // namespace gsmb
