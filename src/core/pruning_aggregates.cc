#include "core/pruning_aggregates.h"

#include <algorithm>
#include <cmath>

#include "core/pruning_detail.h"
#include "gsmb/telemetry.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

inline bool Valid(double p, const PruningContext& ctx) {
  return p >= ctx.validity_threshold;
}

// ---------------------------------------------------------------------------
// Shared building blocks of the aggregators.
// ---------------------------------------------------------------------------

// One chunk's contribution to a node's probability aggregate.
struct NodeContribution {
  uint32_t node;
  double sum;
  uint32_t count;
};

// ---------------------------------------------------------------------------
// BCl — stateless: keep every valid pair.
// ---------------------------------------------------------------------------

class BClAggregator final : public PruningAggregator {
 public:
  explicit BClAggregator(const PruningContext& ctx) : ctx_(ctx) {}

  bool needs_accumulation() const override { return false; }
  void AccumulateChunk(const PairChunkView&, AggregatorScratch*) override {}
  void FoldChunks(size_t, size_t) override {}
  bool Keep(size_t, const CandidatePair&, double p) const override {
    return Valid(p, ctx_);
  }

 private:
  PruningContext ctx_;
};

// ---------------------------------------------------------------------------
// WEP — global average of valid probabilities. Per-chunk partial sums fold
// in chunk order, so the mean does not depend on thread or shard counts.
// ---------------------------------------------------------------------------

class WepAggregator final : public PruningAggregator {
 public:
  WepAggregator(size_t num_chunks, const PruningContext& ctx)
      : ctx_(ctx), part_sum_(num_chunks, 0.0), part_count_(num_chunks, 0) {}

  void AccumulateChunk(const PairChunkView& chunk,
                       AggregatorScratch*) override {
    double sum = 0.0;
    size_t count = 0;
    for (size_t j = 0; j < chunk.count; ++j) {
      const double p = chunk.probabilities[j];
      if (Valid(p, ctx_)) {
        sum += p;
        ++count;
      }
    }
    part_sum_[chunk.chunk_index] = sum;
    part_count_[chunk.chunk_index] = count;
  }

  void FoldChunks(size_t chunk_begin, size_t chunk_end) override {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      sum_ += part_sum_[c];
      count_ += part_count_[c];
    }
  }

  void Finalize() override {
    if (count_ > 0) mean_ = sum_ / static_cast<double>(count_);
  }

  bool Keep(size_t, const CandidatePair&, double p) const override {
    // The average of valid probabilities is itself >= the threshold, so the
    // validity check is implied, but kept explicit for the unsupervised
    // (threshold <= 0) reuse of this class.
    return count_ > 0 && Valid(p, ctx_) && mean_ <= p;
  }

 private:
  PruningContext ctx_;
  std::vector<double> part_sum_;
  std::vector<size_t> part_count_;
  double sum_ = 0.0;
  size_t count_ = 0;
  double mean_ = 0.0;
};

// ---------------------------------------------------------------------------
// WNP / RWNP — per-node average over valid pairs. Each chunk accumulates
// its touched nodes into a sparse contribution list; contributions fold in
// chunk order, so the averages are bit-identical for any thread count.
// ---------------------------------------------------------------------------

class NodeSumScratch final : public AggregatorScratch {
 public:
  explicit NodeSumScratch(size_t num_nodes)
      : sum(num_nodes, 0.0), count(num_nodes, 0) {}

  std::vector<double> sum;
  std::vector<uint32_t> count;
  std::vector<uint32_t> touched;
};

class NodeAverageAggregator final : public PruningAggregator {
 public:
  NodeAverageAggregator(size_t num_chunks, const PruningContext& ctx,
                        bool reciprocal)
      : ctx_(ctx),
        reciprocal_(reciprocal),
        parts_(num_chunks),
        sum_(ctx.num_nodes, 0.0),
        count_(ctx.num_nodes, 0) {}

  std::unique_ptr<AggregatorScratch> MakeScratch() const override {
    return std::make_unique<NodeSumScratch>(ctx_.num_nodes);
  }

  void AccumulateChunk(const PairChunkView& chunk,
                       AggregatorScratch* scratch) override {
    auto& s = *static_cast<NodeSumScratch*>(scratch);
    s.touched.clear();
    auto add = [&](size_t node, double p) {
      if (s.count[node] == 0) s.touched.push_back(static_cast<uint32_t>(node));
      s.sum[node] += p;
      ++s.count[node];
    };
    for (size_t j = 0; j < chunk.count; ++j) {
      const double p = chunk.probabilities[j];
      if (!Valid(p, ctx_)) continue;
      add(LeftNode(chunk.pairs[j]), p);
      add(RightNode(chunk.pairs[j], ctx_), p);
    }
    std::vector<NodeContribution>& out = parts_[chunk.chunk_index];
    out.reserve(s.touched.size());
    for (uint32_t node : s.touched) {
      out.push_back({node, s.sum[node], s.count[node]});
      s.sum[node] = 0.0;
      s.count[node] = 0;
    }
  }

  void FoldChunks(size_t chunk_begin, size_t chunk_end) override {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      for (const NodeContribution& contribution : parts_[c]) {
        sum_[contribution.node] += contribution.sum;
        count_[contribution.node] += contribution.count;
      }
      std::vector<NodeContribution>().swap(parts_[c]);
    }
  }

  void Finalize() override {
    for (size_t n = 0; n < sum_.size(); ++n) {
      sum_[n] = count_[n] > 0 ? sum_[n] / count_[n]
                              : 2.0;  // unreachable threshold: no valid pairs
    }
  }

  bool Keep(size_t, const CandidatePair& pair, double p) const override {
    if (!Valid(p, ctx_)) return false;
    const bool left_ok = sum_[LeftNode(pair)] <= p;
    const bool right_ok = sum_[RightNode(pair, ctx_)] <= p;
    return reciprocal_ ? (left_ok && right_ok) : (left_ok || right_ok);
  }

 private:
  PruningContext ctx_;
  bool reciprocal_;
  std::vector<std::vector<NodeContribution>> parts_;
  std::vector<double> sum_;  // becomes the per-node average after Finalize()
  std::vector<uint32_t> count_;
};

// ---------------------------------------------------------------------------
// BLAST — per-node maximum over valid pairs; keep p >= r * (max_i + max_j).
// max is exact (no rounding), so per-chunk maxima merge to the same values
// in any order — but they still fold in chunk order like everything else.
// ---------------------------------------------------------------------------

class NodeMaxScratch final : public AggregatorScratch {
 public:
  explicit NodeMaxScratch(size_t num_nodes) : max(num_nodes, 0.0) {}

  std::vector<double> max;
  std::vector<uint32_t> touched;
};

class BlastAggregator final : public PruningAggregator {
 public:
  BlastAggregator(size_t num_chunks, const PruningContext& ctx)
      : ctx_(ctx), parts_(num_chunks), max_prob_(ctx.num_nodes, 0.0) {}

  std::unique_ptr<AggregatorScratch> MakeScratch() const override {
    return std::make_unique<NodeMaxScratch>(ctx_.num_nodes);
  }

  void AccumulateChunk(const PairChunkView& chunk,
                       AggregatorScratch* scratch) override {
    auto& s = *static_cast<NodeMaxScratch*>(scratch);
    s.touched.clear();
    auto raise = [&](size_t node, double p) {
      if (s.max[node] == 0.0) s.touched.push_back(static_cast<uint32_t>(node));
      if (s.max[node] < p) s.max[node] = p;
    };
    for (size_t j = 0; j < chunk.count; ++j) {
      const double p = chunk.probabilities[j];
      if (!Valid(p, ctx_) || p == 0.0) continue;
      raise(LeftNode(chunk.pairs[j]), p);
      raise(RightNode(chunk.pairs[j], ctx_), p);
    }
    std::vector<NodeContribution>& out = parts_[chunk.chunk_index];
    out.reserve(s.touched.size());
    for (uint32_t node : s.touched) {
      out.push_back({node, s.max[node], 0});
      s.max[node] = 0.0;
    }
  }

  void FoldChunks(size_t chunk_begin, size_t chunk_end) override {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      for (const NodeContribution& contribution : parts_[c]) {
        if (max_prob_[contribution.node] < contribution.sum) {
          max_prob_[contribution.node] = contribution.sum;
        }
      }
      std::vector<NodeContribution>().swap(parts_[c]);
    }
  }

  bool Keep(size_t, const CandidatePair& pair, double p) const override {
    if (!Valid(p, ctx_)) return false;
    const double threshold =
        ctx_.blast_ratio *
        (max_prob_[LeftNode(pair)] + max_prob_[RightNode(pair, ctx_)]);
    return threshold <= p;
  }

 private:
  PruningContext ctx_;
  std::vector<std::vector<NodeContribution>> parts_;
  std::vector<double> max_prob_;
};

// ---------------------------------------------------------------------------
// CEP / CNP / RCNP — top-k by threshold. CEP has one budget of K rows; CNP
// and RCNP have a budget of k rows per node, and a row counts against both
// of its endpoints'. Every valid row sits once in one list, ascending by
// index: a chunk's slot holds its valid rows in order, and the slots append
// in chunk order. A compaction finds each crowded budget's k-th best key
// under Outranks and stably erases every row that fewer than `required` of
// its budgets keep. Top-k under a strict total order is unique, a row
// outside a budget's top-k of the rows seen so far stays outside it for
// every superset, and the compactions inside a fold keep every row that
// some budget keeps; so each budget's top-k survives them, and the last
// compaction, with the kind's requirement, yields the serial result exactly.
// ---------------------------------------------------------------------------

// A row's rank: its probability and index.
struct RankKey {
  double probability;
  uint32_t index;
};

inline RankKey KeyOf(const RetainedCandidate& row) {
  return {row.probability, row.index};
}

// Strict total order "a outranks b": higher probability wins, ties go to
// the smaller index.
inline bool Outranks(const RankKey& a, const RankKey& b) {
  if (a.probability != b.probability) return a.probability > b.probability;
  return a.index < b.index;
}

class TopKAggregator final : public PruningAggregator {
 public:
  TopKAggregator(size_t num_chunks, const PruningContext& ctx,
                 PruningKind kind)
      : ctx_(ctx),
        per_node_(kind != PruningKind::kCep),
        required_(kind == PruningKind::kRcnp ? 2 : 1),
        k_(per_node_ ? static_cast<size_t>(
                           std::max<long long>(1, std::llround(ctx.cnp_k)))
                     : static_cast<size_t>(
                           std::max(0.0, std::floor(ctx.cep_k)))),
        num_budgets_(per_node_ ? ctx.num_nodes : 1),
        parts_(num_chunks) {}

  bool emits_from_aggregates() const override { return true; }

  void AccumulateChunk(const PairChunkView& chunk,
                       AggregatorScratch*) override {
    if (k_ == 0) return;
    std::vector<RetainedCandidate>& slot = parts_[chunk.chunk_index];
    for (size_t j = 0; j < chunk.count; ++j) {
      const double p = chunk.probabilities[j];
      if (Valid(p, ctx_)) {
        slot.push_back(
            {static_cast<uint32_t>(chunk.IndexOf(j)), chunk.pairs[j], p});
      }
    }
  }

  // Compacts whenever the list passes twice the budgets' total, so it holds
  // at most that plus one chunk's rows.
  void FoldChunks(size_t chunk_begin, size_t chunk_end) override {
    size_t peak = list_.size();
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      list_.insert(list_.end(), parts_[c].begin(), parts_[c].end());
      std::vector<RetainedCandidate>().swap(parts_[c]);
      peak = std::max(peak, list_.size());
      if (list_.size() > 2 * num_budgets_ * k_) Compact(/*required=*/1);
    }
    obs::GaugeMax("topk.bytes.peak",
                  static_cast<double>(peak * sizeof(RetainedCandidate)));
  }

  bool Keep(size_t, const CandidatePair&, double) const override {
    return false;  // unused: emits_from_aggregates()
  }

  std::vector<RetainedCandidate> TakeRetained() override {
    Compact(required_);
    return std::move(list_);
  }

 private:
  // Calls f(budget) for each budget `row` counts against.
  template <typename F>
  void ForEachBudget(const RetainedCandidate& row, const F& f) const {
    if (per_node_) {
      f(LeftNode(row.pair));
      f(RightNode(row.pair, ctx_));
    } else {
      f(size_t{0});
    }
  }

  void Compact(int required) {
    // One counting pass; only budgets holding more than k rows select.
    std::vector<uint32_t> count(num_budgets_, 0);
    for (const RetainedCandidate& row : list_) {
      ForEachBudget(row, [&](size_t b) { ++count[b]; });
    }
    // The crowded budgets' keys, grouped by budget: after the fill, b's
    // group ends at end[b] and starts count[b] keys earlier.
    std::vector<size_t> end(num_budgets_);
    size_t total = 0;
    for (size_t b = 0; b < num_budgets_; ++b) {
      end[b] = total;
      if (count[b] > k_) total += count[b];
    }
    std::vector<RankKey> keys(total);
    for (const RetainedCandidate& row : list_) {
      ForEachBudget(row, [&](size_t b) {
        if (count[b] > k_) keys[end[b]++] = KeyOf(row);
      });
    }
    // Each crowded group's k-th best key moves to its position k - 1.
    const auto kth = [&](size_t b) -> const RankKey& {
      return keys[end[b] - count[b] + k_ - 1];
    };
    for (size_t b = 0; b < num_budgets_; ++b) {
      if (count[b] <= k_) continue;
      const auto first = keys.begin() + (end[b] - count[b]);
      std::nth_element(first, first + (k_ - 1), keys.begin() + end[b],
                       Outranks);
    }
    std::erase_if(list_, [&](const RetainedCandidate& row) {
      int kept = 0;
      ForEachBudget(row, [&](size_t b) {
        if (count[b] <= k_ || !Outranks(kth(b), KeyOf(row))) ++kept;
      });
      return kept < required;
    });
  }

  PruningContext ctx_;
  bool per_node_;
  int required_;
  size_t k_;            // rows per budget
  size_t num_budgets_;  // 1 for CEP, one per node for CNP/RCNP
  std::vector<std::vector<RetainedCandidate>> parts_;
  std::vector<RetainedCandidate> list_;  // ascending by index
};

}  // namespace

std::unique_ptr<PruningAggregator> MakePruningAggregator(
    PruningKind kind, size_t num_chunks, const PruningContext& context) {
  switch (kind) {
    case PruningKind::kBCl:
      return std::make_unique<BClAggregator>(context);
    case PruningKind::kWep:
      return std::make_unique<WepAggregator>(num_chunks, context);
    case PruningKind::kWnp:
      return std::make_unique<NodeAverageAggregator>(num_chunks, context,
                                                     /*reciprocal=*/false);
    case PruningKind::kRwnp:
      return std::make_unique<NodeAverageAggregator>(num_chunks, context,
                                                     /*reciprocal=*/true);
    case PruningKind::kBlast:
      return std::make_unique<BlastAggregator>(num_chunks, context);
    case PruningKind::kCep:
    case PruningKind::kCnp:
    case PruningKind::kRcnp:
      return std::make_unique<TopKAggregator>(num_chunks, context, kind);
  }
  return nullptr;
}

std::vector<uint32_t> PruneWithAggregator(
    PruningKind kind, const std::vector<CandidatePair>& pairs,
    const std::vector<double>& probabilities, const PruningContext& context) {
  const std::vector<ChunkRange> chunks = DeterministicChunks(pairs.size());
  std::unique_ptr<PruningAggregator> aggregator =
      MakePruningAggregator(kind, chunks.size(), context);

  if (aggregator->needs_accumulation()) {
    ParallelFor(chunks.size(), context.execution.num_threads,
                [&](size_t chunks_begin, size_t chunks_end) {
                  std::unique_ptr<AggregatorScratch> scratch =
                      aggregator->MakeScratch();
                  for (size_t c = chunks_begin; c < chunks_end; ++c) {
                    PairChunkView view;
                    view.chunk_index = c;
                    view.first_index = chunks[c].begin;
                    view.pairs = pairs.data() + chunks[c].begin;
                    view.probabilities = probabilities.data() + chunks[c].begin;
                    view.count = chunks[c].end - chunks[c].begin;
                    aggregator->AccumulateChunk(view, scratch.get());
                  }
                });
    aggregator->FoldChunks(0, chunks.size());
    aggregator->Finalize();
  }

  if (aggregator->emits_from_aggregates()) {
    const std::vector<RetainedCandidate> retained = aggregator->TakeRetained();
    std::vector<uint32_t> indices;
    indices.reserve(retained.size());
    for (const RetainedCandidate& candidate : retained) {
      indices.push_back(candidate.index);
    }
    return indices;
  }

  return detail::ChunkedRetain(pairs.size(), context.execution.num_threads,
                               [&](size_t i) {
                                 return aggregator->Keep(i, pairs[i],
                                                         probabilities[i]);
                               });
}

}  // namespace gsmb
