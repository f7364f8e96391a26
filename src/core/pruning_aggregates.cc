#include "core/pruning_aggregates.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "core/pruning_detail.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace {

inline bool Valid(double p, const PruningContext& ctx) {
  return p >= ctx.validity_threshold;
}

// ---------------------------------------------------------------------------
// Shared building blocks (former internals of weight_pruning.cc and
// cardinality_pruning.cc, moved here so the streaming executor reuses the
// exact arithmetic instead of re-implementing it).
// ---------------------------------------------------------------------------

// One chunk's contribution to a node's probability aggregate.
struct NodeContribution {
  uint32_t node;
  double sum;
  uint32_t count;
};

// Heap entry for the cardinality algorithms. Ties on probability are broken
// by pair index, ejecting the *later* pair first, so results are
// deterministic and independent of heap internals. The pair rides along so
// the streaming executor can emit without regenerating it.
struct HeapEntry {
  double prob;
  uint32_t index;
  CandidatePair pair;
};

// Strict total order "a outranks b": higher probability wins, ties go to
// the smaller index. The top-k of any entry set under this order is unique,
// so per-chunk top-k selections can merge in any order and still produce
// the exact serial result.
inline bool Outranks(const HeapEntry& a, const HeapEntry& b) {
  if (a.prob != b.prob) return a.prob > b.prob;
  return a.index < b.index;
}

// Min-heap on Outranks: the weakest retained pair sits on top.
struct WeakerFirst {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return Outranks(a, b);
  }
};

using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, WeakerFirst>;

// Offers `e` to a queue capped at `k` entries, replacing the weakest kept
// entry when outranked. Exact for any offer order.
inline void OfferCapped(MinHeap& queue, size_t k, const HeapEntry& e) {
  if (queue.size() < k) {
    queue.push(e);
  } else if (Outranks(e, queue.top())) {
    queue.pop();
    queue.push(e);
  }
}

// Trims `entries` to its top-k under Outranks (unordered).
void KeepTopK(std::vector<HeapEntry>& entries, size_t k) {
  if (entries.size() <= k) return;
  std::nth_element(entries.begin(), entries.begin() + k, entries.end(),
                   Outranks);
  entries.resize(k);
}

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
// CEP — global top-K. Each chunk selects its local top-K valid pairs; the
// global top-K is the top-K of the union of the locals, which is unique
// under Outranks.
// ---------------------------------------------------------------------------

class CepAggregator final : public PruningAggregator {
 public:
  CepAggregator(size_t num_chunks, const PruningContext& ctx)
      : ctx_(ctx),
        k_(static_cast<size_t>(std::max(0.0, std::floor(ctx.cep_k)))),
        parts_(num_chunks) {}

  bool emits_from_aggregates() const override { return true; }

  void AccumulateChunk(const PairChunkView& chunk,
                       AggregatorScratch*) override {
    if (k_ == 0) return;
    std::vector<HeapEntry>& local = parts_[chunk.chunk_index];
    for (size_t j = 0; j < chunk.count; ++j) {
      if (Valid(chunk.probabilities[j], ctx_)) {
        local.push_back({chunk.probabilities[j],
                         static_cast<uint32_t>(chunk.IndexOf(j)),
                         chunk.pairs[j]});
      }
    }
    KeepTopK(local, k_);
  }

  void FoldChunks(size_t chunk_begin, size_t chunk_end) override {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      for (const HeapEntry& e : parts_[c]) OfferCapped(queue_, k_, e);
      std::vector<HeapEntry>().swap(parts_[c]);
    }
  }

  bool Keep(size_t, const CandidatePair&, double) const override {
    return false;  // unused: emits_from_aggregates()
  }

  std::vector<RetainedCandidate> TakeRetained() override {
    std::vector<RetainedCandidate> retained;
    retained.reserve(queue_.size());
    while (!queue_.empty()) {
      const HeapEntry& top = queue_.top();
      retained.push_back({top.index, top.pair, top.prob});
      queue_.pop();
    }
    std::sort(retained.begin(), retained.end(),
              [](const RetainedCandidate& a, const RetainedCandidate& b) {
                return a.index < b.index;
              });
    return retained;
  }

 private:
  PruningContext ctx_;
  size_t k_;
  std::vector<std::vector<HeapEntry>> parts_;
  MinHeap queue_;
};

// ---------------------------------------------------------------------------
// CNP / RCNP — per-node top-k queues; keep a pair present in at least
// `required` of its two endpoint queues. Each chunk pre-selects its
// per-node top-k by sorting its offers; the sparse chunk contributions then
// merge into the global queues — per-node top-k is unique under Outranks,
// so the merge order is immaterial and the result matches the serial sweep
// exactly.
// ---------------------------------------------------------------------------

// One chunk's candidate entry for a node's top-k queue.
struct NodeOffer {
  uint32_t node;
  HeapEntry entry;
};

class NodeOfferScratch final : public AggregatorScratch {
 public:
  std::vector<NodeOffer> offers;
};

class CnpAggregator final : public PruningAggregator {
 public:
  CnpAggregator(size_t num_chunks, const PruningContext& ctx, uint8_t required)
      : ctx_(ctx),
        required_(required),
        k_(static_cast<size_t>(
            std::max<long long>(1, std::llround(ctx.cnp_k)))),
        parts_(num_chunks),
        queues_(ctx.num_nodes) {}

  bool emits_from_aggregates() const override { return true; }

  std::unique_ptr<AggregatorScratch> MakeScratch() const override {
    return std::make_unique<NodeOfferScratch>();
  }

  void AccumulateChunk(const PairChunkView& chunk,
                       AggregatorScratch* scratch) override {
    std::vector<NodeOffer>& offers =
        static_cast<NodeOfferScratch*>(scratch)->offers;
    offers.clear();
    for (size_t j = 0; j < chunk.count; ++j) {
      const double p = chunk.probabilities[j];
      if (!Valid(p, ctx_)) continue;
      const HeapEntry entry{p, static_cast<uint32_t>(chunk.IndexOf(j)),
                            chunk.pairs[j]};
      offers.push_back({static_cast<uint32_t>(LeftNode(entry.pair)), entry});
      offers.push_back(
          {static_cast<uint32_t>(RightNode(entry.pair, ctx_)), entry});
    }
    std::sort(offers.begin(), offers.end(),
              [](const NodeOffer& a, const NodeOffer& b) {
                if (a.node != b.node) return a.node < b.node;
                return Outranks(a.entry, b.entry);
              });
    std::vector<NodeOffer>& out = parts_[chunk.chunk_index];
    size_t pos = 0;
    while (pos < offers.size()) {
      const uint32_t node = offers[pos].node;
      size_t kept = 0;
      for (; pos < offers.size() && offers[pos].node == node; ++pos) {
        if (kept < k_) {
          out.push_back(offers[pos]);
          ++kept;
        }
      }
    }
  }

  void FoldChunks(size_t chunk_begin, size_t chunk_end) override {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      for (const NodeOffer& offer : parts_[c]) {
        OfferCapped(queues_[offer.node], k_, offer.entry);
      }
      std::vector<NodeOffer>().swap(parts_[c]);
    }
  }

  bool Keep(size_t, const CandidatePair&, double) const override {
    return false;  // unused: emits_from_aggregates()
  }

  std::vector<RetainedCandidate> TakeRetained() override {
    // A pair sits in at most two queues (its endpoints), at most once each,
    // so counting equal-index runs of the drained union reproduces the
    // membership counts of the serial sweep without any O(|C|) array.
    std::vector<HeapEntry> drained;
    for (MinHeap& q : queues_) {
      while (!q.empty()) {
        drained.push_back(q.top());
        q.pop();
      }
    }
    std::sort(drained.begin(), drained.end(),
              [](const HeapEntry& a, const HeapEntry& b) {
                return a.index < b.index;
              });
    std::vector<RetainedCandidate> retained;
    size_t pos = 0;
    while (pos < drained.size()) {
      size_t end = pos;
      while (end < drained.size() && drained[end].index == drained[pos].index) {
        ++end;
      }
      if (end - pos >= required_) {
        retained.push_back(
            {drained[pos].index, drained[pos].pair, drained[pos].prob});
      }
      pos = end;
    }
    return retained;
  }

 private:
  PruningContext ctx_;
  uint8_t required_;
  size_t k_;
  std::vector<std::vector<NodeOffer>> parts_;
  std::vector<MinHeap> queues_;
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
      return std::make_unique<CepAggregator>(num_chunks, context);
    case PruningKind::kCnp:
      return std::make_unique<CnpAggregator>(num_chunks, context,
                                             /*required=*/1);
    case PruningKind::kRcnp:
      return std::make_unique<CnpAggregator>(num_chunks, context,
                                             /*required=*/2);
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
