#include "blocking/key_blocking.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace gsmb {

struct KeyRun {
  // One emitted (key, id) row, 16 bytes: the key's bytes in the arena, its
  // first four bytes as a big-endian integer (zero-padded), which decides
  // most comparisons without touching the arena, and the profile id.
  struct Row {
    uint32_t prefix;
    uint32_t offset;
    uint32_t length;
    EntityId id;
  };

  std::string arena;
  std::vector<Row> rows;

  // Emits the keys of the chunk's profiles, then sorts the rows by (key, id)
  // and drops repeated rows.
  void Fill(const EntityCollection& collection, ChunkRange chunk,
            const KeyFunction& keys);
};

namespace {

using KeyRow = KeyRun::Row;

// Three-way lexicographic comparison of two keys, bytes as unsigned char
// (std::string's order). Unequal zero-padded prefixes order the keys as
// their bytes do; equal ones leave the bytes past the fourth and the
// lengths to decide.
int CompareKeys(const KeyRow& a, const char* a_arena, const KeyRow& b,
                const char* b_arena) {
  if (a.prefix != b.prefix) return a.prefix < b.prefix ? -1 : 1;
  const uint32_t common = std::min(a.length, b.length);
  if (common > 4) {
    const int c = std::memcmp(a_arena + a.offset + 4, b_arena + b.offset + 4,
                              common - 4);
    if (c != 0) return c;
  }
  return a.length < b.length ? -1 : (a.length > b.length ? 1 : 0);
}

}  // namespace

void KeyRun::Fill(const EntityCollection& collection, ChunkRange chunk,
                  const KeyFunction& keys) {
  KeySink sink(this);
  for (size_t e = chunk.begin; e < chunk.end; ++e) {
    sink.id_ = static_cast<EntityId>(e);
    keys(collection[sink.id_], &sink);
  }
  const char* base = arena.data();
  std::sort(rows.begin(), rows.end(), [base](const Row& a, const Row& b) {
    const int c = CompareKeys(a, base, b, base);
    return c != 0 ? c < 0 : a.id < b.id;
  });
  rows.erase(std::unique(rows.begin(), rows.end(),
                         [base](const Row& a, const Row& b) {
                           return a.id == b.id &&
                                  CompareKeys(a, base, b, base) == 0;
                         }),
             rows.end());
}

size_t KeySink::Append(std::string_view bytes) {
  const size_t offset = run_->arena.size();
  if (bytes.size() > std::numeric_limits<uint32_t>::max() - offset) {
    throw std::length_error("key arena of one chunk exceeds 4 GiB");
  }
  run_->arena.append(bytes);
  return offset;
}

size_t KeySink::AppendLower(std::string_view bytes) {
  const size_t offset = Append(bytes);
  char* out = run_->arena.data() + offset;
  for (size_t i = 0; i < bytes.size(); ++i) out[i] = LowerAscii(out[i]);
  return offset;
}

void KeySink::Emit(size_t offset, size_t length) {
  const std::string& arena = run_->arena;
  if (offset > arena.size() || length > arena.size() - offset) {
    throw std::out_of_range("KeySink::Emit: key outside the arena");
  }
  const auto* key = reinterpret_cast<const unsigned char*>(arena.data()) +
                    offset;
  uint32_t prefix = 0;
  for (size_t i = 0; i < std::min<size_t>(length, 4); ++i) {
    prefix |= uint32_t{key[i]} << (24 - 8 * i);
  }
  run_->rows.push_back({prefix, static_cast<uint32_t>(offset),
                        static_cast<uint32_t>(length), id_});
}

namespace {

struct KeySource {
  const EntityCollection* collection;
  const KeyFunction* keys;
};

// One run per fixed-grain chunk of each source, sources in order: run order
// is (source, chunk) order, so it is also ascending id order per source.
std::vector<KeyRun> ExtractRuns(const std::vector<KeySource>& sources,
                                size_t num_threads) {
  std::vector<std::pair<const KeySource*, ChunkRange>> tasks;
  for (const KeySource& source : sources) {
    for (const ChunkRange& chunk :
         DeterministicChunks(source.collection->size(), kKeyChunkGrain)) {
      tasks.emplace_back(&source, chunk);
    }
  }
  std::vector<KeyRun> runs(tasks.size());
  ParallelFor(tasks.size(), num_threads, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      runs[t].Fill(*tasks[t].first->collection, tasks[t].second,
                   *tasks[t].first->keys);
    }
  });
  return runs;
}

// A key by value: its row and the arena holding its bytes.
struct KeyRef {
  KeyRow row;
  const char* arena;
};

int CompareKeys(const KeyRef& a, const KeyRef& b) {
  return CompareKeys(a.row, a.arena, b.row, b.arena);
}

// Up to `parts` - 1 distinct, ascending splitter keys, taken as quantiles of
// keys sampled evenly from every run, so the key ranges between them hold
// similar row counts. Any splitters give the same blocks: all rows of a key
// fall into one range, and ranges concatenate in key order.
std::vector<KeyRef> PickSplitters(const std::vector<KeyRun>& runs,
                                  size_t parts) {
  std::vector<KeyRef> samples;
  const size_t per_run = 4 * parts;
  for (const KeyRun& run : runs) {
    for (size_t j = 0; j < per_run && j < run.rows.size(); ++j) {
      samples.push_back(
          {run.rows[j * run.rows.size() / per_run], run.arena.data()});
    }
  }
  const auto less = [](const KeyRef& a, const KeyRef& b) {
    return CompareKeys(a, b) < 0;
  };
  std::sort(samples.begin(), samples.end(), less);
  std::vector<KeyRef> splitters;
  for (size_t j = 1; j < parts && !samples.empty(); ++j) {
    const KeyRef& pick = samples[j * samples.size() / parts];
    if (splitters.empty() || less(splitters.back(), pick)) {
      splitters.push_back(pick);
    }
  }
  return splitters;
}

// K-way merge of the runs' rows in [pos[r], end[r]) into blocks. A binary
// heap holds each run's current row and orders them by (key, run), so a
// key's rows pop in run order: left members before right ones, each
// ascending.
std::vector<Block> MergeRange(const std::vector<KeyRun>& runs,
                              size_t num_left_runs, bool clean_clean,
                              std::vector<size_t> pos,
                              const std::vector<size_t>& end) {
  struct Head : KeyRef {
    size_t run;
  };
  const auto before = [](const Head& a, const Head& b) {
    const int c = CompareKeys(a, b);
    return c != 0 ? c < 0 : a.run < b.run;
  };
  std::vector<Head> heap;
  for (size_t r = 0; r < runs.size(); ++r) {
    if (pos[r] < end[r]) {
      heap.push_back({{runs[r].rows[pos[r]], runs[r].arena.data()}, r});
    }
  }
  const auto sift_down = [&](size_t i) {
    for (;;) {
      size_t least = i;
      for (size_t child = 2 * i + 1; child <= 2 * i + 2; ++child) {
        if (child < heap.size() && before(heap[child], heap[least])) {
          least = child;
        }
      }
      if (least == i) return;
      std::swap(heap[i], heap[least]);
      i = least;
    }
  };
  for (size_t i = heap.size(); i-- > 0;) sift_down(i);

  std::vector<Block> blocks;
  std::vector<EntityId> left;
  std::vector<EntityId> right;
  while (!heap.empty()) {
    const Head key = heap.front();
    left.clear();
    right.clear();
    do {
      Head& top = heap.front();
      (top.run < num_left_runs ? left : right).push_back(top.row.id);
      if (++pos[top.run] < end[top.run]) {
        top.row = runs[top.run].rows[pos[top.run]];
      } else {
        top = heap.back();
        heap.pop_back();
      }
      if (!heap.empty()) sift_down(0);
    } while (!heap.empty() && CompareKeys(heap.front(), key) == 0);
    if (clean_clean ? left.empty() || right.empty() : left.size() < 2) {
      continue;
    }
    Block block;
    block.key.assign(key.arena + key.row.offset, key.row.length);
    block.left = left;
    block.right = right;
    blocks.push_back(std::move(block));
  }
  return blocks;
}

// Merges the runs over key ranges in parallel and appends the blocks to
// `out` in key order. Runs [0, num_left_runs) hold E1 (or all of a Dirty
// collection), the rest E2.
void MergeRuns(std::vector<KeyRun> runs, size_t num_left_runs,
               size_t num_threads, BlockCollection* out) {
  const size_t parts = std::max<size_t>(1, num_threads);
  const std::vector<KeyRef> splitters =
      parts > 1 ? PickSplitters(runs, parts) : std::vector<KeyRef>();
  // cuts[p][r]: first row of run r in range p (rows below every later
  // splitter); cuts.back() is each run's end.
  std::vector<std::vector<size_t>> cuts(splitters.size() + 2,
                                        std::vector<size_t>(runs.size(), 0));
  for (size_t r = 0; r < runs.size(); ++r) {
    const KeyRun& run = runs[r];
    for (size_t s = 0; s < splitters.size(); ++s) {
      const auto it = std::lower_bound(
          run.rows.begin(), run.rows.end(), splitters[s],
          [&run](const KeyRow& row, const KeyRef& splitter) {
            return CompareKeys(row, run.arena.data(), splitter.row,
                               splitter.arena) < 0;
          });
      cuts[s + 1][r] = static_cast<size_t>(it - run.rows.begin());
    }
    cuts.back()[r] = run.rows.size();
  }

  const size_t num_ranges = splitters.size() + 1;
  std::vector<std::vector<Block>> ranges(num_ranges);
  ParallelFor(num_ranges, num_threads, [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      ranges[p] = MergeRange(runs, num_left_runs, out->clean_clean(), cuts[p],
                             cuts[p + 1]);
    }
  });
  std::vector<KeyRun>().swap(runs);

  size_t total = 0;
  for (const std::vector<Block>& range : ranges) total += range.size();
  out->Reserve(total);
  for (std::vector<Block>& range : ranges) {
    for (Block& block : range) out->Add(std::move(block));
    std::vector<Block>().swap(range);
  }
}

size_t NumRuns(const EntityCollection& collection) {
  return DeterministicChunks(collection.size(), kKeyChunkGrain).size();
}

}  // namespace

BlockCollection BuildKeyBlocksCleanClean(const EntityCollection& e1,
                                         const EntityCollection& e2,
                                         const KeyFunction& keys,
                                         size_t num_threads) {
  return BuildKeyBlocksCleanClean(e1, e2, keys, keys, num_threads);
}

BlockCollection BuildKeyBlocksCleanClean(const EntityCollection& e1,
                                         const EntityCollection& e2,
                                         const KeyFunction& keys1,
                                         const KeyFunction& keys2,
                                         size_t num_threads) {
  BlockCollection out(/*clean_clean=*/true, e1.size(), e2.size());
  MergeRuns(ExtractRuns({{&e1, &keys1}, {&e2, &keys2}}, num_threads),
            NumRuns(e1), num_threads, &out);
  return out;
}

BlockCollection BuildKeyBlocksDirty(const EntityCollection& e,
                                    const KeyFunction& keys,
                                    size_t num_threads) {
  BlockCollection out(/*clean_clean=*/false, e.size(), 0);
  MergeRuns(ExtractRuns({{&e, &keys}}, num_threads), NumRuns(e), num_threads,
            &out);
  return out;
}

}  // namespace gsmb
