// Minimal data-parallel helpers: a persistent thread pool and ParallelFor.
//
// The paper's experiments run on a 72-core machine through Spark; the
// single-node analogue here is ParallelFor, which splits a contiguous index
// range into per-thread chunks. Used by the feature extractor (each chunk
// covers whole pivot-entity groups, so outputs are written disjointly and
// results are bit-identical to the serial path).
//
// ParallelFor used to spawn fresh std::threads on every call, which is
// visible overhead on small inputs and call-heavy workloads (the
// 255-combination feature sweep, the serving layer's per-shard refreshes).
// It now dispatches to a process-wide reusable ThreadPool; the chunk
// geometry handed to fn is unchanged, so callers observe identical results.

#ifndef GSMB_UTIL_THREAD_POOL_H_
#define GSMB_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gsmb {

/// Number of hardware threads (>= 1).
size_t HardwareThreads();

/// A persistent pool of worker threads executing batches of independent
/// tasks. Workers are spawned lazily (up to `max_workers`) on first use and
/// reused across batches, so repeated small parallel regions pay no
/// thread-creation cost.
///
/// Run() blocks until every task of its batch finished; the calling thread
/// participates in draining its own batch, which makes nested Run() calls
/// (a task submitting a sub-batch) deadlock-free even when every worker is
/// busy.
class ThreadPool {
 public:
  /// `max_workers` == 0 means HardwareThreads().
  explicit ThreadPool(size_t max_workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Executes task(0) .. task(num_tasks - 1), in any order, with up to
  /// max_workers() + 1 threads (workers plus the caller). Returns when all
  /// tasks completed. Tasks must be independent; the first exception thrown
  /// by any task is rethrown here after the batch drains.
  void Run(size_t num_tasks, const std::function<void(size_t)>& task);

  size_t max_workers() const { return max_workers_; }

  /// Worker threads currently alive (for tests/diagnostics).
  size_t ActiveWorkers() const;

  /// The process-wide pool ParallelFor dispatches to.
  static ThreadPool& Global();

 private:
  struct Batch;

  void WorkerLoop();
  void EnsureWorkersLocked(size_t wanted);
  /// Claims and runs tasks of `batch` until none remain unclaimed.
  void DrainBatch(const std::shared_ptr<Batch>& batch);

  const size_t max_workers_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable batch_done_;
  std::deque<std::shared_ptr<Batch>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// Runs fn(chunk_begin, chunk_end) over [0, n) split into roughly equal
/// contiguous chunks, one per thread. `num_threads` <= 1 (or n small) runs
/// inline. fn must be safe to call concurrently on disjoint ranges;
/// exceptions thrown by fn propagate to the caller (first one wins).
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t, size_t)>& fn);

/// Runs worker(next) on up to `num_threads` threads (never more than n),
/// where next(&item) claims the lowest unclaimed item of [0, n) from one
/// shared atomic cursor and returns false once all are claimed. Items of
/// uneven cost therefore balance across workers, while each worker keeps
/// its own scratch across the items it claims. Which worker runs an item
/// varies from run to run, so results must be item-owned (each item writes
/// only its own output slot) to be identical for any thread count.
template <typename Worker>
void ParallelClaim(size_t n, size_t num_threads, const Worker& worker) {
  std::atomic<size_t> cursor{0};
  const auto next = [&cursor, n](size_t* item) {
    *item = cursor.fetch_add(1, std::memory_order_relaxed);
    return *item < n;
  };
  const size_t workers = std::min(std::max<size_t>(num_threads, 1), n);
  ParallelFor(workers, workers, [&](size_t, size_t) { worker(next); });
}

/// One contiguous piece of [0, n).
struct ChunkRange {
  size_t begin;
  size_t end;

  bool operator==(const ChunkRange& other) const = default;
};

/// Default items-per-chunk for DeterministicChunks: large enough that the
/// small inputs typical of tests and examples stay in a single chunk (so
/// chunked arithmetic degenerates to the plain serial order), small enough
/// to load-balance production-sized inputs across many workers.
inline constexpr size_t kDefaultChunkGrain = 8192;

/// Splits [0, n) into fixed-size chunks of `grain` items (the last chunk
/// may be shorter). Boundaries depend only on n and grain — never on the
/// worker count — so per-chunk partial results merged in chunk order are
/// bit-identical for ANY number of threads, including one. This is the
/// building block behind every "parallel output equals serial output"
/// guarantee in the pruning and candidate-generation hot paths: workers
/// write into chunk-owned slots, and the caller folds the slots in
/// ascending chunk order.
std::vector<ChunkRange> DeterministicChunks(size_t n,
                                            size_t grain = kDefaultChunkGrain);

/// Concatenates per-chunk partial outputs in chunk order: prefix offsets,
/// then a parallel scatter into the pre-sized result. Each part is released
/// as soon as it is copied, so peak memory stays near 1x the total instead
/// of holding both copies through a serial merge. The merged vector is
/// identical for any thread count.
template <typename T>
std::vector<T> MergeChunkParts(std::vector<std::vector<T>>* parts,
                               size_t num_threads) {
  std::vector<size_t> offsets(parts->size() + 1, 0);
  for (size_t c = 0; c < parts->size(); ++c) {
    offsets[c + 1] = offsets[c] + (*parts)[c].size();
  }
  std::vector<T> merged(offsets.back());
  ParallelFor(parts->size(), num_threads,
              [&](size_t chunks_begin, size_t chunks_end) {
                for (size_t c = chunks_begin; c < chunks_end; ++c) {
                  std::copy((*parts)[c].begin(), (*parts)[c].end(),
                            merged.begin() + offsets[c]);
                  std::vector<T>().swap((*parts)[c]);
                }
              });
  return merged;
}

}  // namespace gsmb

#endif  // GSMB_UTIL_THREAD_POOL_H_
