// gsmb::PreparedInputs — the immutable, shareable result of Engine::Prepare.
//
// Every experiment of the paper is a sweep: one dataset+blocking evaluated
// under many pruning kinds, feature sets, classifiers, training sizes and
// seeds (Figs. 5-18, Tables 3-7). The expensive part — loading profiles,
// building blocks, purging/filtering, indexing, counting candidates — is a
// pure function of the spec's `dataset` and `blocking` sections alone, so
// it is prepared ONCE and shared:
//
//   gsmb::Engine engine;
//   gsmb::Result<gsmb::PreparedHandle> prepared = engine.Prepare(spec);
//   for (auto& variant : variants)            // pruning/features/seed/...
//     engine.Execute(variant, *prepared);     // no re-blocking
//
// Engine::Prepare serves handles from an engine-level LRU cache keyed on
// PrepareCacheKey(spec) — the canonical JSON of the dataset+blocking
// sections — so plain Engine::Run calls, sweeps and long-lived services all
// share one preparation per distinct (dataset, blocking) pair.
//
// A handle carries the counting (streaming) preparation, which every
// backend can execute from; the batch backend's O(|C|) pair list is
// materialised lazily, at most once per handle, on first batch execution,
// and every batch run then reads it: the executor at one shard over the
// resident pairs (stream/streaming_executor.h).
// Handles are immutable after construction (the lazy batch arrays are
// logically const: built once, then only read) and safe to share across
// threads.

#ifndef GSMB_API_PREPARED_H_
#define GSMB_API_PREPARED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blocking/candidate_pairs.h"
#include "er/entity_collection.h"
#include "er/ground_truth.h"
#include "gsmb/job_spec.h"
#include "stream/streaming_dataset.h"

namespace gsmb {

/// The loaded dataset of a job: one or two collections plus ground truth.
struct JobInputs {
  EntityCollection e1;
  EntityCollection e2;  // empty for Dirty ER
  bool dirty = false;
  GroundTruth ground_truth{false};

  const std::string& ExternalLeftId(EntityId id) const {
    return e1[id].external_id();
  }
  const std::string& ExternalRightId(EntityId id) const {
    return dirty ? e1[id].external_id() : e2[id].external_id();
  }
};

/// Canonical cache identity of a preparation: the spec's dataset+blocking
/// sections as single-line canonical JSON. Two specs with equal keys imply
/// bit-identical preparations; unrelated sections (features, pruning,
/// training, execution, output) never enter the key.
std::string PrepareCacheKey(const JobSpec& spec);

class PreparedInputs {
 public:
  /// The O(|C|) array only the batch backend reads: the materialised
  /// candidate set, the executor's resident pair list. (Its labels are
  /// stream.positive_indices.)
  struct BatchArrays {
    std::vector<CandidatePair> pairs;
    /// One-off cost of materialising these arrays, seconds.
    double materialize_seconds = 0.0;
  };

  /// Profiles + ground truth, exactly as a backend would have loaded them.
  JobInputs inputs;
  /// The counting preparation: blocks after purging/filtering, the global
  /// EntityIndex, block stats, blocking quality, and the per-pivot prefix
  /// offsets that let any backend enumerate the candidate space.
  StreamingDataset stream;
  /// PrepareCacheKey(spec) of the spec this was prepared from.
  std::string cache_key;
  /// Wall-clock cost of the preparation (load + block + count), seconds.
  /// Feeds JobResult::blocking_seconds through api::ApplyPhaseTimings —
  /// the single-source writer of every backend's timing fields — as the
  /// one-off cost of the handle, not of the call. (The batch arrays'
  /// materialize_seconds is reported as generate_seconds, the same phase
  /// that cost lands in when streaming regenerates pairs per shard.)
  double prepare_seconds = 0.0;
  /// Content fingerprint of the loaded dataset (obs::DatasetFingerprint):
  /// profiles + ground truth, independent of how they were loaded.
  /// Flows into JobResult and run reports (gsmb/report.h).
  uint64_t dataset_fingerprint = 0;
  /// Digest of the blocked representation (obs::PreparedStreamDigest):
  /// post-purge/filter blocks + candidate count. Equal digests imply the
  /// same candidate space — the artifact ROADMAP item 1's prepared
  /// snapshots and golden-preparation diffs verify against.
  uint64_t prepared_digest = 0;

  uint64_t num_candidates() const { return stream.num_candidates(); }

  /// Lazily materialises (at most once per handle, thread-safe) and returns
  /// the batch arrays. Streaming and serving never call it.
  const BatchArrays& Batch(size_t num_threads) const;

  /// True once Batch() has materialised the O(|C|) arrays.
  bool batch_materialized() const {
    return batch_ready_.load(std::memory_order_acquire);
  }

  /// Approximate resident bytes of this handle (profiles, blocks, index,
  /// counting arrays, plus the batch arrays when materialised). Drives the
  /// prepare cache's byte-budget eviction; an estimate, not an audit.
  size_t ApproxBytes() const;

 private:
  mutable std::once_flag batch_once_;
  mutable BatchArrays batch_;
  mutable std::atomic<bool> batch_ready_{false};
};

/// How Prepare hands out preparations: shared and immutable. A handle keeps
/// its preparation alive even after the cache evicts it.
using PreparedHandle = std::shared_ptr<const PreparedInputs>;

/// Counters of the engine-level prepare cache (see Engine::Prepare).
struct PrepareCacheStats {
  size_t hits = 0;       ///< Prepare() calls served from the cache
  size_t misses = 0;     ///< preparations actually built
  size_t evictions = 0;  ///< entries dropped by the LRU policy
  size_t entries = 0;    ///< currently cached preparations
  size_t bytes = 0;      ///< ApproxBytes() over current entries
};

}  // namespace gsmb

#endif  // GSMB_API_PREPARED_H_
