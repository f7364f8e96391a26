// gsmb::Engine — the one entry point over every execution backend.
//
// Before the facade the library exposed three divergent front doors:
// RunMetaBlocking (batch, core/), StreamingExecutor::Run (out-of-core,
// stream/) and MetaBlockingSession (incremental serving, serve/), each with
// its own config structs and error conventions. The Engine replaces that
// with one call:
//
//   gsmb::Engine engine;
//   gsmb::JobSpec spec = ...;                    // or JobSpec::FromFile()
//   gsmb::Result<gsmb::JobResult> result = engine.Run(spec);
//
// Backends implement the Executor interface and register by name; the spec
// selects one through execution.mode. `auto` resolves to streaming when the
// arena-bytes model (the same model the streaming executor sizes its shards
// with) says the in-memory candidate arrays would exceed
// execution.memory_budget_mb, and to batch otherwise.
//
// Staged execution. Run() is a thin Prepare + Execute composition:
// Prepare(spec) loads the dataset and builds the blocked representation —
// an immutable, shareable PreparedInputs handle served from an engine-level
// LRU cache keyed on the canonical JSON of the spec's dataset+blocking
// sections — and Execute(spec, prepared) runs the cheap per-configuration
// stages (features, train, classify, prune) against it. Repeated Run()s
// over the same dataset+blocking therefore prepare once; parameter sweeps
// are first-class through RunSweep (gsmb/sweep.h).
//
// Equivalence contract: for any spec every backend that Supports() it
// retains the SAME pairs. Batch and streaming are bit-identical by
// construction (they share the pruning aggregates and the training-sample
// replay). A serving cold build retains the same pairs when the spec is
// shard-pure-compatible — Dirty ER, token blocking, filter_ratio 1, a
// linear classifier — and execution.shards is 1; with more shards the
// session applies its documented per-shard union semantics instead.
// tests/api_engine_test.cc locks the three-way equivalence in for all 8
// pruning kinds; tests/api_prepare_test.cc locks cold == cached.

#ifndef GSMB_API_ENGINE_H_
#define GSMB_API_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "blocking/block_stats.h"
#include "core/pipeline.h"
#include "gsmb/job_spec.h"
#include "gsmb/prepared.h"
#include "gsmb/status.h"
#include "serve/session.h"

namespace gsmb {

struct SweepSpec;    // gsmb/sweep.h
struct SweepResult;  // gsmb/sweep.h

/// One retained comparison, by the profiles' external ids.
struct RetainedPair {
  std::string left;
  std::string right;

  bool operator==(const RetainedPair& other) const = default;
};

/// What a backend reports after running a job.
struct JobResult {
  /// Name of the executor that ran ("batch", "streaming", "serving").
  std::string backend;

  EffectivenessMetrics metrics;
  /// Candidate-set quality after blocking. The serving backend leaves this
  /// empty: a session never materialises the global candidate set.
  BlockingQuality blocking_quality;
  size_t num_blocks = 0;
  uint64_t num_candidates = 0;

  size_t training_size = 0;
  /// Classifier coefficients in raw feature space, intercept last (linear
  /// classifiers only).
  std::vector<double> model_coefficients;

  /// Run-time breakdown, seconds, single-sourced from the telemetry phase
  /// clock (obs::PhaseTimings through ApplyPhaseTimings) so every backend
  /// reports the same canonical phase set. `total_seconds` covers pairs +
  /// features + train + classify + prune (the paper's RT);
  /// `blocking_seconds` is reported separately, as the paper treats
  /// blocking as fixed preprocessing.
  double blocking_seconds = 0.0;
  /// Candidate-pair generation: streaming regenerates pairs per shard;
  /// batch reports the prepared handle's one-off candidate-array
  /// materialisation cost here.
  double generate_seconds = 0.0;
  double feature_seconds = 0.0;
  double train_seconds = 0.0;
  double classify_seconds = 0.0;
  double prune_seconds = 0.0;
  double total_seconds = 0.0;

  /// Execution shape: candidate-space slices (streaming) or key shards
  /// (serving); 1 for batch. `sweeps` = full passes over the candidate
  /// space (streaming only).
  size_t shards_used = 1;
  size_t sweeps = 0;

  /// Retained pairs by external id, in ascending (left, right) internal-id
  /// order. Populated only when spec.output.keep_retained is set.
  std::vector<RetainedPair> retained;
  /// Rows written to spec.output.retained_csv (0 when no path was given).
  size_t retained_csv_rows = 0;

  /// Per-run metric snapshot: counters derived from this run's own numbers
  /// (pairs.generated, pairs.retained, ...) plus `phase.<name>.seconds`
  /// gauges. Built per job, never from global state, so concurrent sweep
  /// variants carry independent, deterministic snapshots.
  obs::MetricsSnapshot telemetry;

  // -- Provenance (gsmb/digest.h, gsmb/report.h) ----------------------------

  /// Content fingerprint of the inputs this run consumed
  /// (obs::DatasetFingerprint over profiles + ground truth).
  uint64_t dataset_fingerprint = 0;
  /// Digest of the blocked preparation executed against
  /// (obs::PreparedStreamDigest). 0 for backends that never build the
  /// global blocked representation (serving builds per-shard sessions),
  /// and treated as "not applicable" by report comparison.
  uint64_t prepared_digest = 0;
  /// Order-independent digest of the retained-pair set
  /// (obs::PairSetDigest over external-id pairs). Computed by every
  /// backend on every run — with or without keep_retained or a CSV path —
  /// and bit-identical across backends, thread counts and shard counts
  /// whenever the retained sets match. This is the semantic-drift signal
  /// `gsmb_cli report diff` and bench_diff.py key on.
  uint64_t retained_digest = 0;
  /// Retained pairs behind `retained_digest` (|retained set|; also
  /// pairs.retained in `telemetry`).
  uint64_t retained_count = 0;
};

/// A registered execution backend. Implementations load the spec's dataset,
/// run the full pipeline and report a JobResult; they never call
/// std::exit() and never let an exception escape (the Engine converts any
/// that do into StatusCode::kInternal).
class Executor {
 public:
  virtual ~Executor() = default;

  /// Registry name; execution.mode values resolve to these.
  virtual std::string name() const = 0;

  /// OK when this backend can execute the (already Validate()d) spec;
  /// otherwise a diagnostic naming the offending setting and the fix.
  virtual Status Supports(const JobSpec& spec) const = 0;

  virtual Result<JobResult> Execute(const JobSpec& spec) const = 0;

  /// True when ExecutePrepared() is implemented. The Engine then prepares
  /// the spec (through its cache) and calls ExecutePrepared instead of
  /// Execute — the staged path all three standard backends take (serving
  /// trains its bootstrap model from the prepared handle; its session
  /// still tokenizes its own ingests). Backends that load their own inputs
  /// keep the default (the remote backend, custom executors).
  virtual bool AcceptsPrepared() const { return false; }

  /// Executes against an already-prepared input (same dataset+blocking as
  /// the spec). Must retain exactly the pairs Execute(spec) would.
  virtual Result<JobResult> ExecutePrepared(const JobSpec& spec,
                                            const PreparedInputs& prepared) const;
};

/// Construction-time knobs of the Engine's prepare cache.
struct EngineOptions {
  /// Approximate byte budget of cached preparations, in MiB; after an
  /// insert, least-recently-used entries are evicted until the estimated
  /// resident total fits. 0 = no byte budget.
  size_t prepare_cache_budget_mb = 1024;
  /// Upper bound on cached preparations (LRU beyond it). 0 disables
  /// caching entirely: Prepare() still works but every call builds fresh.
  size_t prepare_cache_max_entries = 16;
};

class Engine {
 public:
  /// Constructs with the three standard backends registered.
  Engine();
  explicit Engine(EngineOptions options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers an additional backend. Fails on a duplicate name — a new
  /// workload becomes a registration, never a fourth bespoke entry point.
  Status Register(std::unique_ptr<Executor> executor);

  /// Registered backend names, registration order.
  std::vector<std::string> BackendNames() const;
  /// nullptr when unknown.
  const Executor* FindBackend(const std::string& name) const;

  /// Validates the spec, resolves execution.mode (including `auto`) and
  /// dispatches — a thin Prepare + Execute composition, so repeated runs
  /// over one dataset+blocking reuse the cached preparation. All failures —
  /// validation, unsupported spec, missing files, internal errors — come
  /// back as the Result's Status.
  Result<JobResult> Run(const JobSpec& spec) const;

  /// Runs on an explicitly named backend, bypassing mode resolution (the
  /// spec's execution.mode is ignored). For registered custom backends and
  /// cross-backend comparison harnesses.
  Result<JobResult> RunOn(const std::string& backend,
                          const JobSpec& spec) const;

  /// Convenience: JobSpec::FromFile + Validate + Run.
  Result<JobResult> RunFile(const std::string& path) const;

  // -- Staged execution -------------------------------------------------------

  /// Loads the spec's dataset and builds the blocked representation,
  /// serving the handle from the engine's LRU cache when an equal
  /// dataset+blocking preparation is resident. Concurrent Prepare calls
  /// for the same key build once and share the handle. The returned handle
  /// outlives any later eviction.
  Result<PreparedHandle> Prepare(const JobSpec& spec) const;

  /// Runs the per-configuration stages of `spec` against an
  /// already-prepared input. The spec's dataset+blocking sections must
  /// match the handle's cache key (rejected otherwise — a spec must never
  /// silently execute against someone else's blocks). Resolves
  /// execution.mode exactly like Run(), including `auto`. A backend that
  /// does not AcceptsPrepared() (the remote backend, custom executors)
  /// runs its Execute(spec) path instead, loading its own inputs.
  Result<JobResult> Execute(const JobSpec& spec,
                            const PreparedInputs& prepared) const;

  /// Seeds the prepare cache with an externally built handle — e.g. one
  /// loaded from a prepared snapshot (gsmb/snapshot.h) — under the
  /// handle's own cache key, so later Run/Prepare/RunSweep calls over the
  /// same dataset+blocking hit the cache instead of rebuilding. This is
  /// how a distributed worker shares the coordinator's one preparation.
  /// Counts neither a hit nor a miss; a no-op when the key is already
  /// cached. Fails when the handle is null/keyless or the cache is
  /// disabled (prepare_cache_max_entries == 0).
  Status AdoptPrepared(PreparedHandle prepared) const;

  /// Expands the sweep's grid, prepares the shared dataset+blocking once
  /// (through the cache) and executes every variant in parallel against
  /// the shared handle. Per-variant failures are reported in the
  /// SweepResult, never aborting sibling variants. See gsmb/sweep.h.
  Result<SweepResult> RunSweep(const SweepSpec& sweep) const;

  /// Counters of the prepare cache (hits/misses/evictions, residency).
  PrepareCacheStats prepare_cache_stats() const;

  /// Builds a LIVE serving session from the spec (train model, ingest the
  /// dataset, refresh) for long-lived incremental use — the serve REPL and
  /// the incremental example sit on this. The spec must satisfy the
  /// serving backend's Supports().
  Result<MetaBlockingSession> OpenSession(const JobSpec& spec) const;

 private:
  struct PrepareCache;

  /// Supports() check + staged-or-legacy dispatch on one executor.
  Result<JobResult> Dispatch(const Executor& executor,
                             const JobSpec& spec) const;
  /// Re-runs the cache's eviction policy (lazy batch materialisation can
  /// grow an entry after its insert-time check).
  void EnforcePrepareBudget() const;
  /// The backend name `spec.execution.mode` resolves to; `auto` consults
  /// the arena-bytes model against `prepared`'s candidate count.
  std::string ResolveMode(const JobSpec& spec,
                          const PreparedInputs& prepared) const;

  EngineOptions options_;
  std::vector<std::unique_ptr<Executor>> executors_;
  std::unique_ptr<PrepareCache> cache_;
};

}  // namespace gsmb

#endif  // GSMB_API_ENGINE_H_
