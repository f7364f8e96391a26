#include "gsmb/engine.h"

#include <exception>
#include <filesystem>
#include <stdexcept>
#include <future>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "api/backends.h"
#include "datasets/clean_clean_generator.h"
#include "datasets/dirty_generator.h"
#include "datasets/io.h"
#include "datasets/specs.h"
#include "gsmb/digest.h"
#include "gsmb/log.h"
#include "gsmb/telemetry.h"
#include "schemes/scheme_registry.h"
#include "stream/streaming_executor.h"
#include "util/csv.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace gsmb {

namespace api {

namespace {

Result<EntityCollection> LoadProfilesChecked(const std::string& path,
                                             const std::string& role) {
  if (!std::filesystem::exists(path)) {
    return Status::NotFound(role + " dataset path does not exist: " + path);
  }
  EntityCollection collection = LoadCollectionCsv(path, role);
  if (collection.empty()) {
    return Status::InvalidArgument(role + " dataset " + path +
                                   " parses to zero profiles");
  }
  return collection;
}

Result<JobInputs> LoadCsvInputs(const JobSpec& spec) {
  JobInputs inputs;
  inputs.dirty = spec.dataset.e2.empty();

  Result<EntityCollection> e1 =
      LoadProfilesChecked(spec.dataset.e1, "dataset.e1");
  if (!e1.ok()) return e1.status();
  inputs.e1 = std::move(*e1);

  if (!inputs.dirty) {
    Result<EntityCollection> e2 =
        LoadProfilesChecked(spec.dataset.e2, "dataset.e2");
    if (!e2.ok()) return e2.status();
    inputs.e2 = std::move(*e2);
  }

  if (!std::filesystem::exists(spec.dataset.ground_truth)) {
    return Status::NotFound("dataset.ground_truth path does not exist: " +
                            spec.dataset.ground_truth);
  }
  inputs.ground_truth =
      LoadGroundTruthCsv(spec.dataset.ground_truth, inputs.e1,
                         inputs.dirty ? inputs.e1 : inputs.e2, inputs.dirty);
  return inputs;
}

Result<JobInputs> GenerateInputs(const JobSpec& spec) {
  JobInputs inputs;
  if (spec.dataset.source == DatasetSource::kGeneratedCleanClean) {
    inputs.dirty = false;
    CleanCleanSpec generator_spec;
    try {
      generator_spec =
          CleanCleanSpecByName(spec.dataset.name, spec.dataset.scale);
    } catch (const std::exception& e) {
      return Status::NotFound(std::string("dataset.name: ") + e.what());
    }
    GeneratedCleanClean data = CleanCleanGenerator().Generate(generator_spec);
    inputs.e1 = std::move(data.e1);
    inputs.e2 = std::move(data.e2);
    inputs.ground_truth = std::move(data.ground_truth);
    return inputs;
  }

  inputs.dirty = true;
  for (const DirtySpec& candidate : PaperDirtySpecs(spec.dataset.scale)) {
    if (candidate.name == spec.dataset.name) {
      GeneratedDirty data = DirtyGenerator().Generate(candidate);
      inputs.e1 = std::move(data.entities);
      inputs.ground_truth = std::move(data.ground_truth);
      return inputs;
    }
  }
  return Status::NotFound("dataset.name: unknown dirty dataset spec '" +
                          spec.dataset.name +
                          "' (expected one of D10K..D300K)");
}

}  // namespace

Result<JobInputs> LoadJobInputs(const JobSpec& spec) {
  if (spec.dataset.source == DatasetSource::kCsv) return LoadCsvInputs(spec);
  return GenerateInputs(spec);
}

Result<PreparedHandle> BuildPreparedInputs(const JobSpec& spec) {
  try {
    // The child spans carry perfbench's layer names: datasets.load, then
    // blocking (schemes.build, blocking.purge, blocking.filter), then
    // stream.index_count and obs.digest.
    GSMB_SPAN("prepare");
    auto prepared = std::make_shared<PreparedInputs>();
    {
      GSMB_SPAN("datasets.load");
      Result<JobInputs> inputs = LoadJobInputs(spec);
      if (!inputs.ok()) return inputs.status();
      prepared->inputs = std::move(*inputs);
    }
    Stopwatch watch;
    BlockCollection blocks = [&] {
      GSMB_SPAN("blocking");
      return BuildPreprocessedBlocks(spec, prepared->inputs);
    }();
    {
      GSMB_SPAN("stream.index_count");
      prepared->stream = PrepareStreamingFromBlocks(
          "job", std::move(blocks), prepared->inputs.ground_truth,
          ResolvedExecution(spec).num_threads);
    }
    prepared->prepare_seconds = watch.ElapsedSeconds();
    prepared->cache_key = PrepareCacheKey(spec);
    {
      // Provenance: fingerprint the inputs and the blocked representation
      // while both are hot. One-off per preparation, shared by every run
      // and sweep variant through the cache.
      GSMB_SPAN("obs.digest");
      prepared->dataset_fingerprint =
          obs::DatasetFingerprint(prepared->inputs);
      prepared->prepared_digest = obs::PreparedStreamDigest(prepared->stream);
    }
    GSMB_LOG_INFO("prepare.done",
                  {"candidates", prepared->num_candidates()},
                  {"blocks", prepared->stream.blocks.size()},
                  {"seconds", prepared->prepare_seconds},
                  {"dataset_fingerprint",
                   obs::DigestHex(prepared->dataset_fingerprint)},
                  {"prepared_digest",
                   obs::DigestHex(prepared->prepared_digest)});
    return PreparedHandle(std::move(prepared));
  } catch (const std::exception& e) {
    return Status::Internal(std::string("preparation failed: ") + e.what());
  }
}

BlockCollection BuildPreprocessedBlocks(const JobSpec& spec,
                                        const JobInputs& inputs) {
  const size_t threads = ResolvedExecution(spec).num_threads;
  // Every engine path validates the spec before preparing, so the lookup
  // cannot miss; the throw converts to a Status in BuildPreparedInputs.
  const schemes::Blocker* blocker =
      schemes::FindBlocker(spec.blocking.scheme);
  if (blocker == nullptr) {
    throw std::runtime_error("blocking scheme '" + spec.blocking.scheme +
                             "' is not registered");
  }
  BlockCollection raw = [&] {
    GSMB_SPAN("schemes.build");
    return blocker->Build(inputs, spec.blocking, threads);
  }();
  return PreprocessBlocks(std::move(raw), BlockingOptionsFromSpec(spec));
}

ExecutionOptions ResolvedExecution(const JobSpec& spec) {
  ExecutionOptions options = spec.execution.options;
  if (options.num_threads == 0) options.num_threads = HardwareThreads();
  return options;
}

BlockingOptions BlockingOptionsFromSpec(const JobSpec& spec) {
  BlockingOptions options;
  options.min_token_length = spec.blocking.min_token_length;
  options.purge_size_fraction = spec.blocking.purge_size_fraction;
  options.filter_ratio = spec.blocking.filter_ratio;
  options.execution = ResolvedExecution(spec);
  return options;
}

MetaBlockingConfig ConfigFromSpec(const JobSpec& spec) {
  MetaBlockingConfig config;
  config.features = spec.features;
  config.classifier = spec.classifier;
  config.pruning = spec.pruning.kind;
  config.train_per_class = spec.training.labels_per_class;
  config.seed = spec.training.seed;
  config.blast_ratio = spec.pruning.blast_ratio;
  config.validity_threshold = spec.pruning.validity_threshold;
  config.execution = ResolvedExecution(spec);
  return config;
}

uint64_t EstimateCandidateBytes(uint64_t num_candidates,
                                size_t feature_dims) {
  // The same model StreamingExecutor::PlanShards sizes its shards with.
  return num_candidates * StreamingArenaBytesPerPair(feature_dims);
}

Result<std::ofstream> OpenRetainedCsv(const std::string& path) {
  // Binary mode everywhere, so every backend's CSV is byte-identical on
  // every platform.
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::NotFound("cannot write output.retained_csv: " + path);
  }
  out << "left_id,right_id\n";
  return out;
}

void AppendRetainedCsvRow(std::ofstream& out, const std::string& left_id,
                          const std::string& right_id) {
  out << EscapeCsvField(left_id) << ',' << EscapeCsvField(right_id) << '\n';
}

Status FinishRetainedCsv(std::ofstream& out, const std::string& path) {
  out.close();
  if (!out) {
    return Status::Internal("error writing output.retained_csv: " + path);
  }
  return Status::Ok();
}

void ApplyPhaseTimings(const obs::PhaseTimings& phases,
                       double prepare_seconds, JobResult* result) {
  result->blocking_seconds =
      prepare_seconds + phases.Get(obs::Phase::kBlocking);
  result->generate_seconds = phases.Get(obs::Phase::kPairs);
  result->feature_seconds = phases.Get(obs::Phase::kFeatures);
  result->train_seconds = phases.Get(obs::Phase::kTrain);
  result->classify_seconds = phases.Get(obs::Phase::kClassify);
  result->prune_seconds = phases.Get(obs::Phase::kPrune);
  result->total_seconds = result->generate_seconds +
                          result->feature_seconds + result->train_seconds +
                          result->classify_seconds + result->prune_seconds;

  // The per-run metric snapshot: counters from this run's own numbers and
  // a `phase.<name>.seconds` gauge per canonical phase — built from job
  // state only, so concurrent sweep variants never mix.
  obs::MetricsSnapshot& t = result->telemetry;
  t.counters["pairs.generated"] = result->num_candidates;
  t.counters["pairs.retained"] = result->metrics.retained;
  t.counters["pairs.true_positives"] = result->metrics.true_positives;
  t.counters["blocks.kept"] = result->num_blocks;
  t.counters["training.size"] = result->training_size;
  t.gauges["phase.prepare.seconds"] = result->blocking_seconds;
  for (int i = 0; i < obs::kPhaseCount; ++i) {
    auto phase = static_cast<obs::Phase>(i);
    t.gauges[std::string("phase.") + obs::PhaseName(phase) + ".seconds"] =
        phase == obs::Phase::kBlocking ? result->blocking_seconds
                                       : phases.Get(phase);
  }
}

}  // namespace api

// ---------------------------------------------------------------------------
// Executor defaults
// ---------------------------------------------------------------------------

Result<JobResult> Executor::ExecutePrepared(const JobSpec&,
                                            const PreparedInputs&) const {
  return Status::Unimplemented(
      "backend '" + name() +
      "' does not implement ExecutePrepared (AcceptsPrepared() is false)");
}

// ---------------------------------------------------------------------------
// The prepare cache: LRU over shared, immutable preparations
// ---------------------------------------------------------------------------

struct Engine::PrepareCache {
  struct Slot {
    /// Shared by every Prepare() of this key: concurrent callers of a
    /// still-building preparation block on the future and come back with
    /// the SAME handle the builder produced.
    std::shared_future<Result<PreparedHandle>> future;
    /// LRU clock; larger = more recently used.
    uint64_t last_used = 0;
    bool ready = false;  // future carries a value (ok or failed)
  };

  mutable std::mutex mutex;
  std::unordered_map<std::string, Slot> slots;
  uint64_t clock = 0;
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;

  /// Estimated resident bytes over READY, successful slots. Called under
  /// the mutex.
  size_t BytesLocked() const {
    size_t total = 0;
    for (const auto& [key, slot] : slots) {
      if (!slot.ready) continue;
      const Result<PreparedHandle>& result = slot.future.get();
      if (result.ok()) total += (*result)->ApproxBytes();
    }
    return total;
  }

  /// Drops least-recently-used ready slots until both budgets hold.
  /// `keep` (the slot just inserted or touched) is evicted only when it is
  /// the last one standing and still violates a budget — a cache that
  /// cannot hold even one entry degrades to pass-through, not to failure.
  void EvictLocked(const EngineOptions& options, const std::string& keep) {
    const size_t budget_bytes = options.prepare_cache_budget_mb << 20;
    while (slots.size() > 1 &&
           ((options.prepare_cache_max_entries > 0 &&
             slots.size() > options.prepare_cache_max_entries) ||
            (budget_bytes > 0 && BytesLocked() > budget_bytes))) {
      auto victim = slots.end();
      for (auto it = slots.begin(); it != slots.end(); ++it) {
        if (!it->second.ready || it->first == keep) continue;
        if (victim == slots.end() ||
            it->second.last_used < victim->second.last_used) {
          victim = it;
        }
      }
      if (victim == slots.end()) break;  // only in-flight slots left
      slots.erase(victim);
      ++evictions;
    }
    if (slots.size() == 1 && budget_bytes > 0 &&
        BytesLocked() > budget_bytes) {
      slots.clear();
      ++evictions;
    }
  }
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine() : Engine(EngineOptions{}) {}

Engine::Engine(EngineOptions options)
    : options_(options), cache_(std::make_unique<PrepareCache>()) {
  executors_.push_back(api::MakeBatchBackend());
  executors_.push_back(api::MakeStreamingBackend());
  executors_.push_back(api::MakeServingBackend());
}

Engine::~Engine() = default;

Status Engine::Register(std::unique_ptr<Executor> executor) {
  if (executor == nullptr) {
    return Status::InvalidArgument("Register: executor is null");
  }
  if (FindBackend(executor->name()) != nullptr) {
    return Status::InvalidArgument("Register: a backend named '" +
                                   executor->name() +
                                   "' is already registered");
  }
  executors_.push_back(std::move(executor));
  return Status::Ok();
}

std::vector<std::string> Engine::BackendNames() const {
  std::vector<std::string> names;
  names.reserve(executors_.size());
  for (const auto& executor : executors_) names.push_back(executor->name());
  return names;
}

const Executor* Engine::FindBackend(const std::string& name) const {
  for (const auto& executor : executors_) {
    if (executor->name() == name) return executor.get();
  }
  return nullptr;
}

Result<PreparedHandle> Engine::Prepare(const JobSpec& spec) const {
  Status valid = spec.Validate();
  if (!valid.ok()) return valid;

  // max_entries == 0 disables the cache: build fresh, count the miss.
  if (options_.prepare_cache_max_entries == 0) {
    {
      std::lock_guard<std::mutex> lock(cache_->mutex);
      ++cache_->misses;
    }
    obs::CounterAdd("prepare.cache.miss");
    return api::BuildPreparedInputs(spec);
  }

  const std::string key = PrepareCacheKey(spec);
  std::promise<Result<PreparedHandle>> promise;
  std::shared_future<Result<PreparedHandle>> pending;
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(cache_->mutex);
    auto it = cache_->slots.find(key);
    if (it != cache_->slots.end()) {
      ++cache_->hits;
      it->second.last_used = ++cache_->clock;
      pending = it->second.future;
      hit = true;
    } else {
      ++cache_->misses;
      PrepareCache::Slot slot;
      slot.future = promise.get_future().share();
      slot.last_used = ++cache_->clock;
      cache_->slots.emplace(key, std::move(slot));
    }
  }
  obs::CounterAdd(hit ? "prepare.cache.hit" : "prepare.cache.miss");
  GSMB_LOG_DEBUG("prepare.cache", {"hit", hit});
  // Wait outside the lock: a still-building preparation must not serialize
  // unrelated Prepare() calls. Racers of one build share ONE handle.
  if (hit) return pending.get();

  Result<PreparedHandle> built = api::BuildPreparedInputs(spec);
  promise.set_value(built);
  {
    std::lock_guard<std::mutex> lock(cache_->mutex);
    auto it = cache_->slots.find(key);
    if (it != cache_->slots.end()) {
      if (built.ok()) {
        it->second.ready = true;
        cache_->EvictLocked(options_, key);
      } else {
        // Failures are never cached: the next Prepare retries (the file
        // may exist by then). Racers already holding the future still see
        // this failure — correct, they raced the same broken build.
        cache_->slots.erase(it);
      }
    }
  }
  return built;
}

Status Engine::AdoptPrepared(PreparedHandle prepared) const {
  if (prepared == nullptr) {
    return Status::InvalidArgument("AdoptPrepared: handle is null");
  }
  if (prepared->cache_key.empty()) {
    return Status::InvalidArgument(
        "AdoptPrepared: the handle carries no cache key");
  }
  if (options_.prepare_cache_max_entries == 0) {
    return Status::FailedPrecondition(
        "AdoptPrepared: the prepare cache is disabled "
        "(prepare_cache_max_entries is 0), so an adopted handle could "
        "never be served");
  }
  const std::string key = prepared->cache_key;
  std::promise<Result<PreparedHandle>> promise;
  promise.set_value(Result<PreparedHandle>(std::move(prepared)));
  {
    std::lock_guard<std::mutex> lock(cache_->mutex);
    // An existing slot (ready or in flight) wins: by the cache-key
    // contract it holds a bit-identical preparation already.
    if (cache_->slots.find(key) != cache_->slots.end()) return Status::Ok();
    PrepareCache::Slot slot;
    slot.future = promise.get_future().share();
    slot.ready = true;
    slot.last_used = ++cache_->clock;
    cache_->slots.emplace(key, std::move(slot));
    cache_->EvictLocked(options_, key);
  }
  GSMB_LOG_DEBUG("prepare.cache.adopt", {"key", key});
  return Status::Ok();
}

std::string Engine::ResolveMode(const JobSpec& spec,
                                const PreparedInputs& prepared) const {
  if (spec.execution.mode != ExecutionMode::kAuto) {
    return ExecutionModeName(spec.execution.mode);
  }
  // `auto`: the prepared handle already counted the candidates, so the
  // resolution is the same cheap arithmetic on cold and cached paths —
  // budget vs the arena-bytes model the streaming executor shards with.
  const uint64_t budget_bytes =
      static_cast<uint64_t>(spec.execution.memory_budget_mb) << 20;
  const uint64_t estimated = api::EstimateCandidateBytes(
      prepared.num_candidates(), spec.features.Dimensions());
  return budget_bytes > 0 && estimated > budget_bytes ? "streaming" : "batch";
}

Result<JobResult> Engine::Execute(const JobSpec& spec,
                                  const PreparedInputs& prepared) const {
  Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  if (PrepareCacheKey(spec) != prepared.cache_key) {
    return Status::InvalidArgument(
        "Execute: the spec's dataset/blocking sections do not match the "
        "prepared handle (prepared for " + prepared.cache_key + ")");
  }
  const std::string name = ResolveMode(spec, prepared);
  const Executor* executor = FindBackend(name);
  if (executor == nullptr) {
    return Status::NotFound("no backend named '" + name + "' is registered");
  }
  Status supported = executor->Supports(spec);
  if (!supported.ok()) return supported;
  try {
    if (!executor->AcceptsPrepared()) {
      // Executors that load their own inputs (custom registrations) run
      // their legacy path; the handle stays untouched.
      return executor->Execute(spec);
    }
    Result<JobResult> result = executor->ExecutePrepared(spec, prepared);
    // Lazy materialisation (the batch O(|C|) arrays) can grow a cached
    // entry after its insert-time budget check; re-enforce now.
    EnforcePrepareBudget();
    return result;
  } catch (const std::exception& e) {
    return Status::Internal("backend '" + name + "' failed: " + e.what());
  }
}

void Engine::EnforcePrepareBudget() const {
  std::lock_guard<std::mutex> lock(cache_->mutex);
  cache_->EvictLocked(options_, /*keep=*/"");
}

PrepareCacheStats Engine::prepare_cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_->mutex);
  PrepareCacheStats stats;
  stats.hits = cache_->hits;
  stats.misses = cache_->misses;
  stats.evictions = cache_->evictions;
  stats.entries = cache_->slots.size();
  stats.bytes = cache_->BytesLocked();
  return stats;
}

Result<JobResult> Engine::Dispatch(const Executor& executor,
                                   const JobSpec& spec) const {
  Status supported = executor.Supports(spec);
  if (!supported.ok()) return supported;
  try {
    if (executor.AcceptsPrepared()) {
      // The staged path: prepare through the cache, execute against the
      // shared handle. Run() is exactly Prepare + ExecutePrepared.
      Result<PreparedHandle> prepared = Prepare(spec);
      if (!prepared.ok()) return prepared.status();
      Result<JobResult> result = executor.ExecutePrepared(spec, **prepared);
      // Lazy materialisation can grow the cached entry past its
      // insert-time budget check; re-enforce now.
      EnforcePrepareBudget();
      return result;
    }
    // Executors that load their own inputs (custom registrations).
    return executor.Execute(spec);
  } catch (const std::exception& e) {
    return Status::Internal("backend '" + executor.name() +
                            "' failed: " + e.what());
  }
}

Result<JobResult> Engine::RunOn(const std::string& backend,
                                const JobSpec& spec) const {
  Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  const Executor* executor = FindBackend(backend);
  if (executor == nullptr) {
    std::string known;
    for (const std::string& name : BackendNames()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return Status::NotFound("no backend named '" + backend +
                            "' is registered (have: " + known + ")");
  }
  return Dispatch(*executor, spec);
}

Result<JobResult> Engine::Run(const JobSpec& spec) const {
  Status valid = spec.Validate();
  if (!valid.ok()) return valid;

  if (spec.execution.mode != ExecutionMode::kAuto) {
    return RunOn(ExecutionModeName(spec.execution.mode), spec);
  }

  // ---- `auto`: prepare once (cached), then pick batch or streaming. ----
  // The counting preparation derives the candidate cardinality without
  // materialising any O(|C|) array; the SAME handle then feeds whichever
  // backend wins — nothing is prepared twice, and a cached handle resolves
  // identically to a cold one.
  Result<PreparedHandle> prepared = Prepare(spec);
  if (!prepared.ok()) return prepared.status();
  return Execute(spec, **prepared);
}

Result<JobResult> Engine::RunFile(const std::string& path) const {
  Result<JobSpec> spec = JobSpec::FromFile(path);
  if (!spec.ok()) return spec.status();
  return Run(*spec);
}

Result<MetaBlockingSession> Engine::OpenSession(const JobSpec& spec) const {
  Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  const Executor* serving = FindBackend("serving");
  if (serving == nullptr) {
    return Status::NotFound("no serving backend is registered");
  }
  Status supported = serving->Supports(spec);
  if (!supported.ok()) return supported;
  try {
    // Prepare through the cache: the session's bootstrap training samples
    // the handle's counting preparation, and a later Run() of the same
    // spec reuses the same preparation.
    Result<PreparedHandle> prepared = Prepare(spec);
    if (!prepared.ok()) return prepared.status();
    return api::BuildServingSession(spec, **prepared,
                                    /*cold_build_universe=*/false);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("OpenSession failed: ") + e.what());
  }
}

}  // namespace gsmb
