#include "schemes/scheme_registry.h"

#include <map>
#include <mutex>
#include <utility>

#include "blocking/qgram_blocking.h"
#include "blocking/suffix_blocking.h"
#include "blocking/token_blocking.h"
#include "gsmb/job_spec.h"
#include "schemes/attribute_clustering.h"
#include "schemes/minhash_lsh.h"
#include "schemes/sorted_neighborhood.h"
#include "util/string_utils.h"

namespace gsmb::schemes {

namespace {

// -- Adapters over the legacy key-blocking family ---------------------------
// token/qgram/suffix predate the registry; these adapters give them the
// same Blocker surface as the new schemes without touching src/blocking.

class TokenBlocker : public Blocker {
 public:
  const char* name() const override { return kSchemeToken; }
  const char* description() const override {
    return "one block per distinct value token (schema-agnostic, the "
           "paper's scheme; blocking.min_token_length)";
  }
  Status ValidateParams(const BlockingSpec&) const override {
    // min_token_length >= 1 is a cross-scheme global, checked by
    // JobSpec::Validate.
    return Status::Ok();
  }
  BlockCollection Build(const JobInputs& inputs, const BlockingSpec& blocking,
                        size_t num_threads) const override {
    const TokenBlocking scheme(blocking.min_token_length);
    return inputs.dirty ? scheme.Build(inputs.e1, num_threads)
                        : scheme.Build(inputs.e1, inputs.e2, num_threads);
  }
};

class QGramBlocker : public Blocker {
 public:
  const char* name() const override { return kSchemeQGram; }
  const char* description() const override {
    return "one block per overlapping character q-gram (blocking.qgram); "
           "robust to typos";
  }
  Status ValidateParams(const BlockingSpec& blocking) const override {
    if (blocking.qgram < 1) {
      return Status::InvalidArgument("blocking.qgram must be >= 1");
    }
    return Status::Ok();
  }
  BlockCollection Build(const JobInputs& inputs, const BlockingSpec& blocking,
                        size_t num_threads) const override {
    const QGramBlocking scheme(blocking.qgram);
    return inputs.dirty ? scheme.Build(inputs.e1, num_threads)
                        : scheme.Build(inputs.e1, inputs.e2, num_threads);
  }
};

class SuffixBlocker : public Blocker {
 public:
  const char* name() const override { return kSchemeSuffix; }
  const char* description() const override {
    return "one block per token suffix (blocking.suffix_min_length); "
           "blocks with more than blocking.suffix_max_block_size members, "
           "both sources together, are dropped";
  }
  Status ValidateParams(const BlockingSpec& blocking) const override {
    if (blocking.suffix_min_length < 1) {
      return Status::InvalidArgument(
          "blocking.suffix_min_length must be >= 1");
    }
    if (blocking.suffix_max_block_size < 2) {
      return Status::InvalidArgument(
          "blocking.suffix_max_block_size must be >= 2 (a block needs two "
          "members to imply a comparison)");
    }
    return Status::Ok();
  }
  BlockCollection Build(const JobInputs& inputs, const BlockingSpec& blocking,
                        size_t num_threads) const override {
    const SuffixBlocking scheme(blocking.suffix_min_length,
                                blocking.suffix_max_block_size);
    return inputs.dirty ? scheme.Build(inputs.e1, num_threads)
                        : scheme.Build(inputs.e1, inputs.e2, num_threads);
  }
};

// -- The registry ------------------------------------------------------------

using Registry = std::map<std::string, std::unique_ptr<Blocker>>;

std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

Registry& MutableRegistry() {
  static Registry registry;
  return registry;
}

Status RegisterLocked(std::unique_ptr<Blocker> blocker) {
  Registry& registry = MutableRegistry();
  const std::string name = blocker->name();
  if (registry.count(name) != 0) {
    return Status::InvalidArgument("blocking scheme '" + name +
                                   "' is already registered");
  }
  registry[name] = std::move(blocker);
  return Status::Ok();
}

/// Built-ins register on first registry access, so lookups work without an
/// init call and user registrations can never be shadowed by a late
/// built-in (AlreadyExists fires either way).
void EnsureBuiltins() {
  static const bool once = [] {
    (void)RegisterLocked(std::make_unique<TokenBlocker>());
    (void)RegisterLocked(std::make_unique<QGramBlocker>());
    (void)RegisterLocked(std::make_unique<SuffixBlocker>());
    (void)RegisterLocked(std::make_unique<SortedNeighborhoodBlocker>());
    (void)RegisterLocked(
        std::make_unique<DynamicSortedNeighborhoodBlocker>());
    (void)RegisterLocked(std::make_unique<AttributeClusteringBlocker>());
    (void)RegisterLocked(std::make_unique<MinHashLshBlocker>());
    return true;
  }();
  (void)once;
}

}  // namespace

Status RegisterBlocker(std::unique_ptr<Blocker> blocker) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  EnsureBuiltins();
  return RegisterLocked(std::move(blocker));
}

const Blocker* FindBlocker(const std::string& name) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  EnsureBuiltins();
  const Registry& registry = MutableRegistry();
  const auto it = registry.find(name);
  return it == registry.end() ? nullptr : it->second.get();
}

std::vector<std::string> BlockerNames() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  EnsureBuiltins();
  std::vector<std::string> names;
  names.reserve(MutableRegistry().size());
  for (const auto& [name, blocker] : MutableRegistry()) {
    names.push_back(name);
  }
  return names;  // std::map order: sorted.
}

std::string BlockerNamesJoined() { return Join(BlockerNames(), " | "); }

}  // namespace gsmb::schemes
