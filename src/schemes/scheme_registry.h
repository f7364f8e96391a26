// The blocking-scheme registry (ROADMAP item 3).
//
// Mirrors the Executor registry of gsmb::Engine: a Blocker is a named
// strategy that turns loaded JobInputs into a raw BlockCollection. Because
// every scheme emits the same collection type, anything downstream —
// purging/filtering, all 8 pruning kinds, the batch/streaming/serving
// backends and prepared-input caching/snapshots — composes with a new
// scheme untouched.
//
// Contract for every registered scheme:
//   * Build() is deterministic: bit-identical output for any num_threads
//     (parallelise with fixed-grain chunks folded in chunk order, blocks
//     emitted in a sorted order — see blocking/key_blocking.cc).
//   * Randomness (e.g. the MinHash hash family) is seeded from the spec
//     and routed through util/random.
//   * ValidateParams() rejects out-of-range per-scheme params with a
//     "where and why" diagnostic; it never silently clamps or ignores.
//
// The registry is process-global and append-only: built-in schemes
// (token, qgram, suffix, sorted-neighborhood, dynamic-sorted-neighborhood,
// attribute-clustering, minhash-lsh) self-register on first lookup, and
// Blocker pointers returned by FindBlocker stay valid for the process
// lifetime.

#ifndef GSMB_SCHEMES_SCHEME_REGISTRY_H_
#define GSMB_SCHEMES_SCHEME_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "blocking/block_collection.h"
#include "gsmb/prepared.h"
#include "gsmb/status.h"

namespace gsmb::schemes {

/// One blocking scheme: a named, parameterised BlockCollection builder.
class Blocker {
 public:
  virtual ~Blocker() = default;

  /// Registry name; also the JobSpec.blocking.scheme spelling.
  virtual const char* name() const = 0;

  /// One-line human description (`gsmb_cli explain` prints it).
  virtual const char* description() const = 0;

  /// Validates the per-scheme params in `blocking`. Params of other
  /// schemes are none of this scheme's business; globals (purging,
  /// filtering) are validated by JobSpec::Validate itself.
  virtual Status ValidateParams(const BlockingSpec& blocking) const = 0;

  /// Builds the raw (pre-purging/filtering) block collection.
  /// Deterministic: bit-identical for any num_threads.
  virtual BlockCollection Build(const JobInputs& inputs,
                                const BlockingSpec& blocking,
                                size_t num_threads) const = 0;
};

/// Registers a scheme under blocker->name(). InvalidArgument when the name
/// is taken — two schemes must never shadow each other silently.
Status RegisterBlocker(std::unique_ptr<Blocker> blocker);

/// Named lookup; nullptr when unknown. Never invalidated.
const Blocker* FindBlocker(const std::string& name);

/// Sorted names of every registered scheme.
std::vector<std::string> BlockerNames();

/// "token | qgram | ..." — BlockerNames() joined for diagnostics.
std::string BlockerNamesJoined();

}  // namespace gsmb::schemes

#endif  // GSMB_SCHEMES_SCHEME_REGISTRY_H_
