// Shared machinery for key-based, redundancy-positive blocking methods.
//
// Token, Q-Grams and Suffix Arrays blocking, attribute-clustering blocking
// and MinHash-LSH blocking all follow the same recipe: derive a set of keys
// per profile, then create one block per key. They differ only in the key
// function, so they share this builder.
//
// The builder sort-merges. Profiles split into fixed-grain chunks; each
// chunk writes its keys into its own byte arena, sorts its (key, id) rows
// into a run and drops repeated rows. The runs then merge in parallel over
// key ranges, ties broken by run order.

#ifndef GSMB_BLOCKING_KEY_BLOCKING_H_
#define GSMB_BLOCKING_KEY_BLOCKING_H_

#include <cstddef>
#include <functional>
#include <string_view>

#include "blocking/block_collection.h"
#include "er/entity_collection.h"

namespace gsmb {

/// Profiles per key-extraction chunk; every chunk becomes one sorted run.
inline constexpr size_t kKeyChunkGrain = 256;

/// One chunk's sorted (key, id) rows and their key arena (key_blocking.cc).
struct KeyRun;

/// Receives the blocking keys of the profile being scanned. Key bytes live
/// in the chunk's arena and are addressed by offset, so one stored token
/// can back many keys (each of its q-grams or suffixes) without a copy per
/// key. Offsets stay valid while the arena grows.
class KeySink {
 public:
  /// Appends `bytes` to the arena; returns the offset of the first byte.
  size_t Append(std::string_view bytes);
  /// As Append, with ASCII letters lower-cased.
  size_t AppendLower(std::string_view bytes);
  /// Emits the key made of the `length` arena bytes at `offset`.
  void Emit(size_t offset, size_t length);
  /// Emits a copy of `key`.
  void Add(std::string_view key) { Emit(Append(key), key.size()); }

 private:
  friend struct KeyRun;
  explicit KeySink(KeyRun* run) : run_(run) {}

  KeyRun* run_;
  EntityId id_ = 0;
};

/// Emits the blocking keys of one profile into `sink`. Keys may repeat
/// (the builder drops repeated keys of a profile) and their order is
/// irrelevant. Must be safe to call concurrently on distinct profiles: key
/// extraction parallelises over entity chunks.
using KeyFunction = std::function<void(const EntityProfile&, KeySink*)>;

/// Builds a Clean-Clean block collection: one block per key that appears in
/// *both* sources (keys confined to one source imply no comparison and are
/// dropped). Blocks are in lexicographic key order (bytes compared as
/// unsigned char, as std::string orders them), and each block's members
/// are distinct and ascending per source. Both orders hold for any
/// `num_threads`, so the collection is bit-identical for any thread count.
BlockCollection BuildKeyBlocksCleanClean(const EntityCollection& e1,
                                         const EntityCollection& e2,
                                         const KeyFunction& keys,
                                         size_t num_threads = 1);

/// As above, with a distinct key function per source. Attribute-clustering
/// blocking needs this: the cluster of an attribute name depends on which
/// collection it comes from.
BlockCollection BuildKeyBlocksCleanClean(const EntityCollection& e1,
                                         const EntityCollection& e2,
                                         const KeyFunction& keys1,
                                         const KeyFunction& keys2,
                                         size_t num_threads = 1);

/// Builds a Dirty block collection: one block per key shared by at least two
/// profiles of the single input collection, with the same key order, member
/// order and thread-count independence as above.
BlockCollection BuildKeyBlocksDirty(const EntityCollection& e,
                                    const KeyFunction& keys,
                                    size_t num_threads = 1);

}  // namespace gsmb

#endif  // GSMB_BLOCKING_KEY_BLOCKING_H_
