// Content digests for run provenance (gsmb/report.h).
//
// Every hash here is computed with in-repo, platform-stable primitives
// (FNV-1a 64 + a splitmix64-style finalizer) — never std::hash — so a
// digest written on one machine compares bit-identical on another. That
// stability is load-bearing: CI diffs freshly generated run reports
// against a committed golden report, and a prepared snapshot proves its
// load by recomputing the digests it was saved with.
//
// PairSetDigest is ORDER-INDEPENDENT: it folds per-pair hashes with
// commutative XOR and wrapping SUM (plus a count), so the digest of a
// retained set is identical no matter which thread, shard or backend
// emitted which pair — the digest equivalent of the retained-pair
// determinism contract. XOR alone would miss duplicated pairs and
// even-multiplicity swaps; SUM alone is weaker against crafted
// collisions; together with the count they make an accidental collision
// across backends implausible.

#ifndef GSMB_DIGEST_H_
#define GSMB_DIGEST_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace gsmb {

struct JobInputs;        // gsmb/prepared.h
struct StreamingDataset; // stream/streaming_dataset.h

namespace obs {

/// splitmix64-style finalizer: a stable, well-mixing 64-bit permutation.
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a 64 over bytes, folded into `seed`. Stable across platforms.
uint64_t HashBytes(std::string_view bytes, uint64_t seed);

/// Hash of one ordered (left, right) external-id pair. Left and right
/// are separated by an out-of-alphabet byte, so ("ab","c") and
/// ("a","bc") hash differently, and the pair is order-sensitive within
/// itself while PairSetDigest stays order-free across pairs.
uint64_t HashPair(std::string_view left, std::string_view right);

/// 16 lowercase hex characters, zero-padded — the serialized form of
/// every digest in reports and bench JSON.
std::string DigestHex(uint64_t value);

/// Order-independent digest of a set of pairs. Add pairs from any
/// thread interleaving (each accumulator is single-writer; merge shard
/// or thread locals with MergeFrom) — the final Value() depends only on
/// the multiset of pairs.
struct PairSetDigest {
  uint64_t xor_hash = 0;
  uint64_t sum_hash = 0;
  uint64_t count = 0;

  void Add(uint64_t pair_hash) {
    xor_hash ^= pair_hash;
    sum_hash += pair_hash;  // wraps mod 2^64; still commutative
    ++count;
  }
  void AddPair(std::string_view left, std::string_view right) {
    Add(HashPair(left, right));
  }
  void MergeFrom(const PairSetDigest& other) {
    xor_hash ^= other.xor_hash;
    sum_hash += other.sum_hash;
    count += other.count;
  }

  /// The folded 64-bit digest (mixes xor, sum and count).
  uint64_t Value() const {
    return Mix64(xor_hash ^ Mix64(sum_hash ^ Mix64(count)));
  }
  std::string Hex() const { return DigestHex(Value()); }

  bool operator==(const PairSetDigest& other) const = default;
};

/// Content fingerprint of a loaded dataset: every profile (external id +
/// attributes, in internal-id order), the dirty flag, and the ground
/// truth. Identical inputs => identical fingerprint, regardless of how
/// or where they were loaded.
uint64_t DatasetFingerprint(const JobInputs& inputs);

/// Digest of a preparation's blocked representation: the post-purge,
/// post-filter block collection (keys + member ids), its stats and the
/// candidate count. Two preparations with equal digests imply the same
/// candidate space.
uint64_t PreparedStreamDigest(const StreamingDataset& stream);

}  // namespace obs
}  // namespace gsmb

#endif  // GSMB_DIGEST_H_
