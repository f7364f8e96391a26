#include "schemes/minhash_lsh.h"

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "blocking/key_blocking.h"
#include "gsmb/job_spec.h"
#include "util/random.h"

namespace gsmb::schemes {

namespace {

// FNV-1a, 64 bit: a fixed, platform-independent string hash (std::hash
// makes no cross-platform promise, which would break digest stability).
uint64_t Fnv1a(const void* data, size_t size, uint64_t state) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= 1099511628211ULL;
  }
  return state;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

/// One minwise hash function: an odd multiplier + offset over the token's
/// base hash (multiply-shift family; wrapping uint64 arithmetic).
struct HashParams {
  uint64_t multiplier;
  uint64_t offset;
};

std::vector<HashParams> MakeHashFamily(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<HashParams> family(count);
  for (HashParams& params : family) {
    // NextUint64's bound is exclusive, so max() draws from the full range
    // minus one value — immaterial for a hash family.
    params.multiplier =
        rng.NextUint64(std::numeric_limits<uint64_t>::max()) | 1ULL;
    params.offset = rng.NextUint64(std::numeric_limits<uint64_t>::max());
  }
  return family;
}

/// Per-profile bucket keys: minhash signature over the token set, one key
/// per band ("b<band>#<band digest in hex>"). A profile with no tokens gets
/// no keys (and therefore lands in no block).
KeyFunction BucketKeys(std::vector<HashParams> family, size_t bands,
                       size_t rows, size_t min_token_length) {
  return [family = std::move(family), bands, rows,
          min_token_length](const EntityProfile& p, KeySink* sink) {
    std::vector<uint64_t> base;
    for (const std::string& token : p.DistinctValueTokens()) {
      if (token.size() < min_token_length) continue;
      base.push_back(Fnv1a(token.data(), token.size(), kFnvOffset));
    }
    if (base.empty()) return;

    std::vector<uint64_t> signature(family.size());
    for (size_t h = 0; h < family.size(); ++h) {
      uint64_t best = std::numeric_limits<uint64_t>::max();
      for (uint64_t token_hash : base) {
        const uint64_t value =
            token_hash * family[h].multiplier + family[h].offset;
        if (value < best) best = value;
      }
      signature[h] = best;
    }

    for (size_t band = 0; band < bands; ++band) {
      const uint64_t digest =
          Fnv1a(signature.data() + band * rows, rows * sizeof(uint64_t),
                kFnvOffset);
      char key[48];
      const int length =
          std::snprintf(key, sizeof(key), "b%zu#%016llx", band,
                        static_cast<unsigned long long>(digest));
      sink->Add(std::string_view(key, static_cast<size_t>(length)));
    }
  };
}

}  // namespace

const char* MinHashLshBlocker::name() const { return kSchemeMinHashLsh; }

const char* MinHashLshBlocker::description() const {
  return "banded LSH over per-entity minhash signatures "
         "(blocking.lsh_bands x blocking.lsh_rows, seeded by "
         "blocking.minhash_seed)";
}

Status MinHashLshBlocker::ValidateParams(const BlockingSpec& blocking) const {
  if (blocking.lsh_bands < 1) {
    return Status::InvalidArgument("blocking.lsh_bands must be >= 1");
  }
  if (blocking.lsh_rows < 1) {
    return Status::InvalidArgument("blocking.lsh_rows must be >= 1");
  }
  return Status::Ok();
}

BlockCollection MinHashLshBlocker::Build(const JobInputs& inputs,
                                         const BlockingSpec& blocking,
                                         size_t num_threads) const {
  const KeyFunction keys = BucketKeys(
      MakeHashFamily(blocking.minhash_seed,
                     blocking.lsh_bands * blocking.lsh_rows),
      blocking.lsh_bands, blocking.lsh_rows, blocking.min_token_length);
  if (inputs.dirty) {
    return BuildKeyBlocksDirty(inputs.e1, keys, num_threads);
  }
  return BuildKeyBlocksCleanClean(inputs.e1, inputs.e2, keys, num_threads);
}

}  // namespace gsmb::schemes
