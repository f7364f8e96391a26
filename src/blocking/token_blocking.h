// Token Blocking (paper Section 5.1, "Blocking").
//
// The only parameter-free redundancy-positive blocking method: a block is
// created for every distinct token that appears in the attribute values of a
// profile, regardless of the attribute it comes from (schema-agnostic).
// Extensive studies show this simple scheme achieves near-perfect recall on
// heterogeneous data, at the cost of very low precision — which is exactly
// the regime Meta-blocking addresses.

#ifndef GSMB_BLOCKING_TOKEN_BLOCKING_H_
#define GSMB_BLOCKING_TOKEN_BLOCKING_H_

#include "blocking/block_collection.h"
#include "er/entity_collection.h"

namespace gsmb {

class TokenBlocking {
 public:
  /// Minimum token length to use as a key; length-1 tokens are usually
  /// punctuation debris. The paper's pipeline relies on Block Purging to
  /// drop stop-word blocks, so the default keeps everything >= 1 char.
  explicit TokenBlocking(size_t min_token_length = 1)
      : min_token_length_(min_token_length) {}

  /// Clean-Clean ER: blocks over two duplicate-free collections.
  /// `num_threads` > 1 parallelises key extraction and the run merge
  /// (blocking/key_blocking.h); the collection is bit-identical for any
  /// thread count.
  BlockCollection Build(const EntityCollection& e1,
                        const EntityCollection& e2,
                        size_t num_threads = 1) const;

  /// Dirty ER: blocks over a single collection.
  BlockCollection Build(const EntityCollection& e,
                        size_t num_threads = 1) const;

 private:
  size_t min_token_length_;
};

}  // namespace gsmb

#endif  // GSMB_BLOCKING_TOKEN_BLOCKING_H_
