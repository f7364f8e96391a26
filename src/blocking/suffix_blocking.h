// Suffix Arrays Blocking — a third redundancy-positive blocking method.
//
// Each token contributes all of its suffixes of length >= min_length as
// blocking keys; blocks with more than `max_block_size` members in total
// (Block::Size, both sources of a Clean-Clean block together) are discarded
// (the classic frequency cap of Suffix Arrays blocking, which prunes
// uninformative short suffixes).

#ifndef GSMB_BLOCKING_SUFFIX_BLOCKING_H_
#define GSMB_BLOCKING_SUFFIX_BLOCKING_H_

#include "blocking/block_collection.h"
#include "er/entity_collection.h"

namespace gsmb {

class SuffixBlocking {
 public:
  SuffixBlocking(size_t min_length = 4, size_t max_block_size = 64)
      : min_length_(min_length), max_block_size_(max_block_size) {}

  BlockCollection Build(const EntityCollection& e1,
                        const EntityCollection& e2,
                        size_t num_threads = 1) const;
  BlockCollection Build(const EntityCollection& e,
                        size_t num_threads = 1) const;

 private:
  BlockCollection CapBlocks(BlockCollection bc) const;

  size_t min_length_;
  size_t max_block_size_;
};

}  // namespace gsmb

#endif  // GSMB_BLOCKING_SUFFIX_BLOCKING_H_
