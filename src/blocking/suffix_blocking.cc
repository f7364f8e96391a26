#include "blocking/suffix_blocking.h"

#include <string_view>

#include "blocking/key_blocking.h"

namespace gsmb {

namespace {

// Every suffix of a token views the token's one copy in the arena, so a
// token of length L costs L bytes, not O(L^2). A token of at most min_len
// characters is its own single key.
KeyFunction SuffixKeys(size_t min_len) {
  return [min_len](const EntityProfile& p, KeySink* sink) {
    p.ForEachValueTokenRun([min_len, sink](std::string_view run) {
      const size_t token = sink->AppendLower(run);
      if (run.size() <= min_len) {
        sink->Emit(token, run.size());
        return;
      }
      for (size_t i = 0; i + min_len <= run.size(); ++i) {
        sink->Emit(token + i, run.size() - i);
      }
    });
  };
}

}  // namespace

BlockCollection SuffixBlocking::CapBlocks(BlockCollection bc) const {
  BlockCollection out(bc.clean_clean(), bc.num_left_entities(),
                      bc.num_right_entities());
  for (Block& block : bc.mutable_blocks()) {
    if (block.Size() > max_block_size_) continue;
    out.Add(std::move(block));
  }
  return out;
}

BlockCollection SuffixBlocking::Build(const EntityCollection& e1,
                                      const EntityCollection& e2,
                                      size_t num_threads) const {
  return CapBlocks(BuildKeyBlocksCleanClean(e1, e2, SuffixKeys(min_length_),
                                            num_threads));
}

BlockCollection SuffixBlocking::Build(const EntityCollection& e,
                                      size_t num_threads) const {
  return CapBlocks(
      BuildKeyBlocksDirty(e, SuffixKeys(min_length_), num_threads));
}

}  // namespace gsmb
