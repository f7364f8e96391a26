#include "blocking/token_blocking.h"

#include <string_view>

#include "blocking/key_blocking.h"

namespace gsmb {

namespace {

KeyFunction TokenKeys(size_t min_len) {
  return [min_len](const EntityProfile& p, KeySink* sink) {
    p.ForEachValueTokenRun([min_len, sink](std::string_view run) {
      if (run.size() >= min_len) {
        sink->Emit(sink->AppendLower(run), run.size());
      }
    });
  };
}

}  // namespace

BlockCollection TokenBlocking::Build(const EntityCollection& e1,
                                     const EntityCollection& e2,
                                     size_t num_threads) const {
  return BuildKeyBlocksCleanClean(e1, e2, TokenKeys(min_token_length_),
                                  num_threads);
}

BlockCollection TokenBlocking::Build(const EntityCollection& e,
                                     size_t num_threads) const {
  return BuildKeyBlocksDirty(e, TokenKeys(min_token_length_), num_threads);
}

}  // namespace gsmb
