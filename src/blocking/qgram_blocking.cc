#include "blocking/qgram_blocking.h"

#include <string_view>

#include "blocking/key_blocking.h"

namespace gsmb {

namespace {

// Every q-gram of a token views the token's one copy in the arena; a token
// of at most q characters is its own single gram.
KeyFunction QGramKeys(size_t q) {
  return [q](const EntityProfile& p, KeySink* sink) {
    if (q == 0) return;
    p.ForEachValueTokenRun([q, sink](std::string_view run) {
      const size_t token = sink->AppendLower(run);
      if (run.size() <= q) {
        sink->Emit(token, run.size());
        return;
      }
      for (size_t i = 0; i + q <= run.size(); ++i) sink->Emit(token + i, q);
    });
  };
}

}  // namespace

BlockCollection QGramBlocking::Build(const EntityCollection& e1,
                                     const EntityCollection& e2,
                                     size_t num_threads) const {
  return BuildKeyBlocksCleanClean(e1, e2, QGramKeys(q_), num_threads);
}

BlockCollection QGramBlocking::Build(const EntityCollection& e,
                                     size_t num_threads) const {
  return BuildKeyBlocksDirty(e, QGramKeys(q_), num_threads);
}

}  // namespace gsmb
