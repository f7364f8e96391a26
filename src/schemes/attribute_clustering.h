// Attribute Clustering blocking (Papadakis et al., TKDE 2013).
//
// Token Blocking is schema-agnostic by fiat: a token blocks no matter which
// attribute it came from, so "1999" in a `year` attribute collides with
// "1999" in a `price`. Attribute Clustering restores a little schema
// awareness without needing aligned schemas: attribute names are clustered
// by the similarity of their aggregate value-token sets (Jaccard), and a
// blocking key becomes (cluster id, token) — the same token only blocks
// within attributes that talk about the same kind of thing. Attributes
// that match nothing land in one shared "glue" cluster so their tokens
// still block (dropping them would sacrifice recall).
//
// Clustering links each attribute to its best-matching attribute of the
// other source (same source for Dirty ER) when the similarity reaches
// blocking.attribute_similarity; connected components of the links are the
// clusters. The attribute universe is tiny next to the entity count, so
// the clustering itself runs serially; key extraction reuses the
// sort-merge builder of blocking/key_blocking.

#ifndef GSMB_SCHEMES_ATTRIBUTE_CLUSTERING_H_
#define GSMB_SCHEMES_ATTRIBUTE_CLUSTERING_H_

#include "schemes/scheme_registry.h"

namespace gsmb::schemes {

class AttributeClusteringBlocker : public Blocker {
 public:
  const char* name() const override;
  const char* description() const override;
  Status ValidateParams(const BlockingSpec& blocking) const override;
  BlockCollection Build(const JobInputs& inputs, const BlockingSpec& blocking,
                        size_t num_threads) const override;
};

}  // namespace gsmb::schemes

#endif  // GSMB_SCHEMES_ATTRIBUTE_CLUSTERING_H_
