#include "core/pruning.h"

#include <algorithm>

#include "core/pruning_aggregates.h"

namespace gsmb {

const char* PruningKindName(PruningKind kind) {
  switch (kind) {
    case PruningKind::kBCl:
      return "BCl";
    case PruningKind::kWep:
      return "WEP";
    case PruningKind::kWnp:
      return "WNP";
    case PruningKind::kRwnp:
      return "RWNP";
    case PruningKind::kBlast:
      return "BLAST";
    case PruningKind::kCep:
      return "CEP";
    case PruningKind::kCnp:
      return "CNP";
    case PruningKind::kRcnp:
      return "RCNP";
  }
  return "unknown";
}

bool IsWeightBased(PruningKind kind) {
  switch (kind) {
    case PruningKind::kBCl:
    case PruningKind::kWep:
    case PruningKind::kWnp:
    case PruningKind::kRwnp:
    case PruningKind::kBlast:
      return true;
    case PruningKind::kCep:
    case PruningKind::kCnp:
    case PruningKind::kRcnp:
      return false;
  }
  return false;
}

PruningContext PruningContext::FromIndex(const EntityIndex& index,
                                         const BlockCollectionStats& stats) {
  PruningContext ctx;
  ctx.num_nodes = index.num_entities();
  ctx.right_offset = index.clean_clean() ? index.num_left() : 0;
  ctx.cep_k = stats.cep_k;
  ctx.cnp_k = stats.cnp_k;
  return ctx;
}

std::vector<uint32_t> PruningAlgorithm::Prune(
    const std::vector<CandidatePair>& pairs,
    const std::vector<double>& probabilities,
    const PruningContext& context) const {
  return PruneWithAggregator(kind_, pairs, probabilities, context);
}

std::unique_ptr<PruningAlgorithm> MakePruningAlgorithm(PruningKind kind) {
  return std::make_unique<PruningAlgorithm>(kind);
}

std::vector<PruningKind> AllPruningKinds() {
  return {PruningKind::kBCl, PruningKind::kWep,  PruningKind::kWnp,
          PruningKind::kRwnp, PruningKind::kBlast, PruningKind::kCep,
          PruningKind::kCnp,  PruningKind::kRcnp};
}

}  // namespace gsmb
