#include "schemes/attribute_clustering.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "blocking/key_blocking.h"
#include "gsmb/job_spec.h"
#include "util/string_utils.h"

namespace gsmb::schemes {

namespace {

/// One attribute name of one source with its aggregate value-token set
/// (sorted, distinct).
struct AttributeEntry {
  std::string name;
  std::vector<std::string> tokens;
};

/// Collects the distinct attribute names of `collection` with their
/// aggregate token sets. The attribute universe is tiny (tens of names vs
/// millions of entities), so one serial scan is fine and trivially
/// deterministic.
std::vector<AttributeEntry> CollectAttributes(
    const EntityCollection& collection, size_t min_token_length) {
  std::map<std::string, std::vector<std::string>> by_name;
  for (size_t e = 0; e < collection.size(); ++e) {
    for (const Attribute& a : collection[static_cast<EntityId>(e)]
                                  .attributes()) {
      std::vector<std::string>& tokens = by_name[a.name];
      for (std::string& token : TokenizeAlnum(a.value)) {
        if (token.size() < min_token_length) continue;
        tokens.push_back(std::move(token));
      }
    }
  }
  std::vector<AttributeEntry> entries;
  entries.reserve(by_name.size());
  for (auto& [name, tokens] : by_name) {
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    entries.push_back(AttributeEntry{name, std::move(tokens)});
  }
  return entries;  // std::map order: sorted by name.
}

/// Jaccard similarity of two sorted, distinct token vectors.
double Jaccard(const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 0.0;
  size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t united = a.size() + b.size() - common;
  return united == 0 ? 0.0
                     : static_cast<double>(common) /
                           static_cast<double>(united);
}

/// Plain union-find over attribute-entry indices.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// Links entry `i` to its best match among [begin, end) \ {i} when the best
/// similarity reaches the threshold. Ties break on the lower index (entries
/// are name-sorted, so that is the lexicographically smallest name).
void LinkBestMatch(const std::vector<AttributeEntry>& entries, size_t i,
                   size_t begin, size_t end, double threshold,
                   UnionFind* clusters) {
  double best = 0.0;
  size_t best_index = end;
  for (size_t j = begin; j < end; ++j) {
    if (j == i) continue;
    const double sim = Jaccard(entries[i].tokens, entries[j].tokens);
    if (sim > best) {
      best = sim;
      best_index = j;
    }
  }
  if (best_index != end && best >= threshold) {
    clusters->Union(i, best_index);
  }
}

/// Blocking-key prefix per attribute-entry index: clusters of >= 2
/// attributes get "c<idx>#" (indexed by smallest member, so the ids are
/// deterministic), singletons share the glue prefix "g#".
std::vector<std::string> ClusterPrefixes(
    const std::vector<AttributeEntry>& entries, UnionFind* clusters) {
  std::map<size_t, std::vector<size_t>> components;  // root -> members
  for (size_t i = 0; i < entries.size(); ++i) {
    components[clusters->Find(i)].push_back(i);
  }
  // Multi-member components ordered by smallest member index.
  std::map<size_t, std::vector<size_t>> by_smallest;
  for (auto& [root, members] : components) {
    if (members.size() >= 2) by_smallest[members.front()] = members;
  }
  std::vector<std::string> prefixes(entries.size(), "g#");
  size_t next_id = 0;
  for (auto& [smallest, members] : by_smallest) {
    const std::string prefix = "c" + std::to_string(next_id++) + "#";
    for (size_t member : members) prefixes[member] = prefix;
  }
  return prefixes;
}

/// Key function for one source: (cluster prefix of the attribute) + token,
/// written contiguously into the sink's arena.
KeyFunction ClusterKeys(std::map<std::string, std::string> prefix_by_name,
                        size_t min_token_length) {
  return [prefix_by_name = std::move(prefix_by_name),
          min_token_length](const EntityProfile& p, KeySink* sink) {
    for (const Attribute& a : p.attributes()) {
      const auto it = prefix_by_name.find(a.name);
      if (it == prefix_by_name.end()) continue;  // attribute with no tokens
      const std::string& prefix = it->second;
      ForEachAlnumRun(a.value, [&](std::string_view run) {
        if (run.size() < min_token_length) return;
        const size_t key = sink->Append(prefix);
        sink->AppendLower(run);
        sink->Emit(key, prefix.size() + run.size());
      });
    }
  };
}

std::map<std::string, std::string> PrefixMap(
    const std::vector<AttributeEntry>& entries,
    const std::vector<std::string>& prefixes, size_t begin, size_t end) {
  std::map<std::string, std::string> by_name;
  for (size_t i = begin; i < end; ++i) {
    by_name[entries[i].name] = prefixes[i];
  }
  return by_name;
}

}  // namespace

const char* AttributeClusteringBlocker::name() const {
  return kSchemeAttributeClustering;
}

const char* AttributeClusteringBlocker::description() const {
  return "clusters attribute names by value-token Jaccard similarity "
         "(blocking.attribute_similarity) and blocks on (cluster, token) "
         "keys";
}

Status AttributeClusteringBlocker::ValidateParams(
    const BlockingSpec& blocking) const {
  if (!(blocking.attribute_similarity > 0.0) ||
      blocking.attribute_similarity > 1.0) {
    return Status::InvalidArgument(
        "blocking.attribute_similarity must be in (0, 1]");
  }
  return Status::Ok();
}

BlockCollection AttributeClusteringBlocker::Build(
    const JobInputs& inputs, const BlockingSpec& blocking,
    size_t num_threads) const {
  const size_t min_len = blocking.min_token_length;
  if (inputs.dirty) {
    std::vector<AttributeEntry> entries =
        CollectAttributes(inputs.e1, min_len);
    UnionFind clusters(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      LinkBestMatch(entries, i, 0, entries.size(),
                    blocking.attribute_similarity, &clusters);
    }
    const std::vector<std::string> prefixes =
        ClusterPrefixes(entries, &clusters);
    return BuildKeyBlocksDirty(
        inputs.e1,
        ClusterKeys(PrefixMap(entries, prefixes, 0, entries.size()), min_len),
        num_threads);
  }

  // Clean-Clean: one entry list over both sources (e1 entries first), links
  // only cross-source — each attribute pairs with its best match on the
  // other side.
  std::vector<AttributeEntry> entries = CollectAttributes(inputs.e1, min_len);
  const size_t split = entries.size();
  std::vector<AttributeEntry> entries2 = CollectAttributes(inputs.e2, min_len);
  entries.insert(entries.end(), std::make_move_iterator(entries2.begin()),
                 std::make_move_iterator(entries2.end()));

  UnionFind clusters(entries.size());
  for (size_t i = 0; i < split; ++i) {
    LinkBestMatch(entries, i, split, entries.size(),
                  blocking.attribute_similarity, &clusters);
  }
  for (size_t i = split; i < entries.size(); ++i) {
    LinkBestMatch(entries, i, 0, split, blocking.attribute_similarity,
                  &clusters);
  }
  const std::vector<std::string> prefixes =
      ClusterPrefixes(entries, &clusters);
  return BuildKeyBlocksCleanClean(
      inputs.e1, inputs.e2,
      ClusterKeys(PrefixMap(entries, prefixes, 0, split), min_len),
      ClusterKeys(PrefixMap(entries, prefixes, split, entries.size()),
                  min_len),
      num_threads);
}

}  // namespace gsmb::schemes
