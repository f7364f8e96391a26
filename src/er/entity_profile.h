// Entity profile model (paper Section 2).
//
// An entity profile is a set of name-value pairs with textual names and
// values. The model is deliberately schema-free: it accommodates relational
// records, semi-structured RDF descriptions and anything in between, which
// is what makes schema-agnostic blocking applicable.

#ifndef GSMB_ER_ENTITY_PROFILE_H_
#define GSMB_ER_ENTITY_PROFILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/string_utils.h"

namespace gsmb {

/// Identifier of an entity inside one collection (dense, 0-based).
using EntityId = uint32_t;

/// One name-value pair of an entity profile.
struct Attribute {
  std::string name;
  std::string value;

  bool operator==(const Attribute& other) const = default;
};

/// A schema-free entity description: an external identifier (for ground-truth
/// bookkeeping and user-facing output) plus a bag of attributes.
class EntityProfile {
 public:
  EntityProfile() = default;
  explicit EntityProfile(std::string external_id)
      : external_id_(std::move(external_id)) {}

  const std::string& external_id() const { return external_id_; }
  void set_external_id(std::string id) { external_id_ = std::move(id); }

  const std::vector<Attribute>& attributes() const { return attributes_; }

  void AddAttribute(std::string name, std::string value);

  /// Returns the value of the first attribute with this name, or "" if none.
  const std::string& GetAttribute(const std::string& name) const;

  bool HasAttribute(const std::string& name) const;

  /// All schema-agnostic tokens of this profile: every maximal alphanumeric
  /// run in every attribute value, lower-cased, deduplicated, sorted.
  /// Attribute *names* are excluded, following Token Blocking's definition.
  std::vector<std::string> DistinctValueTokens() const;

  /// The scan behind DistinctValueTokens: calls fn(run) for every token
  /// occurrence of the attribute values, in order and with repeats, as the
  /// raw alphanumeric run (ForEachAlnumRun). The token is the run
  /// lower-cased. Key functions that copy tokens into an arena use this, so
  /// no token costs a std::string.
  template <typename Fn>
  void ForEachValueTokenRun(Fn&& fn) const {
    for (const Attribute& a : attributes_) ForEachAlnumRun(a.value, fn);
  }

  /// Total number of characters across all attribute values.
  size_t ValueLength() const;

  bool operator==(const EntityProfile& other) const = default;

 private:
  std::string external_id_;
  std::vector<Attribute> attributes_;
};

}  // namespace gsmb

#endif  // GSMB_ER_ENTITY_PROFILE_H_
