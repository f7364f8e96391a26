#include "er/entity_profile.h"

#include <algorithm>

namespace gsmb {

void EntityProfile::AddAttribute(std::string name, std::string value) {
  attributes_.push_back({std::move(name), std::move(value)});
}

const std::string& EntityProfile::GetAttribute(const std::string& name) const {
  static const std::string kEmpty;
  for (const Attribute& a : attributes_) {
    if (a.name == name) return a.value;
  }
  return kEmpty;
}

bool EntityProfile::HasAttribute(const std::string& name) const {
  for (const Attribute& a : attributes_) {
    if (a.name == name) return true;
  }
  return false;
}

std::vector<std::string> EntityProfile::DistinctValueTokens() const {
  std::vector<std::string> tokens;
  ForEachValueTokenRun([&tokens](std::string_view run) {
    tokens.push_back(ToLowerAscii(run));
  });
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

size_t EntityProfile::ValueLength() const {
  size_t n = 0;
  for (const Attribute& a : attributes_) n += a.value.size();
  return n;
}

}  // namespace gsmb
