#include "util/string_utils.h"

#include <cctype>

namespace gsmb {

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = LowerAscii(c);
  return out;
}

std::vector<std::string> TokenizeAlnum(std::string_view s) {
  std::vector<std::string> tokens;
  ForEachAlnumRun(s, [&tokens](std::string_view run) {
    tokens.push_back(ToLowerAscii(run));
  });
  return tokens;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view TrimAscii(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace gsmb
