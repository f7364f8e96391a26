// String tokenisation helpers used by the schema-agnostic blocking methods.

#ifndef GSMB_UTIL_STRING_UTILS_H_
#define GSMB_UTIL_STRING_UTILS_H_

#include <string>
#include <string_view>
#include <vector>

namespace gsmb {

/// ASCII letters and digits. Bytes >= 0x80 (UTF-8 sequences) are never
/// alphanumeric, whatever the process locale, so tokens are stable across
/// platforms.
constexpr bool IsAsciiAlnum(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

/// Lower-cases one ASCII letter; every other byte is returned unchanged.
constexpr char LowerAscii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Lower-cases ASCII characters in place-copy.
std::string ToLowerAscii(std::string_view s);

/// Calls fn(run) for every maximal run of ASCII alphanumeric characters in
/// `s`, in order, as a view into `s`. A run lower-cased is a token; callers
/// that copy the token anyway lower-case it on the way, so the scan itself
/// allocates nothing.
template <typename Fn>
void ForEachAlnumRun(std::string_view s, Fn&& fn) {
  const size_t n = s.size();
  size_t i = 0;
  while (i < n) {
    while (i < n && !IsAsciiAlnum(s[i])) ++i;
    const size_t begin = i;
    while (i < n && IsAsciiAlnum(s[i])) ++i;
    if (i > begin) fn(s.substr(begin, i - begin));
  }
}

/// Splits `s` into maximal runs of alphanumeric characters, lower-cased.
/// This is the signature function of schema-agnostic Token Blocking: every
/// token of every attribute value becomes a blocking key.
std::vector<std::string> TokenizeAlnum(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Trims ASCII whitespace from both ends.
std::string_view TrimAscii(std::string_view s);

}  // namespace gsmb

#endif  // GSMB_UTIL_STRING_UTILS_H_
