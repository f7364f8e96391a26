#include "util/string_utils.h"

#include <gtest/gtest.h>

namespace gsmb {
namespace {

TEST(Tokenize, SplitsOnNonAlnum) {
  EXPECT_EQ(TokenizeAlnum("Apple iPhone X"),
            (std::vector<std::string>{"apple", "iphone", "x"}));
  EXPECT_EQ(TokenizeAlnum("a,b;c  d"),
            (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(Tokenize, LowercasesAscii) {
  EXPECT_EQ(TokenizeAlnum("SAMSUNG S20"),
            (std::vector<std::string>{"samsung", "s20"}));
}

TEST(Tokenize, KeepsDigits) {
  EXPECT_EQ(TokenizeAlnum("mate-20 5g"),
            (std::vector<std::string>{"mate", "20", "5g"}));
}

TEST(Tokenize, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(TokenizeAlnum("").empty());
  EXPECT_TRUE(TokenizeAlnum("--- ,, !!").empty());
}

TEST(Tokenize, SingleToken) {
  EXPECT_EQ(TokenizeAlnum("smartphone"),
            (std::vector<std::string>{"smartphone"}));
}

TEST(Tokenize, LeadingTrailingSeparators) {
  EXPECT_EQ(TokenizeAlnum("  x  "), (std::vector<std::string>{"x"}));
}

TEST(Tokenize, NonAsciiBytesSeparateTokens) {
  // UTF-8 bytes are never alphanumeric, whatever the process locale.
  EXPECT_EQ(TokenizeAlnum("Caf\xc3\xa9 OK"),
            (std::vector<std::string>{"caf", "ok"}));
}

TEST(Join, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(Trim, TrimsBothEnds) {
  EXPECT_EQ(TrimAscii("  hi  "), "hi");
  EXPECT_EQ(TrimAscii("hi"), "hi");
  EXPECT_EQ(TrimAscii("   "), "");
  EXPECT_EQ(TrimAscii("\t a b \n"), "a b");
}

TEST(Lower, LowerAscii) {
  EXPECT_EQ(ToLowerAscii("MiXeD 42!"), "mixed 42!");
}

}  // namespace
}  // namespace gsmb
