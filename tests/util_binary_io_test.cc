// The binary codec beneath both snapshot formats (util/binary_io.h): the
// exact little-endian bytes every session and prepared snapshot is built
// from, and the bounds checks that turn malformed input into a clean
// exception instead of a crash or an allocation sized by garbage.

#include "util/binary_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace gsmb {
namespace {

TEST(BinaryIo, WriterEmitsLittleEndianBytes) {
  std::ostringstream out;
  BinaryWriter writer(out);
  writer.U32(0x01020304u);
  writer.U64(0x0102030405060708ull);
  writer.F64(1.0);  // IEEE-754 0x3ff0000000000000
  writer.U8(0xab);
  writer.String("hi");
  EXPECT_EQ(out.str(), std::string("\x04\x03\x02\x01"
                                   "\x08\x07\x06\x05\x04\x03\x02\x01"
                                   "\x00\x00\x00\x00\x00\x00\xf0\x3f"
                                   "\xab"
                                   "\x02\x00\x00\x00\x00\x00\x00\x00"
                                   "hi",
                                   4 + 8 + 8 + 1 + 8 + 2));
}

TEST(BinaryIo, ReaderRoundTripsWriter) {
  std::ostringstream out;
  BinaryWriter writer(out);
  writer.U8(7);
  writer.U32(0xdeadbeefu);
  writer.U64(~uint64_t{0});
  writer.F64(-0.1);
  writer.String(std::string("a\0b", 3));

  std::istringstream in(out.str());
  BinaryReader reader(in);
  EXPECT_EQ(reader.size(), out.str().size());
  EXPECT_EQ(reader.U8(), 7u);
  EXPECT_EQ(reader.U32(), 0xdeadbeefu);
  EXPECT_EQ(reader.U64(), ~uint64_t{0});
  EXPECT_EQ(reader.F64(), -0.1);
  EXPECT_EQ(reader.String(), std::string("a\0b", 3));
  EXPECT_THROW(reader.U8(), std::runtime_error);
}

TEST(BinaryIo, ReaderRejectsCountsTheInputCannotHold) {
  std::ostringstream out;
  BinaryWriter writer(out);
  writer.U64(uint64_t{1} << 40);  // a count, followed by 16 bytes
  writer.U64(0);
  writer.U64(0);
  {
    std::istringstream in(out.str());
    BinaryReader reader(in, "test input");
    try {
      reader.Count(1);
      FAIL() << "inflated count accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "truncated or corrupt test input");
    }
  }
  {
    std::istringstream in(out.str());
    BinaryReader reader(in);
    reader.U64();
    EXPECT_THROW(reader.Chars(17), std::runtime_error);
  }
}

}  // namespace
}  // namespace gsmb
