// The wire protocol's binary parts (dist/wire.h) and the codec beneath
// them (util/binary_io.h): frame extraction, the kRetained payload, and
// the exact little-endian bytes every snapshot and frame is built from.
// Malformed input must come back as a Status (or a clean exception from
// BinaryReader), never a crash or an allocation sized by garbage.

#include "dist/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/binary_io.h"

namespace gsmb::dist {
namespace {

std::string FrameHeader(uint32_t length, uint8_t type) {
  std::string header(5, '\0');
  StoreLittleEndian(length, header.data());
  header[4] = static_cast<char>(type);
  return header;
}

RetainedMessage SampleRetained() {
  RetainedMessage message;
  message.variant = 0x0102030405060708ull;
  message.pairs = {
      {"a1", "b7"},
      {"", ""},                          // empty ids
      {"caf\xc3\xa9", "\xe5\x8c\x97"},   // UTF-8: café, 北
      {std::string("nul\0id", 6), "x"},  // embedded NUL
  };
  return message;
}

// ---------------------------------------------------------------------------
// binary_io: pinned little-endian layout
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Retained codec
// ---------------------------------------------------------------------------

TEST(WireRetained, RoundTrips) {
  const RetainedMessage message = SampleRetained();
  const std::string payload = EncodeRetained(message);
  Result<RetainedMessage> decoded = DecodeRetained(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->variant, message.variant);
  EXPECT_EQ(decoded->pairs, message.pairs);

  // Layout: u64 variant | u64 count | per pair u32-prefixed left, right.
  ASSERT_GE(payload.size(), 16u);
  EXPECT_EQ(LoadLittleEndian<uint64_t>(payload.data()), message.variant);
  EXPECT_EQ(LoadLittleEndian<uint64_t>(payload.data() + 8),
            message.pairs.size());
  EXPECT_EQ(LoadLittleEndian<uint32_t>(payload.data() + 16), 2u);
  EXPECT_EQ(payload.substr(20, 2), "a1");
}

TEST(WireRetained, EmptyMessageRoundTrips) {
  Result<RetainedMessage> decoded = DecodeRetained(EncodeRetained({}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->variant, 0u);
  EXPECT_TRUE(decoded->pairs.empty());
}

TEST(WireRetained, EveryProperPrefixIsRejected) {
  const std::string payload = EncodeRetained(SampleRetained());
  for (size_t n = 0; n < payload.size(); ++n) {
    Result<RetainedMessage> decoded = DecodeRetained(payload.substr(0, n));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << n << " bytes accepted";
  }
}

TEST(WireRetained, InflatedCountsAreRejected) {
  std::string payload = EncodeRetained(SampleRetained());
  std::string inflated_count = payload;
  StoreLittleEndian(uint64_t{1} << 40, inflated_count.data() + 8);
  EXPECT_FALSE(DecodeRetained(inflated_count).ok());

  std::string inflated_length = payload;
  StoreLittleEndian(uint32_t{0xffffffff}, inflated_length.data() + 16);
  EXPECT_FALSE(DecodeRetained(inflated_length).ok());
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(WireFrame, ExtractsCompleteFramesInOrder) {
  std::string buffer =
      FrameHeader(3, static_cast<uint8_t>(FrameType::kJob)) + "abc" +
      FrameHeader(0, static_cast<uint8_t>(FrameType::kShutdown));
  Frame frame;
  Result<bool> got = ExtractFrame(&buffer, &frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  EXPECT_EQ(frame.type, FrameType::kJob);
  EXPECT_EQ(frame.payload, "abc");

  got = ExtractFrame(&buffer, &frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  EXPECT_EQ(frame.type, FrameType::kShutdown);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_TRUE(buffer.empty());
}

TEST(WireFrame, PartialHeaderOrPayloadNeedsMoreBytes) {
  const std::string full =
      FrameHeader(4, static_cast<uint8_t>(FrameType::kResult)) + "wxyz";
  for (size_t n = 0; n < full.size(); ++n) {
    std::string buffer = full.substr(0, n);
    Frame frame;
    Result<bool> got = ExtractFrame(&buffer, &frame);
    ASSERT_TRUE(got.ok()) << "prefix of " << n << " bytes";
    EXPECT_FALSE(*got) << "prefix of " << n << " bytes";
    EXPECT_EQ(buffer.size(), n) << "a partial frame must not be consumed";
  }
}

TEST(WireFrame, RejectsOversizedLength) {
  std::string buffer =
      FrameHeader(static_cast<uint32_t>(kMaxFramePayload + 1),
                  static_cast<uint8_t>(FrameType::kResult));
  Frame frame;
  EXPECT_FALSE(ExtractFrame(&buffer, &frame).ok());
}

TEST(WireFrame, RejectsUnknownFrameType) {
  for (uint8_t type : {uint8_t{0}, uint8_t{7}, uint8_t{0xff}}) {
    std::string buffer = FrameHeader(0, type);
    Frame frame;
    EXPECT_FALSE(ExtractFrame(&buffer, &frame).ok())
        << "type " << int{type};
  }
}

}  // namespace
}  // namespace gsmb::dist
