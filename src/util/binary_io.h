// The one binary codec behind both snapshot formats. Every multi-byte
// scalar is little-endian whatever the host byte order, and doubles travel
// bit-exact (as their IEEE-754 u64 image), so files written on one host
// read back identically on any other.
//
// BinaryReader is bounds-checked: every length or count field is validated
// against the bytes actually remaining in the input BEFORE any container
// is sized from it, so a truncated or corrupt input fails with a clean
// std::runtime_error instead of a huge allocation (or bad_alloc) from a
// garbage count.

#ifndef GSMB_UTIL_BINARY_IO_H_
#define GSMB_UTIL_BINARY_IO_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace gsmb {

/// Writes `v` as sizeof(T) little-endian bytes to `out`.
template <std::unsigned_integral T>
void StoreLittleEndian(T v, char* out) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Reads sizeof(T) little-endian bytes from `in`.
template <std::unsigned_integral T>
T LoadLittleEndian(const char* in) {
  T v = 0;
  for (size_t i = sizeof(T); i-- > 0;) {
    v = static_cast<T>((v << 8) | static_cast<unsigned char>(in[i]));
  }
  return v;
}

/// Streams scalars and strings in the shared layout.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  void Bytes(const void* data, size_t size);
  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F64(double v);
  /// u64 length + the bytes.
  void String(std::string_view s);

 private:
  template <std::unsigned_integral T>
  void Scalar(T v);

  std::ostream& out_;
};

/// Streams scalars and strings back, rejecting anything the input cannot
/// hold. Throws std::runtime_error("truncated or corrupt <what>").
class BinaryReader {
 public:
  /// `what` names the input in error messages (e.g. "file").
  explicit BinaryReader(std::istream& in, std::string what = "input");

  /// Total size of the input in bytes.
  uint64_t size() const { return size_; }

  void Bytes(void* data, size_t size);
  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  double F64();

  /// Reads a u64 element count whose elements occupy at least
  /// `min_element_size` bytes each; rejects counts the input cannot hold.
  uint64_t Count(uint64_t min_element_size);

  /// Reads `size` raw bytes into a string, rejecting sizes beyond the
  /// remaining input before allocating.
  std::string Chars(uint64_t size);

  /// u64 length + the bytes (the inverse of BinaryWriter::String).
  std::string String() { return Chars(Count(1)); }

 private:
  template <std::unsigned_integral T>
  T Scalar();

  uint64_t Remaining() const;
  [[noreturn]] void Corrupt() const;

  std::istream& in_;
  std::string what_;
  uint64_t size_ = 0;
};

}  // namespace gsmb

#endif  // GSMB_UTIL_BINARY_IO_H_
