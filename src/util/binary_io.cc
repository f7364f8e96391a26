#include "util/binary_io.h"

#include <bit>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace gsmb {

void BinaryWriter::Bytes(const void* data, size_t size) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
}

template <std::unsigned_integral T>
void BinaryWriter::Scalar(T v) {
  char bytes[sizeof(T)];
  StoreLittleEndian(v, bytes);
  Bytes(bytes, sizeof bytes);
}

void BinaryWriter::U8(uint8_t v) { Scalar(v); }
void BinaryWriter::U32(uint32_t v) { Scalar(v); }
void BinaryWriter::U64(uint64_t v) { Scalar(v); }
void BinaryWriter::F64(double v) { Scalar(std::bit_cast<uint64_t>(v)); }

void BinaryWriter::String(std::string_view s) {
  U64(s.size());
  Bytes(s.data(), s.size());
}

BinaryReader::BinaryReader(std::istream& in, std::string what)
    : in_(in), what_(std::move(what)) {
  const std::istream::pos_type pos = in_.tellg();
  in_.seekg(0, std::ios::end);
  size_ = static_cast<uint64_t>(in_.tellg());
  in_.seekg(pos);
}

void BinaryReader::Bytes(void* data, size_t size) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (!in_) Corrupt();
}

template <std::unsigned_integral T>
T BinaryReader::Scalar() {
  char bytes[sizeof(T)];
  Bytes(bytes, sizeof bytes);
  return LoadLittleEndian<T>(bytes);
}

uint8_t BinaryReader::U8() { return Scalar<uint8_t>(); }
uint32_t BinaryReader::U32() { return Scalar<uint32_t>(); }
uint64_t BinaryReader::U64() { return Scalar<uint64_t>(); }
double BinaryReader::F64() { return std::bit_cast<double>(Scalar<uint64_t>()); }

uint64_t BinaryReader::Count(uint64_t min_element_size) {
  const uint64_t count = U64();
  if (min_element_size == 0) min_element_size = 1;
  if (count > Remaining() / min_element_size) Corrupt();
  return count;
}

std::string BinaryReader::Chars(uint64_t size) {
  if (size > Remaining()) Corrupt();
  std::string s(size, '\0');
  if (size > 0) Bytes(s.data(), size);
  return s;
}

uint64_t BinaryReader::Remaining() const {
  const auto pos = static_cast<uint64_t>(in_.tellg());
  return pos > size_ ? 0 : size_ - pos;
}

void BinaryReader::Corrupt() const {
  throw std::runtime_error("truncated or corrupt " + what_);
}

}  // namespace gsmb
