#include "util/bytes.hpp"

#include <sstream>

#include "util/error.hpp"

namespace epi {

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(std::string_view s) {
  u64(s.size());
  append(s.data(), s.size());
}

void ByteWriter::bytes(std::span<const std::byte> b) {
  u64(b.size());
  append(b.data(), b.size());
}

void ByteWriter::append(const void* data, std::size_t n) {
  const std::size_t at = out_.size();
  out_.resize(at + n);
  if (n > 0) std::memcpy(out_.data() + at, data, n);
}

const std::byte* ByteReader::consume(std::uint64_t n) {
  // pos_ never passes the end, so the bytes left cannot wrap.
  if (n > blob_.size() - pos_) truncated(n);
  const std::byte* at = blob_.data() + pos_;
  pos_ += static_cast<std::size_t>(n);
  return at;
}

void ByteReader::truncated(std::uint64_t n) const {
  std::ostringstream oss;
  oss << "truncated " << what_ << ": " << n << " bytes wanted at offset "
      << pos_ << " of " << blob_.size();
  throw Error(oss.str());
}

std::uint8_t ByteReader::u8() {
  return static_cast<std::uint8_t>(*consume(1));
}

std::uint64_t ByteReader::u64() {
  const std::byte* at = consume(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(at[i]) << (8 * i);
  }
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  const std::uint64_t n = u64();
  const std::byte* at = consume(n);
  return std::string(reinterpret_cast<const char*>(at),
                     static_cast<std::size_t>(n));
}

std::vector<std::byte> ByteReader::bytes() {
  const std::uint64_t n = u64();
  const std::byte* at = consume(n);
  return std::vector<std::byte>(at, at + n);
}

std::uint64_t ByteReader::count(std::size_t element_bytes) {
  const std::uint64_t n = u64();
  const std::size_t left = blob_.size() - pos_;
  if (element_bytes > 0 && n > left / element_bytes) {
    std::ostringstream oss;
    oss << "truncated " << what_ << ": " << n << " elements of "
        << element_bytes << " bytes at offset " << pos_ << " of "
        << blob_.size();
    throw Error(oss.str());
  }
  return n;
}

}  // namespace epi
