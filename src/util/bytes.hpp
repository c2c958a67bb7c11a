// The byte codec of the blobs a forked rank ships to its parent process:
// a rank's exit blob, its checker state, its metrics state and its
// SimOutput. Writer and reader are the same binary on the same machine, so
// fixed-width little-endian scalars, bit-exact doubles and raw POD arrays
// are all the format needs.
//
// Every read is bounds-checked without wrapping: a truncated or corrupt
// blob, a length near 2^64 included, throws epi::Error naming the blob,
// never std::length_error or std::bad_alloc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace epi {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u64(std::uint64_t v);
  /// An int32 in eight bytes: the u64 of its 32 two's-complement bits.
  void i32(std::int32_t v) { u64(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  /// u64 length, then the bytes.
  void str(std::string_view s);
  void bytes(std::span<const std::byte> b);
  /// u64 element count, then the elements' memory.
  template <typename T>
  void pod_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    append(v.data(), v.size() * sizeof(T));
  }

  /// The bytes written, moved out: the last call on a writer.
  std::vector<std::byte> take() { return std::move(out_); }

 private:
  void append(const void* data, std::size_t n);

  std::vector<std::byte> out_;
};

class ByteReader {
 public:
  /// Reads `blob`, which must outlive the reader. `what` names the blob in
  /// every error ("metrics state blob") and must outlive the reader too.
  ByteReader(std::span<const std::byte> blob, const char* what)
      : blob_(blob), what_(what) {}

  std::uint8_t u8();
  std::uint64_t u64();
  std::int32_t i32() {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(u64()));
  }
  double f64();
  std::string str();
  std::vector<std::byte> bytes();
  /// A u64 element count for a loop that sizes a container by it: checked
  /// against the bytes left, with each element taking at least
  /// `element_bytes`, so a corrupt count cannot size an allocation.
  std::uint64_t count(std::size_t element_bytes);
  template <typename T>
  std::vector<T> pod_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = count(sizeof(T));
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n > 0) std::memcpy(v.data(), consume(n * sizeof(T)), n * sizeof(T));
    return v;
  }

  bool done() const { return pos_ == blob_.size(); }

 private:
  /// The next n bytes, consumed; throws Error unless n bytes are left.
  const std::byte* consume(std::uint64_t n);
  [[noreturn]] void truncated(std::uint64_t n) const;

  std::span<const std::byte> blob_;
  const char* what_;
  std::size_t pos_ = 0;
};

}  // namespace epi
