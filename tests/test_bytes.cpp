// The cross-process blob codec (util/bytes.hpp): every field kind
// round-trips, and a truncated or corrupt blob throws epi::Error naming
// the blob, never std::length_error or std::bad_alloc.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace epi {
namespace {

constexpr const char* kBlob = "test blob";

struct Pod {
  std::uint32_t a;
  std::uint16_t b;
  std::uint16_t c;
};

std::vector<std::byte> every_kind() {
  ByteWriter out;
  out.u8(0xAB);
  out.u64(0x0123456789ABCDEFULL);
  out.i32(-7);
  out.f64(-0.1);
  out.str("hello");
  out.bytes(std::vector<std::byte>{std::byte{1}, std::byte{2}, std::byte{3}});
  out.pod_vector(std::vector<Pod>{{1, 2, 3}, {4, 5, 6}});
  return out.take();
}

/// Reads every_kind()'s fields back from `in`.
void read_every_kind(ByteReader& in) {
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(in.i32(), -7);
  EXPECT_EQ(in.f64(), -0.1);
  EXPECT_EQ(in.str(), "hello");
  EXPECT_EQ(in.bytes(),
            (std::vector<std::byte>{std::byte{1}, std::byte{2}, std::byte{3}}));
  const std::vector<Pod> pods = in.pod_vector<Pod>();
  ASSERT_EQ(pods.size(), 2u);
  EXPECT_EQ(pods[1].a, 4u);
  EXPECT_EQ(pods[1].b, 5u);
  EXPECT_EQ(pods[1].c, 6u);
}

/// Expects `read` to throw epi::Error whose message names the blob.
template <typename Read>
void expect_names_blob(const Read& read) {
  try {
    read();
    ADD_FAILURE() << "no error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(kBlob), std::string::npos)
        << e.what();
  }
}

TEST(ByteCodec, EveryFieldKindRoundTrips) {
  const std::vector<std::byte> blob = every_kind();
  ByteReader in(blob, kBlob);
  read_every_kind(in);
  EXPECT_TRUE(in.done());
}

TEST(ByteCodec, ScalarsAreLittleEndianAndDoublesBitExact) {
  ByteWriter out;
  out.u64(0x0807060504030201ULL);
  out.i32(-1);
  const double tiny = std::numeric_limits<double>::denorm_min();
  out.f64(tiny);
  out.f64(std::nan(""));
  const std::vector<std::byte> blob = out.take();
  ASSERT_EQ(blob.size(), 32u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(blob[i], static_cast<std::byte>(i + 1));
  }
  // An int32 fills a u64 slot with its 32 two's-complement bits.
  for (std::size_t i = 8; i < 16; ++i) {
    EXPECT_EQ(blob[i], i < 12 ? std::byte{0xFF} : std::byte{0});
  }
  ByteReader in(blob, kBlob);
  EXPECT_EQ(in.u64(), 0x0807060504030201ULL);
  EXPECT_EQ(in.i32(), -1);
  EXPECT_EQ(in.f64(), tiny);
  EXPECT_TRUE(std::isnan(in.f64()));
  EXPECT_TRUE(in.done());
}

TEST(ByteCodec, EmptyFieldsRoundTrip) {
  ByteWriter out;
  out.str("");
  out.bytes({});
  out.pod_vector(std::vector<Pod>{});
  const std::vector<std::byte> blob = out.take();
  EXPECT_EQ(blob.size(), 24u);
  ByteReader in(blob, kBlob);
  EXPECT_EQ(in.str(), "");
  EXPECT_TRUE(in.bytes().empty());
  EXPECT_TRUE(in.pod_vector<Pod>().empty());
  EXPECT_TRUE(in.done());
}

TEST(ByteCodec, TruncationInsideEveryKindThrowsErrorNamingTheBlob) {
  const std::vector<std::byte> blob = every_kind();
  // Every cut lands inside some field: a length prefix, a scalar or a
  // string, byte or POD body.
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    SCOPED_TRACE(cut);
    const auto end = blob.begin() + static_cast<std::ptrdiff_t>(cut);
    const std::vector<std::byte> part(blob.begin(), end);
    expect_names_blob([&] {
      ByteReader in(part, kBlob);
      read_every_kind(in);
    });
  }
}

TEST(ByteCodec, HugeLengthsThrowErrorInsteadOfAllocating) {
  // A string or byte length of 2^64 - 1 with a few bytes behind it.
  for (int kind = 0; kind < 2; ++kind) {
    ByteWriter out;
    out.u64(std::numeric_limits<std::uint64_t>::max());
    out.u64(0);
    const std::vector<std::byte> blob = out.take();
    expect_names_blob([&] {
      ByteReader in(blob, kBlob);
      if (kind == 0) {
        (void)in.str();
      } else {
        (void)in.bytes();
      }
    });
  }
  // A POD count whose byte size wraps to 8: 2^61 + 1 eight-byte elements.
  {
    ByteWriter out;
    out.u64((std::uint64_t{1} << 61) + 1);
    out.u64(0);
    const std::vector<std::byte> blob = out.take();
    expect_names_blob([&] {
      ByteReader in(blob, kBlob);
      (void)in.pod_vector<std::uint64_t>();
    });
    ByteReader in(blob, kBlob);
    expect_names_blob([&] { (void)in.count(8); });
  }
}

TEST(ByteCodec, CountAdmitsExactlyTheElementsThatFit) {
  ByteWriter out;
  out.u64(2);
  out.u64(10);
  out.u64(20);
  const std::vector<std::byte> blob = out.take();
  ByteReader fits(blob, kBlob);
  EXPECT_EQ(fits.count(8), 2u);
  ByteReader too_wide(blob, kBlob);
  expect_names_blob([&] { (void)too_wide.count(9); });
}

}  // namespace
}  // namespace epi
