// CRC32C: the SSE4.2 path and the portable slice-by-4 path must agree on
// every input, because which one runs depends on the host while every run
// must reproduce bit-for-bit from its seed.
#include "util/crc32c.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "util/codec.hpp"
#include "util/rng.hpp"

namespace ftvod::util {
namespace {

std::span<const std::byte> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.uniform_int(0, 255));
  return b;
}

#define REQUIRE_HARDWARE()                                  \
  if (!crc32c_hardware_available()) {                       \
    GTEST_SKIP() << "CPU has no SSE4.2; portable path only"; \
  }

TEST(Crc32c, KnownVector) {
  const auto check = as_bytes("123456789");
  EXPECT_EQ(crc32c_portable(check), 0xE3069283u);
  EXPECT_EQ(crc32c(check), 0xE3069283u);
  EXPECT_EQ(crc32c_portable({}), 0u);
  if (crc32c_hardware_available()) {
    EXPECT_EQ(crc32c_hardware(check), 0xE3069283u);
    EXPECT_EQ(crc32c_hardware({}), 0u);
  }
}

TEST(Crc32c, PathsAgreeOnEveryLengthUpTo1024) {
  REQUIRE_HARDWARE();
  const Bytes data = random_bytes(1024, 1);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const std::span<const std::byte> s(data.data(), n);
    ASSERT_EQ(crc32c_hardware(s), crc32c_portable(s)) << "length " << n;
  }
}

TEST(Crc32c, PathsAgreeOn64KiB) {
  REQUIRE_HARDWARE();
  const Bytes data = random_bytes(64 * 1024, 2);
  EXPECT_EQ(crc32c_hardware(data), crc32c_portable(data));
  EXPECT_EQ(crc32c(data), crc32c_portable(data));
}

TEST(Crc32c, PathsAgreeAtEveryStartAlignment) {
  REQUIRE_HARDWARE();
  const Bytes data = random_bytes(300, 3);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 200u}) {
      const std::span<const std::byte> s(data.data() + offset, n);
      ASSERT_EQ(crc32c_hardware(s), crc32c_portable(s))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32c, ChainedSeedsEqualOneShot) {
  const Bytes data = random_bytes(777, 4);
  const std::uint32_t whole = crc32c_portable(data);
  for (std::size_t cut : {0u, 1u, 5u, 8u, 100u, 776u, 777u}) {
    const std::span<const std::byte> all(data);
    const auto head = all.first(cut);
    const auto tail = all.subspan(cut);
    EXPECT_EQ(crc32c_portable(tail, crc32c_portable(head)), whole)
        << "cut " << cut;
    EXPECT_EQ(crc32c(tail, crc32c(head)), whole) << "cut " << cut;
    if (crc32c_hardware_available()) {
      EXPECT_EQ(crc32c_hardware(tail, crc32c_hardware(head)), whole)
          << "cut " << cut;
      // The paths interoperate mid-stream too.
      EXPECT_EQ(crc32c_hardware(tail, crc32c_portable(head)), whole)
          << "cut " << cut;
    }
  }
}

TEST(Crc32c, PathsAgreeOnArbitrarySeeds) {
  REQUIRE_HARDWARE();
  const Bytes data = random_bytes(129, 5);
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const auto seed =
        static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFF));
    ASSERT_EQ(crc32c_hardware(data, seed), crc32c_portable(data, seed))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace ftvod::util
