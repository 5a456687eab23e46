#include "common/crc32c.h"

#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace lazyxml {
namespace {

// Standard CRC32C check vector: crc of the ASCII digits "123456789".
TEST(Crc32cTest, KnownVectors) {
  EXPECT_EQ(crc32c::Value("123456789"), 0xe3069283u);
  EXPECT_EQ(crc32c::Value(""), 0u);
  // 32 zero bytes (RFC 3720 test vector).
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros), 0x8a9136aau);
  // 32 0xff bytes.
  const std::string ones(32, '\xff');
  EXPECT_EQ(crc32c::Value(ones), 0x62a8ab43u);
}

TEST(Crc32cTest, PortablePathMatchesKnownVectors) {
  EXPECT_EQ(crc32c::ExtendPortable(0, "123456789", 9), 0xe3069283u);
  EXPECT_EQ(crc32c::ExtendPortable(0, "", 0), 0u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::ExtendPortable(0, zeros.data(), zeros.size()),
            0x8a9136aau);
  const std::string ones(32, '\xff');
  EXPECT_EQ(crc32c::ExtendPortable(0, ones.data(), ones.size()), 0x62a8ab43u);
}

// Extend takes the SSE4.2 path when the CPU has it; it must agree with
// the table path on every length around its 8-byte steps, on a large
// buffer, at every misalignment and when extending a prior checksum.
TEST(Crc32cTest, ExtendMatchesPortablePath) {
  if (!crc32c::HardwareAccelerated()) {
    std::cout << "note: no SSE4.2 on this CPU; Extend is the table path\n";
  }
  Random rng(19);
  std::string data;
  for (size_t i = 0; i < (16u << 10) + 8; ++i) {
    data.push_back(static_cast<char>(rng.Uniform(256)));
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    std::vector<size_t> lengths;
    for (size_t len = 0; len <= 70; ++len) lengths.push_back(len);
    lengths.push_back(16u << 10);
    for (size_t len : lengths) {
      const char* p = data.data() + offset;
      EXPECT_EQ(crc32c::Extend(0, p, len), crc32c::ExtendPortable(0, p, len))
          << "offset " << offset << " length " << len;
      const uint32_t prior = static_cast<uint32_t>(rng.Uniform(
          uint64_t{1} << 32));
      EXPECT_EQ(crc32c::Extend(prior, p, len),
                crc32c::ExtendPortable(prior, p, len))
          << "offset " << offset << " length " << len << " from " << prior;
    }
  }
}

TEST(Crc32cTest, ExtendMatchesWholeBuffer) {
  Random rng(7);
  std::string data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<char>(rng.Uniform(256)));
  }
  const uint32_t whole = crc32c::Value(data);
  for (size_t split : {size_t{0}, size_t{1}, size_t{3}, size_t{500},
                       size_t{999}, data.size()}) {
    const uint32_t partial = crc32c::Extend(
        crc32c::Value(data.data(), split), data.data() + split,
        data.size() - split);
    EXPECT_EQ(partial, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  Random rng(11);
  for (int i = 0; i < 200; ++i) {
    const uint32_t crc =
        static_cast<uint32_t>(rng.Uniform(uint64_t{1} << 32));
    const uint32_t masked = crc32c::Mask(crc);
    EXPECT_EQ(crc32c::Unmask(masked), crc);
    EXPECT_NE(masked, crc);  // holds for all inputs given kMaskDelta
  }
  // Zero does not map to zero: an all-zeroes frame never looks valid.
  EXPECT_NE(crc32c::Mask(0), 0u);
}

TEST(Crc32cTest, SensitiveToEveryByte) {
  const std::string base = "the quick brown fox jumps over the lazy dog";
  const uint32_t want = crc32c::Value(base);
  for (size_t i = 0; i < base.size(); ++i) {
    std::string flipped = base;
    flipped[i] ^= 0x01;
    EXPECT_NE(crc32c::Value(flipped), want) << "byte " << i;
  }
}

}  // namespace
}  // namespace lazyxml
