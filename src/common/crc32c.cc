#include "common/crc32c.h"

#include <array>

// On x86-64 the SSE4.2 path is compiled for that target alone and chosen
// at run time, so a build for the baseline ISA still uses it.
#if defined(__x86_64__) && defined(__GNUC__)
#define LAZYXML_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace lazyxml {
namespace crc32c {

namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli

// Slicing-by-4 tables: table_[0] is the classic byte-at-a-time table;
// table_[k][b] is the CRC of byte b followed by k zero bytes.
struct Tables {
  std::array<std::array<uint32_t, 256>, 4> t{};

  constexpr Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xff];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xff];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xff];
    }
  }
};

constexpr Tables kTables;

uint32_t ExtendSoftware(uint32_t crc, const uint8_t* p, size_t n) {
  uint32_t c = crc;
  while (n >= 4) {
    c ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    c = kTables.t[3][c & 0xff] ^ kTables.t[2][(c >> 8) & 0xff] ^
        kTables.t[1][(c >> 16) & 0xff] ^ kTables.t[0][c >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    c = (c >> 8) ^ kTables.t[0][(c ^ *p++) & 0xff];
  }
  return c;
}

#if defined(LAZYXML_CRC32C_SSE42)
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc,
                                                          const uint8_t* p,
                                                          size_t n) {
  uint64_t c64 = crc;
  while (n >= 8) {
    uint64_t chunk;
    __builtin_memcpy(&chunk, p, 8);
    c64 = _mm_crc32_u64(c64, chunk);
    p += 8;
    n -= 8;
  }
  uint32_t c = static_cast<uint32_t>(c64);
  while (n-- > 0) {
    c = _mm_crc32_u8(c, *p++);
  }
  return c;
}
#endif

}  // namespace

bool HardwareAccelerated() {
#if defined(LAZYXML_CRC32C_SSE42)
  static const bool supported = [] {
    __builtin_cpu_init();  // may run before libgcc's own constructor
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n) {
  return ExtendSoftware(crc ^ 0xffffffffu, static_cast<const uint8_t*>(data),
                        n) ^
         0xffffffffu;
}

uint32_t Extend(uint32_t crc, const void* data, size_t n) {
#if defined(LAZYXML_CRC32C_SSE42)
  if (HardwareAccelerated()) {
    return ExtendHardware(crc ^ 0xffffffffu,
                          static_cast<const uint8_t*>(data), n) ^
           0xffffffffu;
  }
#endif
  return ExtendPortable(crc, data, n);
}

}  // namespace crc32c
}  // namespace lazyxml
