// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum guarding WAL record frames (storage/) — chosen over plain
// CRC32 for its better error-detection properties and because it is what
// LevelDB/RocksDB-style logs use, so the framing is familiar. On x86-64
// it uses the SSE4.2 crc32 instruction when the CPU reports it (checked
// once at run time, whatever -march the build used); elsewhere, and on
// older CPUs, a slicing-by-4 table implementation.

#ifndef LAZYXML_COMMON_CRC32C_H_
#define LAZYXML_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lazyxml {
namespace crc32c {

/// Extends `crc` (the checksum of some prior bytes) with `data[0,n)`.
uint32_t Extend(uint32_t crc, const void* data, size_t n);

/// True when Extend runs on the SSE4.2 crc32 instruction.
bool HardwareAccelerated();

/// Extend on the portable table path whatever the CPU (the reference
/// the hardware path is tested against).
uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n);

/// Checksum of `data[0,n)`.
inline uint32_t Value(const void* data, size_t n) {
  return Extend(0, data, n);
}

inline uint32_t Value(std::string_view s) { return Value(s.data(), s.size()); }

/// A CRC stored right next to the bytes it covers would checksum to a
/// fixed point if the data were itself a string of CRCs (and an
/// all-zeroes frame would carry a valid zero CRC in some schemes).
/// Masking (rotate + constant, as in LevelDB) breaks both: stored CRCs
/// are always masked.
inline constexpr uint32_t kMaskDelta = 0xa282ead8u;

inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked) {
  const uint32_t rot = masked - kMaskDelta;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace lazyxml

#endif  // LAZYXML_COMMON_CRC32C_H_
