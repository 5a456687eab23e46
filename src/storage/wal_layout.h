// On-disk layout shared by the WAL writer, reader and recovery: the
// directory file-naming scheme and the record frame geometry.
//
// A database directory contains:
//   wal-NNNNNN.log      append-only record segments, NNNNNN ascending
//   snapshot-NNNNNN.bin full logical snapshot covering every record in
//                       wal segments with index <= NNNNNN
// plus transient "*.tmp" files from atomic writes (ignored / reclaimed).
//
// Each record in a segment is framed as
//   u32 crc     masked CRC32C of the payload (common/crc32c.h)
//   u32 length  payload size in bytes
//   payload     type byte + body (storage/log_record.h)
// in little-endian. See docs/WAL_FORMAT.md for the full story.

#ifndef LAZYXML_STORAGE_WAL_LAYOUT_H_
#define LAZYXML_STORAGE_WAL_LAYOUT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lazyxml {

/// Frame header: u32 masked crc + u32 payload length.
inline constexpr size_t kWalFrameHeaderBytes = 8;

/// Upper bound on one payload; a length field above this is corruption,
/// not a huge record (segments rotate long before this).
inline constexpr uint64_t kWalMaxRecordBytes = 1ull << 30;

/// "wal-000007.log" for index 7. Indices start at 1.
std::string WalSegmentFileName(uint64_t index);

/// "snapshot-000007.bin" for index 7.
std::string SnapshotFileName(uint64_t index);

/// Parses a WAL segment file name; nullopt if `name` is not one in the
/// canonical spelling WalSegmentFileName produces ("wal-7.log" is not).
std::optional<uint64_t> ParseWalSegmentFileName(std::string_view name);

/// Parses a snapshot file name; nullopt if `name` is not one.
std::optional<uint64_t> ParseSnapshotFileName(std::string_view name);

}  // namespace lazyxml

#endif  // LAZYXML_STORAGE_WAL_LAYOUT_H_
