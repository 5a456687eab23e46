#include "storage/wal_reader.h"

#include "common/crc32c.h"
#include "common/strings.h"
#include "storage/wal_layout.h"

namespace lazyxml {

namespace {

uint32_t LoadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24);
}

}  // namespace

WalReadOutcome WalSegmentReader::Next(LogRecord* record, Status* detail) {
  const uint64_t remaining = data_.size() - pos_;
  if (remaining == 0) return WalReadOutcome::kEnd;
  if (remaining < kWalFrameHeaderBytes) {
    *detail = Status::Corruption(StringPrintf(
        "torn frame header at offset %llu (%llu trailing bytes)",
        static_cast<unsigned long long>(pos_),
        static_cast<unsigned long long>(remaining)));
    return WalReadOutcome::kTornTail;
  }
  const char* base = data_.data() + pos_;
  const uint32_t stored_crc = LoadU32(base);
  const uint64_t length = LoadU32(base + 4);
  if (length > kWalMaxRecordBytes) {
    *detail = Status::Corruption(StringPrintf(
        "frame length %llu exceeds the record ceiling at offset %llu",
        static_cast<unsigned long long>(length),
        static_cast<unsigned long long>(pos_)));
    // An interrupted append can leave garbage in the length field only
    // at the tail; an insane length mid-file would also surface as
    // "runs past EOF", so classify by position like the other cases.
    return pos_ + kWalFrameHeaderBytes + length >= data_.size()
               ? WalReadOutcome::kTornTail
               : WalReadOutcome::kCorrupt;
  }
  if (length > remaining - kWalFrameHeaderBytes) {
    *detail = Status::Corruption(StringPrintf(
        "frame at offset %llu runs past end of segment",
        static_cast<unsigned long long>(pos_)));
    return WalReadOutcome::kTornTail;
  }
  const std::string_view payload =
      data_.substr(pos_ + kWalFrameHeaderBytes, length);
  const uint32_t actual_crc = crc32c::Mask(crc32c::Value(payload));
  const bool frame_at_eof =
      pos_ + kWalFrameHeaderBytes + length == data_.size();
  if (stored_crc != actual_crc) {
    *detail = Status::Corruption(StringPrintf(
        "bad record CRC at offset %llu",
        static_cast<unsigned long long>(pos_)));
    // A torn append can only be the last thing in the file; a CRC
    // mismatch with valid frames after it is damage, not a crash.
    return frame_at_eof ? WalReadOutcome::kTornTail
                        : WalReadOutcome::kCorrupt;
  }
  auto decoded = DecodeLogRecord(payload);
  if (!decoded.ok()) {
    // CRC-valid bytes that do not decode were written that way; this is
    // never a torn append.
    *detail = decoded.status().WithContext(StringPrintf(
        "record at offset %llu", static_cast<unsigned long long>(pos_)));
    return WalReadOutcome::kCorrupt;
  }
  *record = std::move(decoded).ValueOrDie();
  pos_ += kWalFrameHeaderBytes + length;
  return WalReadOutcome::kRecord;
}

}  // namespace lazyxml
