// WalSegmentReader: decodes the record frames of one WAL segment held in
// memory, distinguishing three end states:
//
//  * clean end     — the last frame ends exactly at EOF;
//  * torn tail     — the bytes after the valid prefix look like an
//                    interrupted append (incomplete header, frame
//                    running past EOF, or a CRC-bad frame that is the
//                    last thing in the file). Expected after a crash;
//                    recovery truncates replay here.
//  * corruption    — a CRC-bad frame with more data after it, or a
//                    CRC-valid frame whose payload does not decode.
//                    Never expected; recovery fails. (A frame whose
//                    length field runs past EOF is classified as torn
//                    even mid-damage: it is exactly what an interrupted
//                    large append looks like.)
//
// The valid-prefix offset is exposed so callers (and the fault-injection
// tests) can assert exactly how much of a damaged log remains usable.

#ifndef LAZYXML_STORAGE_WAL_READER_H_
#define LAZYXML_STORAGE_WAL_READER_H_

#include <cstdint>
#include <string_view>

#include "common/result.h"
#include "storage/log_record.h"

namespace lazyxml {

enum class WalReadOutcome {
  kRecord,    ///< one record decoded
  kEnd,       ///< clean end of segment
  kTornTail,  ///< interrupted append at the tail; prefix is usable
  kCorrupt,   ///< damage that cannot be a torn append
};

class WalSegmentReader {
 public:
  explicit WalSegmentReader(std::string_view data) : data_(data) {}

  /// Advances past the next frame. On kRecord fills `record`; on
  /// kTornTail / kCorrupt fills `detail` with a description (the reader
  /// stays at the valid prefix and repeats the same outcome).
  WalReadOutcome Next(LogRecord* record, Status* detail);

  /// Offset one past the last cleanly decoded frame.
  uint64_t valid_prefix_bytes() const { return pos_; }

 private:
  std::string_view data_;
  uint64_t pos_ = 0;
};

}  // namespace lazyxml

#endif  // LAZYXML_STORAGE_WAL_READER_H_
