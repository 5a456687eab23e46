// CompactElementIndex: the succinct post-Freeze representation of the
// element index that the Lazy-Join kernels scan directly.
//
// After Freeze() the per-(tag, segment) element lists are immutable, yet
// the B+-tree stores them as full-width (start, end, level) records in
// heap leaves — pointer-chasing and cache-missing through data that is
// highly compressible (Maneth & Sebastian, "Fast and Tiny Structural
// Self-Indexes for XML", PAPERS.md). This module re-packs each list into
// a columnar byte stream:
//
//   * `start` — lists are start-sorted and starts are unique, so the
//     stream stores varint deltas (strictly positive between records;
//     the first start of each block lives in the block header);
//   * `end`   — stored as the zigzag-varint extent `end - start` (small
//     for leaves, bounded by the segment for the root);
//   * `level` — plain varint (tiny: document depth).
//
// Records are grouped into blocks of at most kCompactBlockTargetBytes
// encoded bytes / kCompactBlockMaxRecords records, each carrying a skip
// header (first_start, max_end, count). The headers alone answer "can
// any element of this block straddle splice position p?" — a block with
// no p in (first_start, max_end) provably holds no straddler, so the
// straddle filter skips it without decoding a single record. Both caps
// bound the decode working set, so one block always fits a fixed-size
// buffer.
//
// Format invariants (checked by DecodeBlock / Validate, fuzzed by
// fuzz/fuzz_compact.cc, proven equal to the tree by the scrubber's
// I-COMPACT validator in check/database_check.h):
//   B1. header.count in [1, kCompactBlockMaxRecords];
//   B2. record starts strictly increase within a block and across
//       consecutive blocks (header.first_start of block b+1 is greater
//       than the last start of block b);
//   B3. every extent is > 0 (end > start) and every level fits uint32;
//   B4. a block's encoded bytes decode to exactly header.count records
//       with no bytes left over;
//   B5. header.max_end equals the maximum decoded end of the block.
//
// See docs/COMPACT_INDEX.md for the full write-up, including the
// serial-equivalence argument for block cursors in the join kernels.

#ifndef LAZYXML_CORE_COMPACT_INDEX_H_
#define LAZYXML_CORE_COMPACT_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/serial.h"
#include "core/element_index.h"
#include "core/segment.h"
#include "xml/tag_dict.h"

namespace lazyxml {

/// Target encoded bytes per block; a block closes at the first record
/// boundary at or past this size.
inline constexpr size_t kCompactBlockTargetBytes = 4096;
/// Hard per-block record cap (trips before the byte cap on very dense
/// streams); bounds the decode buffer a cursor needs.
inline constexpr size_t kCompactBlockMaxRecords = 1024;

namespace compactenc {

/// LEB128-style base-128 varint append.
void PutVarint(std::vector<uint8_t>* out, uint64_t v);

/// Bounds-checked varint read: advances *p past the encoding on success.
/// Fails on truncation and on encodings longer than 10 bytes. Dispatches
/// to a SWAR fast path (one 8-byte load locates the terminator, three
/// shift-mask folds gather the 7-bit groups) when at least 8 bytes
/// remain; falls back to the scalar loop near the buffer tail, for
/// 9-10-byte encodings, and on big-endian targets.
bool GetVarint(const uint8_t** p, const uint8_t* end, uint64_t* v);

/// The portable scalar decode loop — same contract as GetVarint. Kept
/// callable so bench_compact_index can report the scalar-vs-SWAR delta.
bool GetVarintScalar(const uint8_t** p, const uint8_t* end, uint64_t* v);

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace compactenc

/// Skip header of one encoded block (invariants B1–B5 above).
struct CompactBlockHeader {
  uint64_t first_start = 0;  ///< start of the block's first record
  uint64_t max_end = 0;      ///< max end over the block's records
  uint64_t byte_offset = 0;  ///< offset of the block's bytes in the stream
  uint32_t count = 0;        ///< records in the block
  uint32_t byte_len = 0;     ///< encoded length of the block
};

/// One (tag, segment) element list in compact columnar form. Immutable
/// after Encode; shared by const handle.
class CompactTagScan {
 public:
  /// Encodes `elems` (strictly ascending start, end > start — the order
  /// ElementIndex::GetScan returns). InvalidArgument otherwise.
  static Result<CompactTagScan> Encode(std::span<const LocalElement> elems);

  uint64_t count() const { return count_; }
  size_t num_blocks() const { return headers_.size(); }
  const CompactBlockHeader& header(size_t b) const { return headers_[b]; }
  std::span<const CompactBlockHeader> headers() const { return headers_; }
  std::span<const uint8_t> bytes() const { return bytes_; }

  /// Actual heap footprint of the compact representation (what the scan
  /// cache charges for a compressed entry).
  size_t MemoryBytes() const {
    return sizeof(CompactTagScan) +
           headers_.capacity() * sizeof(CompactBlockHeader) +
           bytes_.capacity();
  }

  /// Decodes block `b` into out[0 .. header(b).count). The caller's
  /// buffer must hold at least kCompactBlockMaxRecords records.
  /// Corruption on any invariant violation (B1–B5).
  Status DecodeBlock(size_t b, LocalElement* out) const;

  /// Decodes every block, appending to `*out`.
  Status DecodeAll(std::vector<LocalElement>* out) const;

  /// Full structural validation: decodes every block and re-checks the
  /// cross-block ordering invariant (B2). Cheap relative to a rebuild.
  Status Validate() const;

  /// Serialization for the snapshot's compact section (core/snapshot.cc).
  void SerializeTo(ByteWriter* w) const;
  static Result<CompactTagScan> DeserializeFrom(ByteReader* r);

 private:
  CompactTagScan() = default;

  std::vector<CompactBlockHeader> headers_;
  std::vector<uint8_t> bytes_;
  uint64_t count_ = 0;
};

/// Shareable immutable handle to one compact list.
using CompactScanHandle = std::shared_ptr<const CompactTagScan>;

/// The compact element index: every (tid, sid) list of the frozen
/// B+-tree index, re-encoded. Built by LazyDatabase::Freeze() when
/// QueryOptions::use_compact_index is set; record-for-record equal to
/// the tree (invariant I-COMPACT, enforced by check::CheckDatabase).
class CompactElementIndex {
 public:
  /// Re-encodes every list of `index` (one ForEachRecord pass — records
  /// arrive grouped by (tid, sid) in ascending start order).
  static Result<std::shared_ptr<const CompactElementIndex>> Build(
      const ElementIndex& index);

  /// The compact list for (tid, sid); nullptr when the index holds no
  /// such records (an empty list).
  CompactScanHandle GetList(TagId tid, SegmentId sid) const {
    auto it = lists_.find({tid, sid});
    return it == lists_.end() ? nullptr : it->second;
  }

  uint64_t total_records() const { return total_records_; }
  size_t num_lists() const { return lists_.size(); }

  /// Heap footprint of the whole compact index (headers + streams + map).
  size_t MemoryBytes() const;

  /// Visits every list in ascending (tid, sid) order (deterministic, for
  /// the scrubber and serialization). `fn` returning false stops.
  void ForEachList(
      const std::function<bool(TagId, SegmentId, const CompactTagScan&)>& fn)
      const;

  /// Snapshot section (core/snapshot.cc, format v3).
  void SerializeTo(ByteWriter* w) const;
  /// Deserializes and fully validates (every block decoded once), so an
  /// installed compact index never fails to decode later.
  static Result<std::shared_ptr<const CompactElementIndex>> DeserializeFrom(
      ByteReader* r);

 private:
  CompactElementIndex() = default;

  /// Ordered map: GetList is O(log lists) — negligible next to a decode —
  /// and iteration order is the deterministic (tid, sid) order that the
  /// scrubber and snapshot serialization depend on.
  std::map<std::pair<TagId, SegmentId>, CompactScanHandle> lists_;
  uint64_t total_records_ = 0;
};

}  // namespace lazyxml

#endif  // LAZYXML_CORE_COMPACT_INDEX_H_
