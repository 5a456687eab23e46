#include "core/compact_index.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/strings.h"
#include "obs/metrics.h"

namespace lazyxml {

namespace compactenc {

void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

bool GetVarintScalar(const uint8_t** p, const uint8_t* end, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  const uint8_t* cur = *p;
  while (cur < end && shift < 64) {
    const uint8_t byte = *cur++;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte may only carry the top bit of a uint64.
      if (shift == 63 && byte > 1) return false;
      *p = cur;
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated, or longer than 10 bytes
}

bool GetVarint(const uint8_t** p, const uint8_t* end, uint64_t* v) {
  const uint8_t* cur = *p;
  // Single-byte encodings dominate delta/extent/level streams; answer
  // them with one load before any SWAR setup.
  if (cur < end && *cur < 0x80) {
    *v = *cur;
    *p = cur + 1;
    return true;
  }
  if constexpr (std::endian::native == std::endian::little) {
    if (end - cur >= 8) {
      uint64_t word;
      std::memcpy(&word, cur, 8);
      const uint64_t stops = ~word & 0x8080808080808080ull;
      if (stops != 0) {
        // Terminator within the loaded word: n encoded bytes (1..8), so
        // the value fits in 56 bits and no length/top-bit checks apply.
        const int n = std::countr_zero(stops) / 8 + 1;
        if (n < 8) word &= (uint64_t{1} << (8 * n)) - 1;
        // Fold the per-byte 7-bit groups pairwise: 8x7 -> 4x14 -> 2x28
        // -> 1x56 bits.
        uint64_t x = word & 0x7f7f7f7f7f7f7f7full;
        x = (x & 0x007f007f007f007full) | ((x & 0x7f007f007f007f00ull) >> 1);
        x = (x & 0x00003fff00003fffull) | ((x & 0x3fff00003fff0000ull) >> 2);
        x = (x & 0x000000000fffffffull) | ((x & 0x0fffffff00000000ull) >> 4);
        *p = cur + n;
        *v = x;
        return true;
      }
      // 9-10-byte encodings (values above 2^56) are rare: scalar.
    }
  }
  return GetVarintScalar(p, end, v);
}

}  // namespace compactenc

namespace {

using compactenc::GetVarint;
using compactenc::PutVarint;
using compactenc::ZigzagDecode;
using compactenc::ZigzagEncode;

}  // namespace

Result<CompactTagScan> CompactTagScan::Encode(
    std::span<const LocalElement> elems) {
  CompactTagScan scan;
  scan.count_ = elems.size();
  if (elems.empty()) return scan;

  CompactBlockHeader hdr;
  size_t block_records = 0;
  uint64_t prev_start = 0;
  auto open_block = [&](const LocalElement& e) {
    hdr = CompactBlockHeader{};
    hdr.first_start = e.start;
    hdr.byte_offset = scan.bytes_.size();
    block_records = 0;
  };
  auto close_block = [&]() {
    hdr.count = static_cast<uint32_t>(block_records);
    hdr.byte_len =
        static_cast<uint32_t>(scan.bytes_.size() - hdr.byte_offset);
    scan.headers_.push_back(hdr);
  };

  for (size_t i = 0; i < elems.size(); ++i) {
    const LocalElement& e = elems[i];
    if (e.end <= e.start) {
      return Status::InvalidArgument(StringPrintf(
          "compact encode: empty or inverted interval [%llu, %llu)",
          static_cast<unsigned long long>(e.start),
          static_cast<unsigned long long>(e.end)));
    }
    if (i > 0 && e.start <= prev_start) {
      return Status::InvalidArgument(
          "compact encode: starts not strictly ascending");
    }
    // The extent is stored zigzagged as a signed value, so it must fit
    // int64; computing it unsigned keeps a maximal interval defined.
    const uint64_t extent = e.end - e.start;
    if (extent > static_cast<uint64_t>(INT64_MAX)) {
      return Status::InvalidArgument(StringPrintf(
          "compact encode: extent %llu exceeds INT64_MAX",
          static_cast<unsigned long long>(extent)));
    }
    const bool block_full =
        i > 0 && (block_records >= kCompactBlockMaxRecords ||
                  scan.bytes_.size() - hdr.byte_offset >=
                      kCompactBlockTargetBytes);
    if (i == 0 || block_full) {
      if (i > 0) close_block();
      open_block(e);
    } else {
      PutVarint(&scan.bytes_, e.start - prev_start);
    }
    PutVarint(&scan.bytes_, ZigzagEncode(static_cast<int64_t>(extent)));
    PutVarint(&scan.bytes_, e.level);
    hdr.max_end = std::max(hdr.max_end, e.end);
    prev_start = e.start;
    ++block_records;
  }
  close_block();
  scan.bytes_.shrink_to_fit();
  scan.headers_.shrink_to_fit();
  return scan;
}

Status CompactTagScan::DecodeBlock(size_t b, LocalElement* out) const {
  if (b >= headers_.size()) {
    return Status::Corruption("compact block index out of range");
  }
  const CompactBlockHeader& hdr = headers_[b];
  if (hdr.count == 0 || hdr.count > kCompactBlockMaxRecords) {
    return Status::Corruption(StringPrintf(
        "compact block %zu declares %u records (cap %zu)", b, hdr.count,
        kCompactBlockMaxRecords));
  }
  if (hdr.byte_offset > bytes_.size() ||
      hdr.byte_len > bytes_.size() - hdr.byte_offset) {
    return Status::Corruption("compact block bytes out of range");
  }
  const uint8_t* p = bytes_.data() + hdr.byte_offset;
  const uint8_t* end = p + hdr.byte_len;
  uint64_t start = hdr.first_start;
  uint64_t max_end = 0;
  for (uint32_t i = 0; i < hdr.count; ++i) {
    if (i > 0) {
      uint64_t delta = 0;
      if (!GetVarint(&p, end, &delta) || delta == 0) {
        return Status::Corruption("compact block: bad start delta");
      }
      if (start > UINT64_MAX - delta) {
        return Status::Corruption("compact block: start overflow");
      }
      start += delta;
    }
    uint64_t zz_extent = 0;
    uint64_t level = 0;
    if (!GetVarint(&p, end, &zz_extent) || !GetVarint(&p, end, &level)) {
      return Status::Corruption("compact block: truncated record");
    }
    const int64_t extent = ZigzagDecode(zz_extent);
    if (extent <= 0 ||
        static_cast<uint64_t>(extent) > UINT64_MAX - start) {
      return Status::Corruption("compact block: non-positive extent");
    }
    if (level > UINT32_MAX) {
      return Status::Corruption("compact block: level exceeds uint32");
    }
    out[i].start = start;
    out[i].end = start + static_cast<uint64_t>(extent);
    out[i].level = static_cast<uint32_t>(level);
    max_end = std::max(max_end, out[i].end);
  }
  if (p != end) {
    return Status::Corruption("compact block: trailing bytes");
  }
  if (max_end != hdr.max_end) {
    return Status::Corruption("compact block: max_end header mismatch");
  }
  return Status::OK();
}

Status CompactTagScan::DecodeAll(std::vector<LocalElement>* out) const {
  out->reserve(out->size() + count_);
  LocalElement buf[kCompactBlockMaxRecords];
  for (size_t b = 0; b < headers_.size(); ++b) {
    LAZYXML_RETURN_NOT_OK(DecodeBlock(b, buf));
    out->insert(out->end(), buf, buf + headers_[b].count);
  }
  return Status::OK();
}

Status CompactTagScan::Validate() const {
  uint64_t total = 0;
  uint64_t prev_last_start = 0;
  LocalElement buf[kCompactBlockMaxRecords];
  for (size_t b = 0; b < headers_.size(); ++b) {
    const CompactBlockHeader& hdr = headers_[b];
    LAZYXML_RETURN_NOT_OK(DecodeBlock(b, buf));
    if (hdr.first_start != buf[0].start) {
      return Status::Corruption("compact block: first_start mismatch");
    }
    if (b > 0 && hdr.first_start <= prev_last_start) {
      return Status::Corruption(
          "compact blocks: starts not ascending across blocks");
    }
    if (b > 0 &&
        hdr.byte_offset != headers_[b - 1].byte_offset +
                               headers_[b - 1].byte_len) {
      return Status::Corruption("compact blocks: byte ranges not contiguous");
    }
    prev_last_start = buf[hdr.count - 1].start;
    total += hdr.count;
  }
  if (total != count_) {
    return Status::Corruption("compact scan: record count mismatch");
  }
  const size_t stream_end =
      headers_.empty() ? 0
                       : headers_.back().byte_offset + headers_.back().byte_len;
  if (stream_end != bytes_.size()) {
    return Status::Corruption("compact scan: trailing stream bytes");
  }
  return Status::OK();
}

void CompactTagScan::SerializeTo(ByteWriter* w) const {
  w->PutU64(count_);
  w->PutU64(headers_.size());
  for (const CompactBlockHeader& h : headers_) {
    w->PutU64(h.first_start);
    w->PutU64(h.max_end);
    w->PutU32(h.count);
    w->PutU32(h.byte_len);
  }
  w->PutString(std::string_view(reinterpret_cast<const char*>(bytes_.data()),
                                bytes_.size()));
}

Result<CompactTagScan> CompactTagScan::DeserializeFrom(ByteReader* r) {
  CompactTagScan scan;
  LAZYXML_ASSIGN_OR_RETURN(scan.count_, r->GetU64());
  LAZYXML_ASSIGN_OR_RETURN(uint64_t num_blocks, r->GetU64());
  // Every block holds at least one record encoded in >= 2 bytes, so a
  // count beyond remaining() is corrupt without allocating anything.
  if (num_blocks > r->remaining() / 2 || scan.count_ < num_blocks ||
      scan.count_ > num_blocks * kCompactBlockMaxRecords) {
    return Status::Corruption("compact scan: implausible block count");
  }
  scan.headers_.reserve(num_blocks);
  uint64_t offset = 0;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    CompactBlockHeader h;
    LAZYXML_ASSIGN_OR_RETURN(h.first_start, r->GetU64());
    LAZYXML_ASSIGN_OR_RETURN(h.max_end, r->GetU64());
    LAZYXML_ASSIGN_OR_RETURN(h.count, r->GetU32());
    LAZYXML_ASSIGN_OR_RETURN(h.byte_len, r->GetU32());
    h.byte_offset = offset;
    if (offset > UINT64_MAX - h.byte_len) {
      return Status::Corruption("compact scan: byte offset overflow");
    }
    offset += h.byte_len;
    scan.headers_.push_back(h);
  }
  LAZYXML_ASSIGN_OR_RETURN(std::string bytes, r->GetString());
  if (bytes.size() != offset) {
    return Status::Corruption("compact scan: stream length mismatch");
  }
  scan.bytes_.assign(bytes.begin(), bytes.end());
  LAZYXML_RETURN_NOT_OK(scan.Validate());
  return scan;
}

Result<std::shared_ptr<const CompactElementIndex>> CompactElementIndex::Build(
    const ElementIndex& index) {
  auto compact = std::shared_ptr<CompactElementIndex>(
      new CompactElementIndex());
  // ForEachRecord yields (tid, sid, start) key order: lists arrive whole,
  // already start-sorted. Encode each run as it completes.
  std::vector<LocalElement> run;
  TagId run_tid = 0;
  SegmentId run_sid = 0;
  Status status;
  auto flush_run = [&]() {
    if (run.empty()) return;
    auto encoded = CompactTagScan::Encode(run);
    if (!encoded.ok()) {
      status = encoded.status();
      return;
    }
    compact->lists_.emplace(
        std::make_pair(run_tid, run_sid),
        std::make_shared<const CompactTagScan>(
            std::move(encoded).ValueOrDie()));
    compact->total_records_ += run.size();
    run.clear();
  };
  index.ForEachRecord([&](const ElementIndexRecord& rec) {
    if (!run.empty() && (rec.tid != run_tid || rec.sid != run_sid)) {
      flush_run();
      if (!status.ok()) return false;
    }
    run_tid = rec.tid;
    run_sid = rec.sid;
    run.push_back(LocalElement{rec.start, rec.end, rec.level});
    return true;
  });
  LAZYXML_RETURN_NOT_OK(status);
  flush_run();
  LAZYXML_RETURN_NOT_OK(status);
  return std::shared_ptr<const CompactElementIndex>(std::move(compact));
}

size_t CompactElementIndex::MemoryBytes() const {
  size_t bytes = sizeof(CompactElementIndex);
  for (const auto& [key, scan] : lists_) {
    // Map node: key/value pair plus the red-black bookkeeping (~3 ptrs +
    // color, rounded to 4 words).
    bytes += sizeof(key) + sizeof(scan) + 4 * sizeof(void*);
    bytes += scan->MemoryBytes();
  }
  return bytes;
}

void CompactElementIndex::ForEachList(
    const std::function<bool(TagId, SegmentId, const CompactTagScan&)>& fn)
    const {
  for (const auto& [key, scan] : lists_) {
    if (!fn(key.first, key.second, *scan)) return;
  }
}

void CompactElementIndex::SerializeTo(ByteWriter* w) const {
  w->PutU64(lists_.size());
  for (const auto& [key, scan] : lists_) {
    w->PutU32(key.first);
    w->PutU64(key.second);
    scan->SerializeTo(w);
  }
}

Result<std::shared_ptr<const CompactElementIndex>>
CompactElementIndex::DeserializeFrom(ByteReader* r) {
  auto compact = std::shared_ptr<CompactElementIndex>(
      new CompactElementIndex());
  LAZYXML_ASSIGN_OR_RETURN(uint64_t num_lists, r->GetU64());
  // Each serialized list is at least 2 u64s + a length-prefixed string.
  if (num_lists > r->remaining() / 16) {
    return Status::Corruption("compact index: implausible list count");
  }
  std::pair<TagId, SegmentId> prev_key{};
  for (uint64_t i = 0; i < num_lists; ++i) {
    LAZYXML_ASSIGN_OR_RETURN(uint32_t tid, r->GetU32());
    LAZYXML_ASSIGN_OR_RETURN(uint64_t sid, r->GetU64());
    const std::pair<TagId, SegmentId> key{tid, sid};
    if (i > 0 && key <= prev_key) {
      return Status::Corruption("compact index: list keys not ascending");
    }
    prev_key = key;
    LAZYXML_ASSIGN_OR_RETURN(CompactTagScan scan,
                             CompactTagScan::DeserializeFrom(r));
    if (scan.count() == 0) {
      return Status::Corruption("compact index: empty list serialized");
    }
    compact->total_records_ += scan.count();
    compact->lists_.emplace(
        key, std::make_shared<const CompactTagScan>(std::move(scan)));
  }
  return std::shared_ptr<const CompactElementIndex>(std::move(compact));
}

}  // namespace lazyxml
