// CompactTagScan / CompactElementIndex property tests: varint edge
// cases, encode -> decode round trips against the B+-tree scan on
// synthetic and XMark documents, block-geometry invariants (B1-B5 of
// core/compact_index.h), serialization, and corruption rejection.

#include "core/compact_index.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/serial.h"
#include "core/element_index.h"
#include "core/lazy_database.h"
#include "xml/parser.h"
#include "xmlgen/chopper.h"
#include "xmlgen/xmark_generator.h"

namespace lazyxml {
namespace {

using compactenc::GetVarint;
using compactenc::PutVarint;
using compactenc::ZigzagDecode;
using compactenc::ZigzagEncode;

TEST(VarintTest, RoundTripEdgeCases) {
  const uint64_t values[] = {0,
                             1,
                             127,    // largest 1-byte value
                             128,    // smallest 2-byte value
                             129,
                             16383,  // largest 2-byte value
                             16384,
                             (1ull << 21) - 1,
                             std::numeric_limits<uint32_t>::max(),
                             (1ull << 63) - 1,
                             1ull << 63,
                             std::numeric_limits<uint64_t>::max() - 1,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    std::vector<uint8_t> buf;
    PutVarint(&buf, v);
    EXPECT_LE(buf.size(), 10u) << v;
    if (v <= 127) {
      EXPECT_EQ(buf.size(), 1u) << v;
    }
    if (v >= 128 && v <= 16383) {
      EXPECT_EQ(buf.size(), 2u) << v;
    }
    const uint8_t* p = buf.data();
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint(&p, buf.data() + buf.size(), &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_EQ(p, buf.data() + buf.size()) << "consumed exactly, v=" << v;
  }
}

TEST(VarintTest, TruncatedInputRejected) {
  std::vector<uint8_t> buf;
  PutVarint(&buf, std::numeric_limits<uint64_t>::max());
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    const uint8_t* p = buf.data();
    uint64_t out = 0;
    EXPECT_FALSE(GetVarint(&p, buf.data() + cut, &out)) << "cut=" << cut;
  }
}

TEST(VarintTest, OverlongAndOverflowingEncodingsRejected) {
  // 10 continuation bytes: longer than any valid uint64 encoding.
  {
    std::vector<uint8_t> buf(10, 0x80);
    buf.push_back(0x01);
    const uint8_t* p = buf.data();
    uint64_t out = 0;
    EXPECT_FALSE(GetVarint(&p, buf.data() + buf.size(), &out));
  }
  // 10th byte carrying more than the top bit of a uint64 (value 2^64+).
  {
    std::vector<uint8_t> buf(9, 0x80);
    buf.push_back(0x02);
    const uint8_t* p = buf.data();
    uint64_t out = 0;
    EXPECT_FALSE(GetVarint(&p, buf.data() + buf.size(), &out));
  }
}

TEST(ZigzagTest, RoundTripAndSmallMagnitudeStaysSmall) {
  const int64_t values[] = {0, 1, -1, 2, -2, 63, -64,
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min()};
  for (int64_t v : values) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  // The point of zigzag: magnitude maps to magnitude (small extents get
  // 1-byte varints even though extent arithmetic is signed).
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_LT(ZigzagEncode(50), 128u);
}

std::vector<LocalElement> MakeElements(size_t count, Random* rng,
                                       uint64_t max_extent = 1000) {
  std::vector<LocalElement> elems;
  elems.reserve(count);
  uint64_t start = rng->Uniform(100);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t extent = 1 + rng->Uniform(max_extent);
    elems.push_back(LocalElement{start, start + extent,
                                 static_cast<uint32_t>(rng->Uniform(40))});
    start += 1 + rng->Uniform(50);
  }
  return elems;
}

void ExpectDecodesTo(const CompactTagScan& scan,
                     const std::vector<LocalElement>& want) {
  ASSERT_EQ(scan.count(), want.size());
  std::vector<LocalElement> got;
  ASSERT_TRUE(scan.DecodeAll(&got).ok());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].start, want[i].start) << i;
    EXPECT_EQ(got[i].end, want[i].end) << i;
    EXPECT_EQ(got[i].level, want[i].level) << i;
  }
}

TEST(CompactTagScanTest, EmptySpanEncodesToNothing) {
  auto scan = CompactTagScan::Encode({});
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.ValueOrDie().count(), 0u);
  EXPECT_EQ(scan.ValueOrDie().num_blocks(), 0u);
  EXPECT_TRUE(scan.ValueOrDie().Validate().ok());
  std::vector<LocalElement> out;
  EXPECT_TRUE(scan.ValueOrDie().DecodeAll(&out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(CompactTagScanTest, SingleRecordBlock) {
  const std::vector<LocalElement> one{{42, 99, 7}};
  auto scan_r = CompactTagScan::Encode(one);
  ASSERT_TRUE(scan_r.ok());
  const CompactTagScan& scan = scan_r.ValueOrDie();
  ASSERT_EQ(scan.num_blocks(), 1u);
  EXPECT_EQ(scan.header(0).first_start, 42u);
  EXPECT_EQ(scan.header(0).max_end, 99u);
  EXPECT_EQ(scan.header(0).count, 1u);
  ExpectDecodesTo(scan, one);
  EXPECT_TRUE(scan.Validate().ok());
}

TEST(CompactTagScanTest, MaximalExtentRecord) {
  // end - start at the int64 ceiling still round-trips through the
  // zigzag extent path.
  const uint64_t max = static_cast<uint64_t>(
      std::numeric_limits<int64_t>::max());
  const std::vector<LocalElement> elems{
      {0, max, 0},
      {5, 5 + max, std::numeric_limits<uint32_t>::max()}};
  auto scan = CompactTagScan::Encode(elems);
  ASSERT_TRUE(scan.ok());
  ExpectDecodesTo(scan.ValueOrDie(), elems);
}

TEST(CompactTagScanTest, EncodeRejectsInvalidInput) {
  EXPECT_FALSE(
      CompactTagScan::Encode(std::vector<LocalElement>{{5, 5, 0}}).ok());
  EXPECT_FALSE(
      CompactTagScan::Encode(std::vector<LocalElement>{{5, 3, 0}}).ok());
  EXPECT_FALSE(CompactTagScan::Encode(
                   std::vector<LocalElement>{{5, 9, 0}, {5, 10, 0}})
                   .ok());
  EXPECT_FALSE(CompactTagScan::Encode(
                   std::vector<LocalElement>{{9, 12, 0}, {5, 10, 0}})
                   .ok());
  // An extent one past INT64_MAX cannot be stored as a signed delta.
  const uint64_t too_wide =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + 1;
  EXPECT_TRUE(CompactTagScan::Encode(
                  std::vector<LocalElement>{{0, too_wide, 0}})
                  .status()
                  .IsInvalidArgument());
}

TEST(CompactTagScanTest, BlockGeometryInvariantsOnLargeList) {
  Random rng(7);
  const auto elems = MakeElements(10'000, &rng);
  auto scan_r = CompactTagScan::Encode(elems);
  ASSERT_TRUE(scan_r.ok());
  const CompactTagScan& scan = scan_r.ValueOrDie();
  EXPECT_GT(scan.num_blocks(), 1u);
  EXPECT_TRUE(scan.Validate().ok());

  LocalElement buf[kCompactBlockMaxRecords];
  size_t pos = 0;
  uint64_t prev_offset_end = 0;
  for (size_t b = 0; b < scan.num_blocks(); ++b) {
    const CompactBlockHeader& hdr = scan.header(b);
    ASSERT_GE(hdr.count, 1u);
    ASSERT_LE(hdr.count, kCompactBlockMaxRecords);
    EXPECT_EQ(hdr.byte_offset, prev_offset_end) << "blocks contiguous";
    prev_offset_end = hdr.byte_offset + hdr.byte_len;
    ASSERT_TRUE(scan.DecodeBlock(b, buf).ok());
    uint64_t max_end = 0;
    for (uint32_t i = 0; i < hdr.count; ++i) {
      ASSERT_LT(pos, elems.size());
      EXPECT_EQ(buf[i].start, elems[pos].start);
      EXPECT_EQ(buf[i].end, elems[pos].end);
      EXPECT_EQ(buf[i].level, elems[pos].level);
      max_end = std::max(max_end, buf[i].end);
      ++pos;
    }
    EXPECT_EQ(hdr.first_start, buf[0].start);
    EXPECT_EQ(hdr.max_end, max_end) << "skip header must be exact";
  }
  EXPECT_EQ(pos, elems.size());
  // Compression: dense lists with small deltas/extents must beat the raw
  // 20-byte LocalElement layout by a wide margin.
  EXPECT_LT(scan.MemoryBytes() * 3, elems.size() * sizeof(LocalElement));
}

TEST(CompactTagScanTest, RandomizedRoundTripAndSerialization) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Random rng(seed);
    const size_t count = 1 + rng.Uniform(5000);
    const uint64_t max_extent = 1 + rng.Uniform(1u << 20);
    const auto elems = MakeElements(count, &rng, max_extent);
    auto scan_r = CompactTagScan::Encode(elems);
    ASSERT_TRUE(scan_r.ok());
    const CompactTagScan& scan = scan_r.ValueOrDie();
    ExpectDecodesTo(scan, elems);

    ByteWriter w;
    scan.SerializeTo(&w);
    const std::string blob = w.TakeBuffer();
    ByteReader r(blob);
    auto restored = CompactTagScan::DeserializeFrom(&r);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_TRUE(r.AtEnd());
    ExpectDecodesTo(restored.ValueOrDie(), elems);
  }
}

TEST(CompactTagScanTest, CorruptedStreamsRejectedNotCrashed) {
  Random rng(11);
  const auto elems = MakeElements(2000, &rng);
  auto scan_r = CompactTagScan::Encode(elems);
  ASSERT_TRUE(scan_r.ok());
  ByteWriter w;
  scan_r.ValueOrDie().SerializeTo(&w);
  const std::string blob = w.TakeBuffer();

  // Truncations: every decode either fails cleanly or (for cuts inside
  // trailing slack that cannot exist here) round-trips.
  for (size_t cut : {blob.size() - 1, blob.size() / 2, size_t{12}}) {
    ByteReader r(std::string_view(blob).substr(0, cut));
    EXPECT_FALSE(CompactTagScan::DeserializeFrom(&r).ok()) << cut;
  }
  // Single-byte flips must never produce a scan that validates against a
  // different record set without noticing header/stream inconsistencies
  // that Validate() covers (flips may legally survive if they only alter
  // levels etc. — the property under test is "no crash, no false
  // Corruption-free truncation").
  Random flip_rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = blob;
    mutated[flip_rng.Uniform(mutated.size())] ^=
        static_cast<char>(1 + flip_rng.Uniform(255));
    ByteReader r(mutated);
    auto restored = CompactTagScan::DeserializeFrom(&r);
    if (restored.ok()) {
      std::vector<LocalElement> out;
      EXPECT_TRUE(restored.ValueOrDie().DecodeAll(&out).ok());
    }
  }
}

std::vector<ElementRecord> Parse(std::string_view text, TagDict* dict) {
  auto f = ParseFragment(text, dict);
  EXPECT_TRUE(f.ok());
  return f.ValueOrDie().records;
}

TEST(CompactElementIndexTest, BuildMatchesTreeScansOnSyntheticIndex) {
  TagDict dict;
  ElementIndex idx;
  ASSERT_TRUE(idx.InsertRecords(1, Parse("<a><b/><b/><c/></a>", &dict)).ok());
  ASSERT_TRUE(idx.InsertRecords(2, Parse("<a><b><c/></b></a>", &dict)).ok());
  ASSERT_TRUE(idx.InsertRecords(9, Parse("<c/>", &dict)).ok());

  auto compact_r = CompactElementIndex::Build(idx);
  ASSERT_TRUE(compact_r.ok());
  const auto& compact = *compact_r.ValueOrDie();
  EXPECT_EQ(compact.total_records(), idx.size());

  size_t lists = 0;
  compact.ForEachList([&](TagId tid, SegmentId sid,
                          const CompactTagScan& scan) {
    ++lists;
    ExpectDecodesTo(scan, *idx.GetScan(tid, sid));
    return true;
  });
  EXPECT_EQ(lists, compact.num_lists());
  // Every indexed (tag, segment) has a list; absent pairs return null.
  const TagId a = dict.Lookup("a").ValueOrDie();
  const TagId c = dict.Lookup("c").ValueOrDie();
  EXPECT_NE(compact.GetList(a, 1), nullptr);
  EXPECT_EQ(compact.GetList(a, 9), nullptr);
  EXPECT_NE(compact.GetList(c, 9), nullptr);
  EXPECT_EQ(compact.GetList(c, 777), nullptr);
}

TEST(CompactElementIndexTest, XMarkChoppedDatabaseRoundTripsAndCompresses) {
  XMarkConfig xcfg;
  xcfg.num_persons = 500;
  xcfg.num_items = 120;
  xcfg.num_open_auctions = 80;
  const std::string doc = XMarkGenerator(xcfg).Generate().ValueOrDie();
  ChopConfig chop;
  chop.num_segments = 10;
  chop.shape = ErTreeShape::kBalanced;
  auto plan = BuildChopPlan(doc, chop).ValueOrDie();

  LazyDatabase db;
  ASSERT_TRUE(db.ApplyPlan(plan.insertions).ok());
  db.Freeze();
  const ElementIndex& idx = db.element_index();

  auto compact_r = CompactElementIndex::Build(idx);
  ASSERT_TRUE(compact_r.ok());
  const auto compact = compact_r.ValueOrDie();
  EXPECT_EQ(compact->total_records(), idx.size());
  compact->ForEachList([&](TagId tid, SegmentId sid,
                           const CompactTagScan& scan) {
    ExpectDecodesTo(scan, *idx.GetScan(tid, sid));
    return true;
  });
  // The acceptance bar: >= 3x smaller than the frozen B+-tree footprint.
  EXPECT_LT(compact->MemoryBytes() * 3, idx.MemoryBytes())
      << "compact=" << compact->MemoryBytes()
      << " tree=" << idx.MemoryBytes();

  // Whole-index serialization round trip.
  ByteWriter w;
  compact->SerializeTo(&w);
  const std::string blob = w.TakeBuffer();
  ByteReader r(blob);
  auto restored = CompactElementIndex::DeserializeFrom(&r);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.ValueOrDie()->total_records(), idx.size());
  restored.ValueOrDie()->ForEachList(
      [&](TagId tid, SegmentId sid, const CompactTagScan& scan) {
        ExpectDecodesTo(scan, *idx.GetScan(tid, sid));
        return true;
      });

  // Adopting the index onto the database arms the scrubber's I-COMPACT
  // section; a record-for-record-equal index must scrub clean.
  db.AdoptCompactIndex(compact);
  ASSERT_NE(db.compact_index(), nullptr);
  EXPECT_TRUE(db.CheckInvariants().ok());
  // Any mutation stales it (epoch gate) — no scrub against a moved tree.
  ASSERT_TRUE(db.InsertSegment("<pad/>", 0).ok());
  EXPECT_EQ(db.compact_index(), nullptr);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

}  // namespace
}  // namespace lazyxml
