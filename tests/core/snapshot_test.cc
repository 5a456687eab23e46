#include "core/snapshot.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/serial.h"
#include "query/xpath.h"
#include "tests/testutil.h"
#include "xmlgen/chopper.h"
#include "xmlgen/synthetic_generator.h"

namespace lazyxml {
namespace {

std::unique_ptr<LazyDatabase> BuildSample(LogMode mode, std::string* shadow) {
  LazyDatabaseOptions opts;
  opts.mode = mode;
  auto db = std::make_unique<LazyDatabase>(opts);
  auto insert = [&](std::string_view text, uint64_t gp) {
    EXPECT_TRUE(db->InsertSegment(text, gp).ok());
    testutil::SpliceInsert(shadow, text, gp);
  };
  insert("<a><b/><w></w><b/></a>", 0);
  insert("<c><b/><d/></c>", 10);  // inside <w>
  insert("<d></d>", 13);          // inside the spliced <c>
  // A deletion so gaps are exercised: remove the first <b/> of segment 1.
  EXPECT_TRUE(db->RemoveSegment(3, 4).ok());
  testutil::SpliceRemove(shadow, 3, 4);
  return db;
}

void ExpectEquivalent(LazyDatabase* a, LazyDatabase* b,
                      const std::string& shadow) {
  auto sa = a->Stats();
  auto sb = b->Stats();
  EXPECT_EQ(sa.num_segments, sb.num_segments);
  EXPECT_EQ(sa.num_elements, sb.num_elements);
  EXPECT_EQ(sa.num_tags, sb.num_tags);
  EXPECT_EQ(sa.super_document_length, sb.super_document_length);
  for (const char* tag : {"a", "b", "c", "d", "w"}) {
    auto ea = a->MaterializeGlobalElements(tag).ValueOrDie();
    auto eb = b->MaterializeGlobalElements(tag).ValueOrDie();
    EXPECT_EQ(ea, eb) << tag;
    auto want = testutil::ElementsOf(shadow, tag);
    ASSERT_EQ(eb.size(), want.size()) << tag;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(eb[i], want[i]) << tag;
    }
  }
  EXPECT_EQ(a->JoinGlobal("a", "b").ValueOrDie(),
            b->JoinGlobal("a", "b").ValueOrDie());
  EXPECT_EQ(a->JoinGlobal("c", "d").ValueOrDie(),
            b->JoinGlobal("c", "d").ValueOrDie());
}

TEST(SnapshotTest, RoundTripLazyDynamic) {
  std::string shadow;
  auto db = BuildSample(LogMode::kLazyDynamic, &shadow);
  auto blob = SerializeDatabase(*db).ValueOrDie();
  auto restored = DeserializeDatabase(blob).ValueOrDie();
  EXPECT_EQ(restored->update_log().mode(), LogMode::kLazyDynamic);
  ASSERT_TRUE(restored->CheckInvariants().ok());
  ExpectEquivalent(db.get(), restored.get(), shadow);
}

TEST(SnapshotTest, RoundTripLazyStatic) {
  std::string shadow;
  auto db = BuildSample(LogMode::kLazyStatic, &shadow);
  db->Freeze();  // serialization requires a serviceable log
  auto blob = SerializeDatabase(*db).ValueOrDie();
  auto restored = DeserializeDatabase(blob).ValueOrDie();
  EXPECT_EQ(restored->update_log().mode(), LogMode::kLazyStatic);
  ExpectEquivalent(db.get(), restored.get(), shadow);
}

TEST(SnapshotTest, UnfrozenLsRejected) {
  LazyDatabaseOptions opts;
  opts.mode = LogMode::kLazyStatic;
  LazyDatabase db(opts);
  ASSERT_TRUE(db.InsertSegment("<a/>", 0).ok());
  EXPECT_TRUE(SerializeDatabase(db).status().IsInvalidArgument());
}

TEST(SnapshotTest, RestoredDatabaseAcceptsFurtherUpdates) {
  std::string shadow;
  auto db = BuildSample(LogMode::kLazyDynamic, &shadow);
  auto blob = SerializeDatabase(*db).ValueOrDie();
  auto restored = DeserializeDatabase(blob).ValueOrDie();
  // Insert after restore: sids must not collide.
  const uint64_t at = shadow.find("<w>") + 3;
  ASSERT_TRUE(restored->InsertSegment("<b><d/></b>", at).ok());
  testutil::SpliceInsert(&shadow, "<b><d/></b>", at);
  ASSERT_TRUE(restored->CheckInvariants().ok());
  auto got = restored->JoinGlobal("b", "d").ValueOrDie();
  EXPECT_EQ(got, testutil::OracleJoin(shadow, "b", "d"));
  // Compaction still works too.
  ASSERT_TRUE(restored->CompactAll().ok());
  EXPECT_EQ(restored->JoinGlobal("b", "d").ValueOrDie(),
            testutil::OracleJoin(shadow, "b", "d"));
}

TEST(SnapshotTest, RoundTripChoppedDocument) {
  SyntheticConfig cfg;
  cfg.target_elements = 900;
  cfg.num_tags = 4;
  cfg.seed = 51;
  const std::string doc = SyntheticGenerator(cfg).Generate().ValueOrDie();
  ChopConfig chop;
  chop.num_segments = 25;
  auto plan = BuildChopPlan(doc, chop).ValueOrDie();
  LazyDatabase db;
  ASSERT_TRUE(ApplyPlan(&db, plan.insertions).ok());
  auto blob = SerializeDatabase(db).ValueOrDie();
  auto restored = DeserializeDatabase(blob).ValueOrDie();
  for (const char* expr : {"t0//t1", "root//t2/t3", "t1//t1"}) {
    auto a = EvaluateQuery(&db, QuerySyntax::kPath, expr).ValueOrDie();
    auto b =
        EvaluateQuery(restored.get(), QuerySyntax::kPath, expr).ValueOrDie();
    EXPECT_EQ(a.refs.size(), b.refs.size()) << expr;
  }
}

TEST(SnapshotTest, SaveAndLoadFile) {
  std::string shadow;
  auto db = BuildSample(LogMode::kLazyDynamic, &shadow);
  const std::string path = ::testing::TempDir() + "/lazyxml_snapshot.bin";
  ASSERT_TRUE(SaveSnapshot(*db, path).ok());
  auto restored = LoadSnapshot(path).ValueOrDie();
  ExpectEquivalent(db.get(), restored.get(), shadow);
  std::remove(path.c_str());
  EXPECT_TRUE(LoadSnapshot(path).status().IsNotFound());
}

TEST(SnapshotTest, RejectsGarbage) {
  EXPECT_TRUE(DeserializeDatabase("").status().IsCorruption());
  EXPECT_TRUE(DeserializeDatabase("not a snapshot at all")
                  .status()
                  .IsCorruption());
}

TEST(SnapshotTest, RejectsBadMagicAndVersion) {
  std::string shadow;
  auto db = BuildSample(LogMode::kLazyDynamic, &shadow);
  auto blob = SerializeDatabase(*db).ValueOrDie();
  {
    std::string tampered = blob;
    tampered[8] = 'X';  // inside the magic bytes
    EXPECT_TRUE(DeserializeDatabase(tampered).status().IsCorruption());
  }
  {
    std::string tampered = blob;
    tampered[16] = 99;  // version field
    auto s = DeserializeDatabase(tampered).status();
    EXPECT_TRUE(s.IsNotSupported() || s.IsCorruption());
  }
}

TEST(SnapshotTest, TruncationAtEveryPrefixFailsCleanly) {
  std::string shadow;
  auto db = BuildSample(LogMode::kLazyDynamic, &shadow);
  auto blob = SerializeDatabase(*db).ValueOrDie();
  Random rng(13);
  for (int i = 0; i < 60; ++i) {
    const size_t cut = rng.Uniform(blob.size());
    auto r = DeserializeDatabase(std::string_view(blob).substr(0, cut));
    EXPECT_FALSE(r.ok()) << cut;
  }
}

TEST(SnapshotTest, RandomByteFlipsNeverCrash) {
  std::string shadow;
  auto db = BuildSample(LogMode::kLazyDynamic, &shadow);
  auto blob = SerializeDatabase(*db).ValueOrDie();
  Random rng(29);
  for (int round = 0; round < 200; ++round) {
    std::string tampered = blob;
    const int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      tampered[rng.Uniform(tampered.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    auto r = DeserializeDatabase(tampered);
    if (r.ok()) {
      // A flip that survives decoding must still yield a consistent DB.
      EXPECT_TRUE(r.ValueOrDie()->CheckInvariants().ok());
    }
  }
}

// The compact element index was removed; its v3 snapshot flag byte
// stays in the format (always written 0). A file written with the flag
// set — by a build that had the index and a caller that enabled it — is
// NotSupported, with or without the compact section that followed it.
TEST(SnapshotTest, CompactIndexFlagIsNotSupported) {
  std::string shadow;
  auto db = BuildSample(LogMode::kLazyDynamic, &shadow);
  auto blob = SerializeDatabase(*db).ValueOrDie();
  ASSERT_EQ(blob.back(), '\0');
  std::string flagged = blob;
  flagged.back() = 1;
  for (const std::string& tail : {std::string(), std::string(64, '\x5a')}) {
    auto r = DeserializeDatabase(flagged + tail);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsNotSupported()) << r.status().ToString();
    EXPECT_NE(r.status().message().find("compact"), std::string::npos);
  }
}

TEST(SnapshotTest, SnapshotWithoutCompactIndexLoadsWithoutOne) {
  std::string shadow;
  auto db = BuildSample(LogMode::kLazyDynamic, &shadow);
  auto blob = SerializeDatabase(*db).ValueOrDie();
  EXPECT_EQ(blob.back(), '\0') << "the compact-index flag is always 0";
  auto restored = DeserializeDatabase(blob).ValueOrDie();
  ExpectEquivalent(db.get(), restored.get(), shadow);
}

// Transcodes a current-version blob to the v2
// layout: v3 added the trailing compact-index flag byte and v4 added a
// tag id to every nesting summary entry; everything else is
// byte-identical. Reconstructing the legacy blob structurally keeps the
// compatibility test honest as the format grows.
std::string TranscodeToV2(std::string_view blob) {
  ByteReader r(blob);
  ByteWriter w;
  w.PutString(r.GetString().ValueOrDie());      // magic
  EXPECT_EQ(r.GetU32().ValueOrDie(), 4u);       // source version
  w.PutU32(2);
  w.PutU8(r.GetU8().ValueOrDie());              // mode
  w.PutU64(r.GetU64().ValueOrDie());            // next_sid
  const uint32_t num_tags = r.GetU32().ValueOrDie();
  w.PutU32(num_tags);
  for (uint32_t t = 0; t < num_tags; ++t) {
    w.PutString(r.GetString().ValueOrDie());
  }
  w.PutU64(r.GetU64().ValueOrDie());            // super-document length
  const uint64_t num_segments = r.GetU64().ValueOrDie();
  w.PutU64(num_segments);
  for (uint64_t s = 0; s < num_segments; ++s) {
    for (int i = 0; i < 5; ++i) {                // sid, parent, gp, l, lp
      w.PutU64(r.GetU64().ValueOrDie());
    }
    w.PutU32(r.GetU32().ValueOrDie());          // base_level
    const uint64_t num_gaps = r.GetU64().ValueOrDie();
    w.PutU64(num_gaps);
    for (uint64_t g = 0; g < 2 * num_gaps; ++g) {
      w.PutU64(r.GetU64().ValueOrDie());
    }
    const uint32_t num_dtags = r.GetU32().ValueOrDie();
    w.PutU32(num_dtags);
    for (uint32_t t = 0; t < num_dtags; ++t) {
      w.PutU32(r.GetU32().ValueOrDie());
    }
    const uint64_t num_summary = r.GetU64().ValueOrDie();
    w.PutU64(num_summary);
    for (uint64_t i = 0; i < num_summary; ++i) {
      w.PutU64(r.GetU64().ValueOrDie());        // start
      w.PutU64(r.GetU64().ValueOrDie());        // end
      w.PutU32(r.GetU32().ValueOrDie());        // parent
      w.PutU32(r.GetU32().ValueOrDie());        // level
      (void)r.GetU32().ValueOrDie();            // tid: v4-only, dropped
    }
    for (uint32_t t = 0; t < num_dtags; ++t) {
      const uint64_t num_elems = r.GetU64().ValueOrDie();
      w.PutU64(num_elems);
      for (uint64_t i = 0; i < num_elems; ++i) {
        w.PutU64(r.GetU64().ValueOrDie());      // start
        w.PutU64(r.GetU64().ValueOrDie());      // end
        w.PutU32(r.GetU32().ValueOrDie());      // level
      }
    }
  }
  const uint64_t num_entries = r.GetU64().ValueOrDie();
  w.PutU64(num_entries);
  for (uint64_t i = 0; i < num_entries; ++i) {
    w.PutU32(r.GetU32().ValueOrDie());          // tid
    w.PutU64(r.GetU64().ValueOrDie());          // count
    const uint32_t path_len = r.GetU32().ValueOrDie();
    w.PutU32(path_len);
    for (uint32_t p = 0; p < path_len; ++p) {
      w.PutU64(r.GetU64().ValueOrDie());
    }
  }
  EXPECT_EQ(r.GetU8().ValueOrDie(), 0u);        // compact flag: v3-only
  EXPECT_TRUE(r.AtEnd());
  return w.TakeBuffer();
}

TEST(SnapshotTest, Version2SnapshotsStillLoad) {
  std::string shadow;
  auto db = BuildSample(LogMode::kLazyDynamic, &shadow);
  auto blob = SerializeDatabase(*db).ValueOrDie();
  const std::string v2 = TranscodeToV2(blob);
  auto restored = DeserializeDatabase(v2).ValueOrDie();
  ASSERT_TRUE(restored->CheckInvariants().ok());
  ExpectEquivalent(db.get(), restored.get(), shadow);
}

TEST(SnapshotTest, BadCompactFlagRejected) {
  std::string shadow;
  auto db = BuildSample(LogMode::kLazyDynamic, &shadow);
  auto blob = SerializeDatabase(*db).ValueOrDie();
  std::string tampered = blob;
  tampered.back() = 7;  // flag must be 0 or 1
  EXPECT_TRUE(DeserializeDatabase(tampered).status().IsCorruption());
}

}  // namespace
}  // namespace lazyxml
