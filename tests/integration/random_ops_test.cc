// Randomized update property test: a LazyDatabase and a naive text
// "shadow document" receive the same random insert/remove stream; after
// every step the database must agree with a fresh parse of the text —
// element materializations, join results, internal invariants.
//
// The crash-recovery variant at the bottom runs the same random stream
// through a DurableLazyDatabase, then simulates a crash at random WAL
// byte offsets: recover, replay the ops the crash cut off, and the
// result must equal the uninterrupted run.

#include <string>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "common/random.h"
#include "core/lazy_database.h"
#include "storage/durable_database.h"
#include "storage/wal_layout.h"
#include "storage/wal_reader.h"
#include "tests/testutil.h"

namespace lazyxml {
namespace {

constexpr const char* kTags[] = {"A", "D", "m", "n"};

// Small random well-formed fragment (single root).
std::string RandomFragment(Random* rng, int depth = 0) {
  const char* tag = kTags[rng->Uniform(4)];
  std::string out = std::string("<") + tag + ">";
  const int children = depth >= 3 ? 0 : static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < children; ++i) {
    out += RandomFragment(rng, depth + 1);
  }
  if (children == 0 && rng->Bernoulli(0.5)) out += "text";
  out += std::string("</") + tag + ">";
  return out;
}

struct RandomOpsParam {
  uint64_t seed;
  LogMode mode;
  double remove_probability;
};

class RandomOpsTest : public ::testing::TestWithParam<RandomOpsParam> {};

TEST_P(RandomOpsTest, DatabaseTracksShadowDocument) {
  const RandomOpsParam param = GetParam();
  Random rng(param.seed);
  LazyDatabaseOptions opts;
  opts.mode = param.mode;
  LazyDatabase db(opts);
  std::string shadow;

  auto verify_full = [&]() {
    ASSERT_TRUE(db.CheckInvariants().ok());
    for (const char* tag : kTags) {
      auto got = db.MaterializeGlobalElements(tag).ValueOrDie();
      auto want = testutil::ElementsOf(shadow, tag);
      ASSERT_EQ(got.size(), want.size()) << tag << " in: " << shadow;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << tag << " #" << i << " in: " << shadow;
      }
    }
    auto join = db.JoinGlobal("A", "D").ValueOrDie();
    auto want_join = testutil::OracleJoin(shadow, "A", "D");
    ASSERT_EQ(join, want_join) << shadow;
    auto self_join = db.JoinGlobal("A", "A").ValueOrDie();
    ASSERT_EQ(self_join, testutil::OracleJoin(shadow, "A", "A")) << shadow;
  };

  for (int op = 0; op < 80; ++op) {
    // Candidate positions: element boundaries and just-inside-open-tag
    // positions of the current text (all guaranteed splice-safe).
    TagDict dict;
    auto parsed = ParseFragment(shadow, &dict).ValueOrDie();
    const auto& records = parsed.records;

    const bool remove = !records.empty() &&
                        rng.Bernoulli(param.remove_probability);
    if (remove) {
      const ElementRecord& victim =
          records[rng.Uniform(records.size())];
      ASSERT_TRUE(db.RemoveSegment(victim.start, victim.end - victim.start)
                      .ok())
          << shadow;
      testutil::SpliceRemove(&shadow, victim.start,
                             victim.end - victim.start);
    } else {
      uint64_t gp = 0;
      if (!records.empty()) {
        const ElementRecord& around = records[rng.Uniform(records.size())];
        switch (rng.Uniform(3)) {
          case 0:
            gp = around.start;  // just before the element
            break;
          case 1:
            gp = shadow.find('>', around.start) + 1;  // just inside
            break;
          case 2:
            gp = around.end;  // just after
            break;
        }
      }
      const std::string frag = RandomFragment(&rng);
      ASSERT_TRUE(db.InsertSegment(frag, gp).ok())
          << "gp=" << gp << " frag=" << frag << " in: " << shadow;
      testutil::SpliceInsert(&shadow, frag, gp);
    }
    ASSERT_TRUE(IsWellFormedDocument(shadow) ||
                ParseFragment(shadow, &dict).ok())
        << shadow;
    if (op % 10 == 9) verify_full();
    // Occasional maintenance: collapse a random segment subtree (never
    // the dummy root). Queries must be unaffected.
    if (op % 23 == 22) {
      const auto& children = db.update_log().root()->children;
      if (!children.empty()) {
        const SegmentNode* pick =
            children[rng.Uniform(children.size())];
        ASSERT_TRUE(db.CollapseSubtree(pick->sid).ok());
        verify_full();
      }
    }
  }
  verify_full();
}

// ---------------------------------------------------------------------------
// Crash-recovery property test.

std::string CleanDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lazyxml_randomops_" + name;
  EXPECT_TRUE(CreateDirIfMissing(dir).ok());
  auto names = ListDirectory(dir);
  EXPECT_TRUE(names.ok());
  for (const auto& n : names.ValueOrDie()) {
    EXPECT_TRUE(RemoveFileIfExists(dir + "/" + n).ok());
  }
  return dir;
}

/// One random splice-safe update against `db` (durable facade), mirrored
/// into `shadow`.
void PerformRandomOp(DurableLazyDatabase* db, std::string* shadow,
                     Random* rng, double remove_probability) {
  TagDict dict;
  auto parsed = ParseFragment(*shadow, &dict).ValueOrDie();
  const auto& records = parsed.records;
  const bool remove = !records.empty() && rng->Bernoulli(remove_probability);
  if (remove) {
    const ElementRecord& victim = records[rng->Uniform(records.size())];
    ASSERT_TRUE(
        db->RemoveSegment(victim.start, victim.end - victim.start).ok())
        << *shadow;
    testutil::SpliceRemove(shadow, victim.start, victim.end - victim.start);
    return;
  }
  uint64_t gp = 0;
  if (!records.empty()) {
    const ElementRecord& around = records[rng->Uniform(records.size())];
    switch (rng->Uniform(3)) {
      case 0:
        gp = around.start;
        break;
      case 1:
        gp = shadow->find('>', around.start) + 1;
        break;
      case 2:
        gp = around.end;
        break;
    }
  }
  const std::string frag = RandomFragment(rng);
  ASSERT_TRUE(db->InsertSegment(frag, gp).ok())
      << "gp=" << gp << " frag=" << frag << " in: " << *shadow;
  testutil::SpliceInsert(shadow, frag, gp);
}

void ExpectRecoveredStateMatches(LazyDatabase* db, const std::string& shadow,
                                 SegmentId want_next_sid) {
  ASSERT_TRUE(db->CheckInvariants().ok());
  EXPECT_EQ(db->update_log().next_sid(), want_next_sid);
  for (const char* tag : kTags) {
    auto got = db->MaterializeGlobalElements(tag).ValueOrDie();
    auto want = testutil::ElementsOf(shadow, tag);
    ASSERT_EQ(got.size(), want.size()) << tag;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << tag << " #" << i;
    }
  }
  EXPECT_EQ(db->JoinGlobal("A", "D").ValueOrDie(),
            testutil::OracleJoin(shadow, "A", "D"));
  EXPECT_EQ(db->JoinGlobal("m", "n").ValueOrDie(),
            testutil::OracleJoin(shadow, "m", "n"));
}

void RunCrashRecoveryProperty(LogMode mode, uint64_t seed) {
  Random rng(seed);
  const std::string build_dir =
      CleanDir(std::string("build_") + LogModeName(mode));
  DurableOptions options;
  options.db.mode = mode;

  // Phase 1: the uninterrupted run. Random updates, an occasional query
  // (which in LS mode journals the freeze point), an occasional collapse.
  std::string shadow;
  SegmentId final_next_sid = 0;
  {
    auto db = DurableLazyDatabase::Open(build_dir, options).ValueOrDie();
    for (int op = 0; op < 40; ++op) {
      PerformRandomOp(db.get(), &shadow, &rng, 0.3);
      if (::testing::Test::HasFatalFailure()) return;
      if (op % 11 == 10) {
        EXPECT_EQ(db->database().JoinGlobal("A", "D").ValueOrDie(),
                  testutil::OracleJoin(shadow, "A", "D"));
      }
      if (op % 17 == 16) {
        const auto& children = db->database().update_log().root()->children;
        if (!children.empty()) {
          ASSERT_TRUE(
              db->CollapseSubtree(children[rng.Uniform(children.size())]->sid)
                  .ok());
        }
      }
    }
    final_next_sid = db->database().update_log().next_sid();
    ExpectRecoveredStateMatches(&db->database(), shadow, final_next_sid);
  }

  // The full op stream, exactly as persisted (freeze markers included).
  const std::string data =
      ReadFileToString(build_dir + "/" + WalSegmentFileName(1)).ValueOrDie();
  std::vector<LogRecord> all;
  {
    WalSegmentReader reader(data);
    LogRecord rec;
    Status detail;
    WalReadOutcome outcome;
    while ((outcome = reader.Next(&rec, &detail)) == WalReadOutcome::kRecord) {
      all.push_back(rec);
    }
    ASSERT_EQ(outcome, WalReadOutcome::kEnd) << detail.ToString();
  }

  // Phase 2: crash at random WAL offsets. Recover, replay what the crash
  // cut off, compare against the uninterrupted run.
  const std::string crash_dir =
      CleanDir(std::string("crash_") + LogModeName(mode));
  const std::string wal_path = crash_dir + "/" + WalSegmentFileName(1);
  for (int round = 0; round < 15; ++round) {
    const size_t cut = rng.Uniform(data.size() + 1);
    ASSERT_TRUE(WriteFileAtomic(wal_path, data.substr(0, cut)).ok());
    auto recovered = RecoverDatabase(crash_dir, {options.db, false});
    ASSERT_TRUE(recovered.ok())
        << "cut " << cut << ": " << recovered.status().ToString();
    auto& r = recovered.ValueOrDie();
    ASSERT_LE(r.stats.records_replayed, all.size()) << "cut " << cut;
    for (size_t i = r.stats.records_replayed; i < all.size(); ++i) {
      ASSERT_TRUE(ApplyLogRecord(r.db.get(), all[i]).ok())
          << "cut " << cut << " record " << i;
    }
    ExpectRecoveredStateMatches(r.db.get(), shadow, final_next_sid);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RandomOpsCrashRecoveryTest, LazyDynamic) {
  RunCrashRecoveryProperty(LogMode::kLazyDynamic, 101);
}

TEST(RandomOpsCrashRecoveryTest, LazyStatic) {
  RunCrashRecoveryProperty(LogMode::kLazyStatic, 202);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, RandomOpsTest,
    ::testing::Values(RandomOpsParam{11, LogMode::kLazyDynamic, 0.25},
                      RandomOpsParam{22, LogMode::kLazyDynamic, 0.40},
                      RandomOpsParam{33, LogMode::kLazyDynamic, 0.10},
                      RandomOpsParam{44, LogMode::kLazyStatic, 0.25},
                      RandomOpsParam{55, LogMode::kLazyStatic, 0.40},
                      RandomOpsParam{66, LogMode::kLazyDynamic, 0.50}),
    [](const ::testing::TestParamInfo<RandomOpsParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_" +
             LogModeName(info.param.mode);
    });

}  // namespace
}  // namespace lazyxml
