#include "core/element_index.h"

#include <atomic>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/concurrent_database.h"
#include "core/lazy_database.h"
#include "tests/testutil.h"
#include "xml/parser.h"

namespace lazyxml {
namespace {

std::vector<ElementRecord> Parse(std::string_view text, TagDict* dict,
                                 uint32_t base_level = 0) {
  ParseOptions opts;
  opts.base_level = base_level;
  auto f = ParseFragment(text, dict, opts);
  EXPECT_TRUE(f.ok());
  return f.ValueOrDie().records;
}

TEST(ElementIndexTest, InsertAndGetSortedByStart) {
  TagDict dict;
  ElementIndex idx;
  auto recs = Parse("<a><b/><b/><b/></a>", &dict);
  ASSERT_TRUE(idx.InsertRecords(7, recs).ok());
  const TagId b = dict.Lookup("b").ValueOrDie();
  auto elems = *idx.GetScan(b, 7);
  ASSERT_EQ(elems.size(), 3u);
  EXPECT_LT(elems[0].start, elems[1].start);
  EXPECT_LT(elems[1].start, elems[2].start);
  EXPECT_EQ(idx.size(), 4u);
}

TEST(ElementIndexTest, SegmentsIsolated) {
  TagDict dict;
  ElementIndex idx;
  ASSERT_TRUE(idx.InsertRecords(1, Parse("<a><b/></a>", &dict)).ok());
  ASSERT_TRUE(idx.InsertRecords(2, Parse("<a><b/><b/></a>", &dict)).ok());
  const TagId b = dict.Lookup("b").ValueOrDie();
  EXPECT_EQ(idx.GetScan(b, 1)->size(), 1u);
  EXPECT_EQ(idx.GetScan(b, 2)->size(), 2u);
  EXPECT_EQ(idx.GetScan(b, 3)->size(), 0u);
  EXPECT_EQ(idx.CountElements(b, 2), 2u);
}

TEST(ElementIndexTest, DuplicateRecordRejected) {
  TagDict dict;
  ElementIndex idx;
  auto recs = Parse("<a/>", &dict);
  ASSERT_TRUE(idx.InsertRecords(1, recs).ok());
  EXPECT_TRUE(idx.InsertRecords(1, recs).IsAlreadyExists());
}

TEST(ElementIndexTest, FindInnermostContaining) {
  TagDict dict;
  ElementIndex idx;
  //                      0    5    10   15   20   25   30
  auto recs = Parse("<a><b><c></c><c></c></b></a>", &dict);
  // a=[0,28) b=[3,24) c1=[6,13) c2=[13,20)
  ASSERT_TRUE(idx.InsertRecords(4, recs).ok());
  std::vector<TagId> tags{dict.Lookup("a").ValueOrDie(),
                          dict.Lookup("b").ValueOrDie(),
                          dict.Lookup("c").ValueOrDie()};
  LocalElement out;
  ASSERT_TRUE(idx.FindInnermostContaining(4, tags, 8, &out));
  EXPECT_EQ(out.start, 6u);  // inside c1
  EXPECT_EQ(out.level, 3u);
  ASSERT_TRUE(idx.FindInnermostContaining(4, tags, 15, &out));
  EXPECT_EQ(out.start, 13u);  // inside c2
  ASSERT_TRUE(idx.FindInnermostContaining(4, tags, 22, &out));
  EXPECT_EQ(out.start, 3u);  // only b and a contain; b is innermost
  EXPECT_EQ(out.level, 2u);
  ASSERT_TRUE(idx.FindInnermostContaining(4, tags, 26, &out));
  EXPECT_EQ(out.level, 1u);  // only a
  EXPECT_FALSE(idx.FindInnermostContaining(4, tags, 0, &out));  // boundary
  EXPECT_FALSE(idx.FindInnermostContaining(9, tags, 8, &out));  // wrong sid
}

TEST(ElementIndexTest, DeleteSegmentReturnsPerTagCounts) {
  TagDict dict;
  ElementIndex idx;
  ASSERT_TRUE(idx.InsertRecords(1, Parse("<a><b/><b/><c/></a>", &dict)).ok());
  ASSERT_TRUE(idx.InsertRecords(2, Parse("<a><b/></a>", &dict)).ok());
  std::vector<TagId> tags{dict.Lookup("a").ValueOrDie(),
                          dict.Lookup("b").ValueOrDie(),
                          dict.Lookup("c").ValueOrDie()};
  auto counts = idx.DeleteSegment(1, tags).ValueOrDie();
  EXPECT_EQ(counts[dict.Lookup("a").ValueOrDie()], 1u);
  EXPECT_EQ(counts[dict.Lookup("b").ValueOrDie()], 2u);
  EXPECT_EQ(counts[dict.Lookup("c").ValueOrDie()], 1u);
  EXPECT_EQ(idx.size(), 2u);  // segment 2 untouched
  EXPECT_EQ(idx.GetScan(dict.Lookup("b").ValueOrDie(), 2)->size(), 1u);
}

TEST(ElementIndexTest, DeleteRangeRemovesOnlyFullyInside) {
  TagDict dict;
  ElementIndex idx;
  // a=[0,22) b1=[3,7) b2=[7,11) b3=[11,15) c=[15,19)
  ASSERT_TRUE(idx.InsertRecords(1, Parse("<a><b/><b/><b/><c/></a>", &dict))
                  .ok());
  std::vector<TagId> tags{dict.Lookup("a").ValueOrDie(),
                          dict.Lookup("b").ValueOrDie(),
                          dict.Lookup("c").ValueOrDie()};
  auto counts = idx.DeleteRange(1, tags, 7, 15).ValueOrDie();
  EXPECT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[dict.Lookup("b").ValueOrDie()], 2u);
  auto bs = *idx.GetScan(dict.Lookup("b").ValueOrDie(), 1);
  ASSERT_EQ(bs.size(), 1u);
  EXPECT_EQ(bs[0].start, 3u);
  // The spanning <a> survives.
  EXPECT_EQ(idx.GetScan(dict.Lookup("a").ValueOrDie(), 1)->size(), 1u);
}

TEST(ElementIndexTest, DeleteRangeDetectsStraddle) {
  TagDict dict;
  ElementIndex idx;
  ASSERT_TRUE(idx.InsertRecords(1, Parse("<a><b/><c/></a>", &dict)).ok());
  std::vector<TagId> tags{dict.Lookup("a").ValueOrDie(),
                          dict.Lookup("b").ValueOrDie(),
                          dict.Lookup("c").ValueOrDie()};
  // b=[3,7) c=[7,11): range [5,9) splits both.
  auto r = idx.DeleteRange(1, tags, 5, 9);
  EXPECT_TRUE(r.status().IsCorruption());
  // Nothing was deleted (two-pass semantics).
  EXPECT_EQ(idx.size(), 3u);
}

TEST(ElementIndexTest, DeleteRangeEmptyRange) {
  TagDict dict;
  ElementIndex idx;
  ASSERT_TRUE(idx.InsertRecords(1, Parse("<a><b/></a>", &dict)).ok());
  std::vector<TagId> tags{dict.Lookup("a").ValueOrDie(),
                          dict.Lookup("b").ValueOrDie()};
  auto counts = idx.DeleteRange(1, tags, 1, 1).ValueOrDie();
  EXPECT_TRUE(counts.empty());
  EXPECT_EQ(idx.size(), 2u);
}

TEST(ElementIndexTest, LevelsPreserved) {
  TagDict dict;
  ElementIndex idx;
  ASSERT_TRUE(
      idx.InsertRecords(1, Parse("<a><b><c/></b></a>", &dict, 5)).ok());
  auto cs = *idx.GetScan(dict.Lookup("c").ValueOrDie(), 1);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].level, 8u);  // base 5 + depth 3
}

// Every run GetScan serves equals the records ForEachRecord yields for
// its key, and the two agree on the total.
void ExpectRunsMatchRecords(const ElementIndex& idx) {
  std::map<std::pair<TagId, SegmentId>, std::vector<LocalElement>> walked;
  size_t total = 0;
  idx.ForEachRecord([&](const ElementIndexRecord& r) {
    walked[{r.tid, r.sid}].push_back(LocalElement{r.start, r.end, r.level});
    ++total;
    return true;
  });
  EXPECT_EQ(total, idx.size());
  for (const auto& [key, want] : walked) {
    EXPECT_EQ(*idx.GetScan(key.first, key.second), want)
        << "tag " << key.first << " segment " << key.second;
  }
}

TEST(ElementIndexTest, InvariantsHoldAfterChurn) {
  TagDict dict;
  ElementIndex idx;
  for (SegmentId sid = 1; sid <= 30; ++sid) {
    ASSERT_TRUE(
        idx.InsertRecords(sid, Parse("<a><b/><c><b/></c></a>", &dict)).ok());
  }
  std::vector<TagId> tags{dict.Lookup("a").ValueOrDie(),
                          dict.Lookup("b").ValueOrDie(),
                          dict.Lookup("c").ValueOrDie()};
  for (SegmentId sid = 2; sid <= 30; sid += 2) {
    ASSERT_TRUE(idx.DeleteSegment(sid, tags).ok());
  }
  EXPECT_TRUE(idx.CheckInvariants().ok());
  EXPECT_EQ(idx.size(), 15u * 4u);
  ExpectRunsMatchRecords(idx);

  // Random churn: inserts of fresh segments, removals of one element's
  // whole interval (it takes the element's descendants with it and splits
  // nothing), whole-segment deletes, and compactions that fold a few
  // segments into one new segment, as CollapseSubtree re-keys records.
  const std::vector<std::string> docs = {
      "<a><b/><c><b/></c></a>", "<c><b><a/><a/></b><b/></c>",
      "<b><c/><c><a/><c/></c><b/></b>"};
  Random rng(11);
  SegmentId next_sid = 31;
  std::vector<SegmentId> live;
  for (SegmentId sid = 1; sid <= 30; sid += 2) live.push_back(sid);
  for (int step = 0; step < 400; ++step) {
    const uint64_t op = rng.Uniform(10);
    if (op < 4 || live.empty()) {
      ASSERT_TRUE(idx.InsertRecords(
                         next_sid, Parse(docs[rng.Uniform(docs.size())], &dict))
                      .ok());
      live.push_back(next_sid++);
    } else if (op < 7) {
      const SegmentId sid = live[rng.Uniform(live.size())];
      const TagId tid = tags[rng.Uniform(tags.size())];
      const ElementScan run = idx.GetScan(tid, sid);
      if (run->empty()) continue;
      const LocalElement e = (*run)[rng.Uniform(run->size())];
      ASSERT_TRUE(idx.DeleteRange(sid, tags, e.start, e.end).ok());
    } else if (op < 9) {
      const size_t i = rng.Uniform(live.size());
      ASSERT_TRUE(idx.DeleteSegment(live[i], tags).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(i));
    } else {
      // Fold up to three segments, laid end to end, into one.
      std::vector<ElementRecord> folded;
      uint64_t offset = 0;
      for (int k = 0; k < 3 && !live.empty(); ++k) {
        const size_t i = rng.Uniform(live.size());
        uint64_t width = 0;
        for (TagId tid : tags) {
          const ElementScan run = idx.GetScan(tid, live[i]);
          for (const LocalElement& e : *run) {
            folded.push_back(
                ElementRecord{tid, offset + e.start, offset + e.end, e.level});
            width = std::max(width, e.end);
          }
        }
        ASSERT_TRUE(idx.DeleteSegment(live[i], tags).ok());
        live.erase(live.begin() + static_cast<ptrdiff_t>(i));
        offset += width;
      }
      ASSERT_TRUE(idx.InsertRecords(next_sid, folded).ok());
      live.push_back(next_sid++);
    }
  }
  EXPECT_TRUE(idx.CheckInvariants().ok());
  ExpectRunsMatchRecords(idx);
}

TEST(ElementIndexTest, RunsAreImmutableAcrossRemovals) {
  TagDict dict;
  ElementIndex idx;
  // a=[0,22) b1=[3,7) b2=[7,11) b3=[11,15) c=[15,19)
  ASSERT_TRUE(idx.InsertRecords(1, Parse("<a><b/><b/><b/><c/></a>", &dict))
                  .ok());
  ASSERT_TRUE(idx.InsertRecords(2, Parse("<a><b/></a>", &dict)).ok());
  std::vector<TagId> tags{dict.Lookup("a").ValueOrDie(),
                          dict.Lookup("b").ValueOrDie(),
                          dict.Lookup("c").ValueOrDie()};
  const TagId b = tags[1];
  const ElementScan before_range = idx.GetScan(b, 1);
  const std::vector<LocalElement> copy_range = *before_range;
  const ElementScan before_segment = idx.GetScan(b, 2);
  const std::vector<LocalElement> copy_segment = *before_segment;

  ASSERT_TRUE(idx.DeleteRange(1, tags, 7, 15).ok());
  EXPECT_EQ(*before_range, copy_range);
  EXPECT_EQ(idx.GetScan(b, 1)->size(), 1u);
  EXPECT_NE(idx.GetScan(b, 1), before_range);  // replaced, not edited

  ASSERT_TRUE(idx.DeleteSegment(2, tags).ok());
  EXPECT_EQ(*before_segment, copy_segment);
  EXPECT_TRUE(idx.GetScan(b, 2)->empty());

  // A fetched run is the stored run itself: a second fetch shares it.
  EXPECT_EQ(idx.GetScan(b, 1), idx.GetScan(b, 1));
}

TEST(ElementIndexTest, InsertRecordsRejectsDuplicatesWithoutSideEffects) {
  TagDict dict;
  ElementIndex idx;
  ASSERT_TRUE(idx.InsertRecords(1, Parse("<a><b/></a>", &dict)).ok());
  const TagId a = dict.Lookup("a").ValueOrDie();
  const TagId b = dict.Lookup("b").ValueOrDie();
  // A batch touching one existing run and one new run adds neither.
  std::vector<ElementIndexRecord> batch{{b, 3, 0, 4, 1}, {a, 1, 40, 50, 1}};
  EXPECT_TRUE(idx.InsertRecordsBatch(batch).IsAlreadyExists());
  EXPECT_TRUE(idx.GetScan(b, 3)->empty());
  EXPECT_EQ(idx.size(), 2u);
  // Two records of one tag at one start cannot form a run.
  std::vector<ElementIndexRecord> dup{{b, 4, 0, 4, 1}, {b, 4, 0, 6, 1}};
  EXPECT_TRUE(idx.InsertRecordsBatch(dup).IsInvalidArgument());
  EXPECT_TRUE(idx.BuildFrom(dup).IsInvalidArgument());
}

// Compaction retires runs through the index like a removal does: runs
// fetched before it keep their contents.
TEST(ElementIndexTest, RunsSurviveCompaction) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<r><a><b/><b/></a><a/></r>", 0).ok());
  ASSERT_TRUE(db.InsertSegment("<a><b/></a>", 3).ok());
  ASSERT_TRUE(db.InsertSegment("<b/>", 6).ok());
  db.Freeze();
  const TagId b = db.tag_dict().Lookup("b").ValueOrDie();
  std::vector<ElementScan> held;
  std::vector<std::vector<LocalElement>> copies;
  for (const TagListEntry& e : db.update_log().tag_list().EntriesFor(b)) {
    held.push_back(db.GetScan(b, e.sid()));
    copies.push_back(*held.back());
  }
  ASSERT_EQ(held.size(), 3u);
  ASSERT_TRUE(db.CompactAll().ok());
  ASSERT_EQ(db.update_log().num_segments(), 1u);
  for (size_t i = 0; i < held.size(); ++i) EXPECT_EQ(*held[i], copies[i]);
  EXPECT_TRUE(db.CheckInvariants().ok());
  ExpectRunsMatchRecords(db.element_index());
}

// Readers join through ConcurrentLazyDatabase and keep the runs they
// fetched past the end of their shared acquisition, while a writer
// removes elements and whole segments and compacts the same segments.
// A run must never change under its holder (TSan: no write may touch a
// handed-out run).
TEST(ElementIndexConcurrencyTest, HeldRunsSurviveRemovalsAndCompaction) {
  ConcurrentLazyDatabase db;
  const std::string unit = "<a><b><c/><c/></b><b><c/></b></a>";
  {
    std::string top = "<r>";
    for (int i = 0; i < 20; ++i) top += unit;
    top += "</r>";
    LazyDatabase& raw = db.UnsynchronizedAccess();
    ASSERT_TRUE(raw.InsertSegment(top, 0).ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(raw.InsertSegment(unit, 3).ok());
    }
  }
  db.Freeze();

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      int rounds = 0;
      while (!done.load() || rounds < 10) {
        ++rounds;
        auto view = db.OpenView();
        if (!view.ok()) {
          ++failures;
          continue;
        }
        std::vector<ElementScan> held;
        view.ValueOrDie().Query([&](QueryFacade& f) {
          auto c = f.tag_dict().Lookup("c");
          if (!c.ok()) return;
          for (const TagListEntry& e :
               f.update_log().tag_list().EntriesFor(c.ValueOrDie())) {
            held.push_back(f.GetScan(c.ValueOrDie(), e.sid()));
          }
        });
        std::vector<std::vector<LocalElement>> copies;
        for (const ElementScan& s : held) copies.push_back(*s);
        if (!db.JoinByName("a", "c").ok() ||
            !testutil::Xpath(db, "//a[b]/b/c").ok()) {
          ++failures;
        }
        for (size_t i = 0; i < held.size(); ++i) {
          if (*held[i] != copies[i]) ++failures;
        }
      }
    });
  }

  Random rng(5);
  for (int step = 0; step < 150; ++step) {
    const uint64_t op = rng.Uniform(4);
    Status st;
    if (op == 0) {
      st = db.InsertSegment(unit, 3).status();
    } else if (op == 3) {
      st = db.CompactAll();
    } else {
      // Remove one <c> (op 1, a partial removal inside a segment) or one
      // <a> (op 2, a whole segment or a slice of a compacted one).
      const std::string_view tag = op == 1 ? "c" : "a";
      st = db.WithExclusive([&](LazyDatabase& raw) -> Status {
        LAZYXML_ASSIGN_OR_RETURN(std::vector<GlobalElement> elems,
                                 raw.MaterializeGlobalElements(tag));
        if (elems.size() <= 1) return Status::OK();
        const GlobalElement& e = elems[rng.Uniform(elems.size())];
        return raw.RemoveSegment(e.start, e.end - e.start);
      });
    }
    if (!st.ok()) {
      ADD_FAILURE() << "step " << step << ": " << st.ToString();
      break;
    }
  }
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

}  // namespace
}  // namespace lazyxml
