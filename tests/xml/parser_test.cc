#include "xml/parser.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace lazyxml {
namespace {

TEST(ParserTest, SingleElement) {
  TagDict dict;
  auto r = ParseFragment("<a/>", &dict);
  ASSERT_TRUE(r.ok());
  const auto& f = r.ValueOrDie();
  ASSERT_EQ(f.records.size(), 1u);
  EXPECT_EQ(f.records[0].tid, dict.Lookup("a").ValueOrDie());
  EXPECT_EQ(f.records[0].start, 0u);
  EXPECT_EQ(f.records[0].end, 4u);
  EXPECT_EQ(f.records[0].level, 1u);
  EXPECT_EQ(f.root_count, 1u);
  EXPECT_EQ(f.max_level, 1u);
}

TEST(ParserTest, NestedPositionsAndLevels) {
  //                0123456789012345678
  const char* doc = "<a><b><c/></b></a>";
  TagDict dict;
  auto f = ParseFragment(doc, &dict).ValueOrDie();
  ASSERT_EQ(f.records.size(), 3u);
  EXPECT_EQ(f.records[0].start, 0u);
  EXPECT_EQ(f.records[0].end, 18u);
  EXPECT_EQ(f.records[0].level, 1u);
  EXPECT_EQ(f.records[1].start, 3u);
  EXPECT_EQ(f.records[1].end, 14u);
  EXPECT_EQ(f.records[1].level, 2u);
  EXPECT_EQ(f.records[2].start, 6u);
  EXPECT_EQ(f.records[2].end, 10u);
  EXPECT_EQ(f.records[2].level, 3u);
  EXPECT_EQ(f.max_level, 3u);
}

TEST(ParserTest, RecordsInDocumentOrder) {
  TagDict dict;
  auto f = ParseFragment("<a><b/><c><d/></c><b/></a>", &dict).ValueOrDie();
  ASSERT_EQ(f.records.size(), 5u);
  for (size_t i = 1; i < f.records.size(); ++i) {
    EXPECT_GT(f.records[i].start, f.records[i - 1].start);
  }
}

TEST(ParserTest, ContainmentMatchesNesting) {
  TagDict dict;
  auto f = ParseFragment("<a><b><c/></b><d/></a>", &dict).ValueOrDie();
  const auto& a = f.records[0];
  const auto& b = f.records[1];
  const auto& c = f.records[2];
  const auto& d = f.records[3];
  EXPECT_TRUE(a.Contains(b));
  EXPECT_TRUE(a.Contains(c));
  EXPECT_TRUE(a.Contains(d));
  EXPECT_TRUE(b.Contains(c));
  EXPECT_FALSE(b.Contains(d));
  EXPECT_FALSE(c.Contains(b));
  EXPECT_FALSE(d.Contains(c));
}

TEST(ParserTest, DistinctTagsSortedUnique) {
  TagDict dict;
  auto f = ParseFragment("<a><b/><b/><c/><a></a></a>", &dict).ValueOrDie();
  ASSERT_EQ(f.distinct_tags.size(), 3u);
  for (size_t i = 1; i < f.distinct_tags.size(); ++i) {
    EXPECT_LT(f.distinct_tags[i - 1], f.distinct_tags[i]);
  }
}

TEST(ParserTest, BaseOffsetAndLevelApplied) {
  TagDict dict;
  ParseOptions opts;
  opts.base_offset = 500;
  opts.base_level = 3;
  auto f = ParseFragment("<a><b/></a>", &dict, opts).ValueOrDie();
  EXPECT_EQ(f.records[0].start, 500u);
  EXPECT_EQ(f.records[0].level, 4u);
  EXPECT_EQ(f.records[1].start, 503u);
  EXPECT_EQ(f.records[1].level, 5u);
}

TEST(ParserTest, MultipleRootsAllowedByDefault) {
  TagDict dict;
  auto f = ParseFragment("<a/><b/><c/>", &dict).ValueOrDie();
  EXPECT_EQ(f.root_count, 3u);
}

TEST(ParserTest, MultipleRootsRejectedWhenStrict) {
  TagDict dict;
  ParseOptions opts;
  opts.require_single_root = true;
  EXPECT_TRUE(ParseFragment("<a/><b/>", &dict, opts).status().IsParseError());
}

TEST(ParserTest, WhitespaceBetweenRootsOk) {
  TagDict dict;
  EXPECT_TRUE(ParseFragment("  <a/>\n\t<b/>  ", &dict).ok());
}

TEST(ParserTest, TopLevelTextRejected) {
  TagDict dict;
  EXPECT_TRUE(ParseFragment("hello<a/>", &dict).status().IsParseError());
  EXPECT_TRUE(ParseFragment("<a/>world", &dict).status().IsParseError());
}

TEST(ParserTest, TopLevelTextAllowedWhenConfigured) {
  TagDict dict;
  ParseOptions opts;
  opts.allow_top_level_text = true;
  EXPECT_TRUE(ParseFragment("hello<a/>world", &dict, opts).ok());
}

TEST(ParserTest, MismatchedTagsRejected) {
  TagDict dict;
  auto s = ParseFragment("<a><b></a></b>", &dict).status();
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("mismatched"), std::string::npos);
}

TEST(ParserTest, UnclosedTagRejected) {
  TagDict dict;
  EXPECT_TRUE(ParseFragment("<a><b>", &dict).status().IsParseError());
}

TEST(ParserTest, UnmatchedEndTagRejected) {
  TagDict dict;
  EXPECT_TRUE(ParseFragment("</a>", &dict).status().IsParseError());
}

TEST(ParserTest, DepthLimitEnforced) {
  TagDict dict;
  ParseOptions opts;
  opts.max_depth = 4;
  EXPECT_TRUE(ParseFragment("<a><a><a><a/></a></a></a>", &dict, opts).ok());
  EXPECT_TRUE(ParseFragment("<a><a><a><a><a/></a></a></a></a>", &dict, opts)
                  .status()
                  .IsParseError());
}

TEST(ParserTest, CommentsAndPiDoNotCreateRecords) {
  TagDict dict;
  auto f =
      ParseFragment("<?xml version=\"1.0\"?><!-- c --><a><!-- d --></a>",
                    &dict)
          .ValueOrDie();
  EXPECT_EQ(f.records.size(), 1u);
}

TEST(ParserTest, AttributesDoNotAffectStructure) {
  TagDict dict;
  auto f = ParseFragment("<a id=\"1\"><b class='x'/></a>", &dict).ValueOrDie();
  ASSERT_EQ(f.records.size(), 2u);
  EXPECT_EQ(dict.size(), 2u);  // a, b — attribute names not interned
}

TEST(ParserTest, NullDictionaryRejected) {
  EXPECT_TRUE(ParseFragment("<a/>", nullptr).status().IsInvalidArgument());
}

TEST(ParserTest, EmptyInputHasNoRecords) {
  TagDict dict;
  auto f = ParseFragment("", &dict).ValueOrDie();
  EXPECT_TRUE(f.records.empty());
  EXPECT_EQ(f.root_count, 0u);
}

TEST(ParserTest, IsWellFormedDocument) {
  EXPECT_TRUE(IsWellFormedDocument("<a><b/></a>"));
  EXPECT_FALSE(IsWellFormedDocument("<a><b/></a><c/>"));  // two roots
  EXPECT_FALSE(IsWellFormedDocument("<a>"));
  EXPECT_FALSE(IsWellFormedDocument("no xml"));
}

TEST(ParserTest, LevelsMatchStackDepthInMixedDoc) {
  TagDict dict;
  auto f = ParseFragment("<r><x><y/></x><x/><x><y><z/></y></x></r>", &dict)
               .ValueOrDie();
  // r=1, x=2, y=3, x=2, x=2, y=3, z=4
  std::vector<uint32_t> levels;
  for (const auto& rec : f.records) levels.push_back(rec.level);
  EXPECT_EQ(levels, (std::vector<uint32_t>{1, 2, 3, 2, 2, 3, 4}));
}

// Regression: the element counter used to read after `return out;` had
// moved the records into the Result, so successful parses counted 0.
TEST(ParserTest, ElementCounterCountsSuccessAndPartialFailure) {
  obs::Counter& elements =
      obs::MetricsRegistry::Global().GetCounter("xml.parse.elements");
  TagDict dict;
  uint64_t before = elements.Value();
  ASSERT_TRUE(ParseFragment("<a><b/><c/></a>", &dict).ok());
  EXPECT_EQ(elements.Value() - before, 3u);

  // Two start tags are recorded before the mismatched end tag fails.
  before = elements.Value();
  ASSERT_FALSE(ParseFragment("<a><b></c></a>", &dict).ok());
  EXPECT_EQ(elements.Value() - before, 2u);
}

}  // namespace
}  // namespace lazyxml
