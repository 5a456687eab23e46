#include "xml/tag_dict.h"

#include <gtest/gtest.h>

#include "common/strings.h"

namespace lazyxml {
namespace {

TEST(TagDictTest, InternAssignsDenseIds) {
  TagDict d;
  EXPECT_EQ(d.Intern("a"), 0u);
  EXPECT_EQ(d.Intern("b"), 1u);
  EXPECT_EQ(d.Intern("c"), 2u);
  EXPECT_EQ(d.size(), 3u);
}

TEST(TagDictTest, InternIsIdempotent) {
  TagDict d;
  const TagId a = d.Intern("person");
  EXPECT_EQ(d.Intern("person"), a);
  EXPECT_EQ(d.size(), 1u);
}

TEST(TagDictTest, LookupFindsInterned) {
  TagDict d;
  const TagId a = d.Intern("phone");
  auto r = d.Lookup("phone");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), a);
}

TEST(TagDictTest, LookupMissingIsNotFound) {
  TagDict d;
  d.Intern("x");
  EXPECT_TRUE(d.Lookup("y").status().IsNotFound());
}

TEST(TagDictTest, NameRoundTrip) {
  TagDict d;
  const TagId a = d.Intern("interest");
  EXPECT_EQ(d.Name(a), "interest");
  EXPECT_EQ(d.Name(999), "");
}

TEST(TagDictTest, CaseSensitive) {
  TagDict d;
  EXPECT_NE(d.Intern("Person"), d.Intern("person"));
}

TEST(TagDictTest, ManyTags) {
  TagDict d;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(d.Intern(StringPrintf("t%d", i)), static_cast<TagId>(i));
  }
  EXPECT_EQ(d.size(), 1000u);
  EXPECT_EQ(d.Name(537), "t537");
  EXPECT_GT(d.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace lazyxml
