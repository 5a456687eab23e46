#include "common/strings.h"

#include <gtest/gtest.h>

namespace lazyxml {
namespace {

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({}, "."), "");
  EXPECT_EQ(Join({"a"}, "."), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(Join({"a", "", "c"}, "--"), "a----c");
}

TEST(StringsTest, JoinIds) {
  EXPECT_EQ(JoinIds({}, "."), "");
  EXPECT_EQ(JoinIds({0, 1, 2, 3}, "."), "0.1.2.3");
}

TEST(StringsTest, Split) {
  EXPECT_TRUE(Split("", '.').empty());
  auto parts = Split("0.1.2", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "0");
  EXPECT_EQ(parts[2], "2");
  auto with_empty = Split("a..b", '.');
  ASSERT_EQ(with_empty.size(), 3u);
  EXPECT_EQ(with_empty[1], "");
  auto trailing = Split("a.", '.');
  ASSERT_EQ(trailing.size(), 2u);
  EXPECT_EQ(trailing[1], "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("person", "per"));
  EXPECT_FALSE(StartsWith("per", "person"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("person", "son"));
  EXPECT_FALSE(EndsWith("son", "person"));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringsTest, ParseU64) {
  EXPECT_EQ(ParseU64("0", "n").ValueOrDie(), 0u);
  EXPECT_EQ(ParseU64("18446744073709551615", "n").ValueOrDie(),
            18446744073709551615ull);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "4x", "abc",
                          "18446744073709551616"}) {
    auto r = ParseU64(bad, "count");
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << bad;
    EXPECT_NE(r.status().message().find("count"), std::string::npos);
  }
}

TEST(StringsTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("n=%d s=%s", 5, "x"), "n=5 s=x");
  EXPECT_EQ(StringPrintf("%s", ""), "");
  // Long output must not truncate.
  std::string big(500, 'a');
  EXPECT_EQ(StringPrintf("%s", big.c_str()).size(), 500u);
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(0), "0 B");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MB");
}

TEST(StringsTest, XmlEscape) {
  EXPECT_EQ(XmlEscape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
  EXPECT_EQ(XmlEscape("plain"), "plain");
  EXPECT_EQ(XmlEscape(""), "");
}

}  // namespace
}  // namespace lazyxml
