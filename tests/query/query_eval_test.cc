// The set-at-a-time evaluator (query/query_eval.h) and the batched
// global converter (core/global_converter.h):
//  * the normalizing merge;
//  * the perfbench templates answer byte-identically to the evaluators
//    this one replaced (goldens recorded from them on the same store);
//  * the converter equals the linear walk (SegmentNode::FrozenToGlobal)
//    at every frozen offset, splices at element boundaries and offsets
//    inside removed gaps included;
//  * a randomized property suite: random XMark documents, chopped and
//    updated, random patterns in all three syntaxes, equal to the naive
//    oracle over {LD, LS} x {summary on, off}.

#include "query/query_eval.h"

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/global_converter.h"
#include "core/lazy_database.h"
#include "tests/query/query_test_util.h"
#include "tests/query/template_store.h"
#include "tests/testutil.h"
#include "xml/parser.h"
#include "xmlgen/chopper.h"
#include "xmlgen/xmark_generator.h"

namespace lazyxml {
namespace {

TEST(QueryEvalSortRefsTest, SortsRunsAndDeduplicates) {
  std::vector<LazyElementRef> refs = {{5, 9}, {5, 3}, {5, 9}, {2, 7},
                                      {2, 1}, {9, 4}, {2, 7}, {5, 3}};
  SortRefs(&refs);
  EXPECT_EQ(refs, (std::vector<LazyElementRef>{
                      {2, 1}, {2, 7}, {5, 3}, {5, 9}, {9, 4}}));
  std::vector<LazyElementRef> empty;
  SortRefs(&empty);
  EXPECT_TRUE(empty.empty());
}

// ---------------------------------------------------------------------------
// Byte identity with the replaced evaluators.

QuerySyntax SyntaxOf(std::string_view verb) {
  return verb == "PATH"   ? QuerySyntax::kPath
         : verb == "TWIG" ? QuerySyntax::kTwig
                          : QuerySyntax::kXPath;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(QueryEvalGoldenTest, PerfbenchTemplatesMatchThePriorEvaluators) {
  // COUNT, PAIRS, JOINS and the FNV-1a hash of every reply row ("sid
  // start" for PATH and TWIG, "start end" for XPATH), recorded from the
  // per-verb PATH, TWIG and XPath evaluators on
  // testutil::BuildTemplateStore. The PATH evaluator reported no JOINS.
  struct Golden {
    size_t count;
    uint64_t pairs;
    uint64_t joins;
    uint64_t rows_fnv;
  };
  static const Golden kGolden[] = {
      {971, 971, 0, 0xa36079cddac74f43ull},  // PATH person//phone
      {1411, 1411, 0, 0x9fe56d1726b1b65full},  // PATH profile//interest
      {1803, 1803, 0, 0xff32945242758f13ull},  // PATH watches//watch
      {1803, 1803, 0, 0xff32945242758f13ull},  // PATH person//watch
      {1411, 1411, 0, 0x9fe56d1726b1b65full},  // PATH person//interest
      {398, 796, 0, 0x20e14063b1dd2524ull},  // PATH person/address/city
      {398, 796, 0, 0xdbae5ad6f23d33f1ull},  // PATH people/person/name
      {159, 318, 0, 0xb141475e8bd2f19eull},  // PATH open_auction/bidder/personref
      {50, 50, 0, 0x098a387d8a102ca9ull},  // PATH closed_auction/price
      {398, 796, 0, 0x6ab3e3391061671cull},  // PATH person/profile/age
      {1411, 1809, 2, 0x9fe56d1726b1b65full},  // TWIG person[profile]//interest
      {971, 1369, 2, 0xa36079cddac74f43ull},  // TWIG person[watches]/phone
      {78, 259, 2, 0x7a199fbb55053fa3ull},  // TWIG open_auction[bidder]/seller
      {80, 160, 2, 0x7771374ba5160596ull},  // TWIG item[incategory]/location
      {398, 1194, 3, 0x1077715693464125ull},  // TWIG person[address[zipcode]]/emailaddress
      {50, 100, 2, 0x836d4a4d3d0ec946ull},  // XPATH //closed_auction[buyer]/price
      {78, 418, 3, 0x9af4693413a15352ull},  // XPATH //open_auction[bidder/personref]/seller
      {80, 245, 12, 0x0b21a419546a20c6ull},  // XPATH //regions/*/item[incategory]/location
      {10, 110, 3, 0x7c14852cadd340adull},  // XPATH //category[description/text]/name
      {159, 1018, 16, 0xda43b6339b1ea14cull},  // XPATH //open_auction/*/personref
      {50, 100, 2, 0xed94b81aa5d7f965ull},  // XPATH //closed_auction[buyer]/itemref
      {0, 0, 0, 0x14650fb0739d0383ull},  // XPATH //phone//person
      {0, 0, 0, 0x14650fb0739d0383ull},  // XPATH //interest//watch
      {0, 0, 0, 0x14650fb0739d0383ull},  // XPATH //watch/name
      {0, 0, 0, 0x14650fb0739d0383ull},  // XPATH //address//profile
      {0, 0, 0, 0x14650fb0739d0383ull},  // XPATH //item//person
      {50, 50, 0, 0xc47218997ff1fe1aull},  // PATH registration/email
      {50, 100, 0, 0x167b51f2ccae7b9dull},  // PATH registrations/registration/id
      {44, 88, 0, 0x56d0174eedfad6f4ull},  // PATH batch/article/title
      {79, 79, 0, 0x1114176c0506edbcull},  // PATH registration//topic
      {398, 796, 0, 0xe738cc5a22ca7884ull},  // PATH person/address/zipcode
      {36, 179, 3, 0x3affd65052d0e4e0ull},  // TWIG registration[preferences/topic]/email
      {31, 78, 2, 0x61860e97b8e52311ull},  // TWIG article[year]/author
      {398, 796, 2, 0xdbae5ad6f23d33f1ull},  // TWIG person[watches]/name
      {35, 103, 2, 0x1ab7ce9858b14630ull},  // XPATH //registration[phone]/name
      {21, 122, 3, 0xd81b5878e3a62d62ull},  // XPATH //batch/article[author]/year
      {50, 100, 2, 0xc54ff319b5cc72c5ull},  // XPATH //registrations/*/occupation
      {398, 1194, 3, 0xa51b55dcce5dc25dull},  // XPATH //person[profile/business]/emailaddress
      {0, 0, 0, 0x14650fb0739d0383ull},  // XPATH //registration//person
      {0, 0, 0, 0x14650fb0739d0383ull},  // XPATH //article//registration
      {0, 0, 0, 0x14650fb0739d0383ull},  // XPATH //topic//phone
  };
  const std::vector<testutil::QueryTemplate> templates =
      testutil::PerfbenchTemplates();
  ASSERT_EQ(templates.size(), std::size(kGolden));
  LazyDatabase db;
  ASSERT_TRUE(testutil::BuildTemplateStore(&db));
  for (size_t i = 0; i < templates.size(); ++i) {
    const testutil::QueryTemplate& t = templates[i];
    SCOPED_TRACE(std::string(t.verb) + " " + t.expr);
    const QuerySyntax syntax = SyntaxOf(t.verb);
    auto r = EvaluateQuery(&db, syntax, t.expr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const XPathResult& xr = r.ValueOrDie();
    std::string rows;
    if (syntax == QuerySyntax::kXPath) {
      ASSERT_EQ(xr.elements.size(), xr.refs.size());
      for (const GlobalElement& e : xr.elements) {
        rows += std::to_string(e.start) + " " + std::to_string(e.end) + "\n";
      }
    } else {
      for (const LazyElementRef& e : xr.refs) {
        rows += std::to_string(e.sid) + " " + std::to_string(e.start) + "\n";
      }
    }
    EXPECT_EQ(xr.refs.size(), kGolden[i].count);
    EXPECT_EQ(Fnv1a(rows), kGolden[i].rows_fnv);
    if (syntax != QuerySyntax::kTwig) {
      EXPECT_EQ(xr.intermediate_pairs, kGolden[i].pairs);
    }
    if (syntax != QuerySyntax::kPath) {
      EXPECT_EQ(xr.joins_executed, kGolden[i].joins);
    }
  }
}

// ---------------------------------------------------------------------------
// Batched converter vs the linear walk.

/// Every segment, every frozen offset up to past its last event, both
/// boundary conventions; then every element's start and end.
void ExpectConverterMatchesLinearWalk(const LazyDatabase& db) {
  GlobalConverter conv;
  std::vector<const SegmentNode*> work{db.update_log().root()};
  size_t checked = 0;
  while (!work.empty()) {
    const SegmentNode* n = work.back();
    work.pop_back();
    uint64_t extent = 0;
    for (const NestingEntry& e : n->summary) extent = std::max(extent, e.end);
    for (const FrozenGap& g : n->gaps) extent = std::max(extent, g.end);
    for (const SegmentNode* c : n->children) {
      extent = std::max(extent, c->lp);
      work.push_back(c);
    }
    for (uint64_t f = 0; f <= extent + 1; ++f) {
      for (bool at_boundary : {true, false}) {
        ASSERT_EQ(conv.ToGlobal(*n, f, at_boundary),
                  n->FrozenToGlobal(f, at_boundary))
            << "sid " << n->sid << " frozen " << f << " boundary "
            << at_boundary;
      }
    }
    for (TagId tid : n->distinct_tags) {
      const ElementScan run = db.element_index().GetScan(tid, n->sid);
      for (const LocalElement& e : *run) {
        const GlobalElement g = conv.ToGlobal(*n, e);
        ASSERT_EQ(g.start, n->FrozenToGlobal(e.start, true));
        ASSERT_EQ(g.end, n->FrozenToGlobal(e.end, false));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(QueryEvalConverterTest, SplicesAtElementBoundariesAndPartialGaps) {
  LazyDatabase db;
  std::string shadow;
  auto insert = [&](std::string_view text, uint64_t gp) {
    ASSERT_TRUE(db.InsertSegment(text, gp).ok());
    testutil::SpliceInsert(&shadow, text, gp);
  };
  auto remove = [&](std::string_view elem) {
    const size_t at = shadow.find(elem);
    ASSERT_NE(at, std::string::npos) << elem;
    ASSERT_TRUE(db.RemoveSegment(at, elem.size()).ok()) << elem;
    testutil::SpliceRemove(&shadow, at, elem.size());
  };
  insert("<r><a>xx</a><b/><c>yy</c><d/><e></e></r>", 0);
  insert("<k/>", shadow.find("<b/>"));       // right at <b>'s start
  insert("<k2/>", shadow.find("</a>") + 4);  // right at </a>'s end
  insert("<m>z</m>", shadow.find("yy") + 1);  // inside <c>'s text
  insert("<n/>", shadow.find("</e>"));        // at <e>'s end tag
  remove("<d/>");                              // own text: a gap
  remove("<a>xx</a>");                         // gap next to a splice
  remove("<k/>");                              // a whole child segment
  ASSERT_TRUE(db.CheckInvariants().ok());
  ExpectConverterMatchesLinearWalk(db);
  EXPECT_EQ(db.MaterializeGlobalElements("c").ValueOrDie(),
            testutil::ElementsOf(shadow, "c"));
}

// ---------------------------------------------------------------------------
// Randomized property suite.

constexpr const char* kTags[] = {"site",  "people",  "person", "name",
                                 "phone", "profile", "interest", "watches",
                                 "watch", "address", "city",   "item"};
constexpr size_t kNumTags = std::size(kTags);

std::string RandomFragment(Random* rng, int depth = 0) {
  const char* tag = kTags[rng->Uniform(kNumTags)];
  std::string out = std::string("<") + tag + ">";
  const int children = depth >= 3 ? 0 : static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < children; ++i) out += RandomFragment(rng, depth + 1);
  return out + "</" + tag + ">";
}

/// The shadow document as a preorder tree, for sampling patterns that
/// follow real element chains (uniformly random tags would mostly ask
/// for chains that do not exist).
struct DocTree {
  std::vector<std::string> names;
  std::vector<size_t> parent;       ///< SIZE_MAX at top level
  std::vector<size_t> subtree_end;  ///< one past the last descendant

  explicit DocTree(const std::string& text) {
    TagDict dict;
    const auto records = ParseFragment(text, &dict).ValueOrDie().records;
    std::vector<size_t> stack;
    subtree_end.assign(records.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      while (!stack.empty() && records[stack.back()].end <= records[i].start) {
        subtree_end[stack.back()] = i;
        stack.pop_back();
      }
      names.emplace_back(dict.Name(records[i].tid));
      parent.push_back(stack.empty() ? SIZE_MAX : stack.back());
      stack.push_back(i);
    }
  }
};

XPathStep SampleStep(Random* rng, const DocTree& doc, size_t node,
                     bool direct, int depth, bool wildcards, bool predicates);

/// A path from `top` down to `node` (a descendant of `top`, or any node
/// when `top` is SIZE_MAX): a few of the ancestors in between, the axes
/// as the chain dictates (sometimes loosened to '//' or, rarely, wrongly
/// tightened to '/').
std::vector<XPathStep> SamplePath(Random* rng, const DocTree& doc,
                                  size_t top, size_t node, int depth,
                                  bool wildcards, bool predicates) {
  std::vector<size_t> chain{node};
  for (size_t a = doc.parent[node]; a != top && a != SIZE_MAX;
       a = doc.parent[a]) {
    if (chain.size() < 4 && rng->Bernoulli(0.4)) chain.push_back(a);
  }
  std::reverse(chain.begin(), chain.end());
  std::vector<XPathStep> steps;
  for (size_t i = 0; i < chain.size(); ++i) {
    const size_t above = i > 0 ? chain[i - 1] : top;
    const bool direct = doc.parent[chain[i]] == above;
    steps.push_back(SampleStep(rng, doc, chain[i], direct, depth, wildcards,
                               predicates));
  }
  return steps;
}

XPathStep SampleStep(Random* rng, const DocTree& doc, size_t node,
                     bool direct, int depth, bool wildcards, bool predicates) {
  XPathStep step;
  step.descendant_axis = direct ? rng->Bernoulli(0.3) : !rng->Bernoulli(0.05);
  if (wildcards && rng->Bernoulli(0.25)) {
    step.wildcard = true;
  } else {
    step.name = doc.names[node];
  }
  if (predicates && depth < 2) {
    for (int p = 0; p < 2 && rng->Bernoulli(0.4); ++p) {
      if (doc.subtree_end[node] == node + 1 || rng->Bernoulli(0.15)) {
        // A tag that may well not occur below: a failing existence test.
        XPathStep miss;
        miss.name = kTags[rng->Uniform(kNumTags)];
        step.predicates.push_back({miss});
        continue;
      }
      const size_t below =
          node + 1 + rng->Uniform(doc.subtree_end[node] - node - 1);
      step.predicates.push_back(SamplePath(rng, doc, node, below, depth + 1,
                                           wildcards, predicates));
    }
  }
  return step;
}

struct GridPoint {
  LogMode mode;
  bool summary;
};

std::string GridLabel(const GridPoint& g) {
  return std::string(g.mode == LogMode::kLazyDynamic ? "LD" : "LS") +
         (g.summary ? "_summary" : "_nosummary");
}

std::string GridName(const ::testing::TestParamInfo<GridPoint>& info) {
  return GridLabel(info.param);
}

// gtest prints a parameter without a printer as raw bytes, padding
// included; print the label so the listed test names are stable.
void PrintTo(const GridPoint& g, std::ostream* os) { *os << GridLabel(g); }

class QueryEvalPropertyTest : public ::testing::TestWithParam<GridPoint> {};

TEST_P(QueryEvalPropertyTest, AllSyntaxesEqualTheNaiveOracle) {
  const GridPoint g = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed * 7919);
    XMarkConfig cfg;
    cfg.seed = seed;
    cfg.num_persons = 8;
    cfg.num_items = 4;
    cfg.num_categories = 3;
    cfg.num_open_auctions = 3;
    cfg.num_closed_auctions = 2;
    std::string shadow = XMarkGenerator(cfg).Generate().ValueOrDie();
    ChopConfig chop;
    chop.num_segments = 8;
    chop.shape = seed % 2 == 0 ? ErTreeShape::kNested : ErTreeShape::kBalanced;
    chop.allow_fewer = true;
    auto plan = BuildChopPlan(shadow, chop);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();

    LazyDatabaseOptions opts;
    opts.mode = g.mode;
    opts.query.use_path_summary = g.summary;
    LazyDatabase db(opts);
    ASSERT_TRUE(db.ApplyPlan(plan.ValueOrDie().insertions).ok());

    // Random inserts at element boundaries and just inside start tags,
    // and random whole-element removals.
    for (int op = 0; op < 12; ++op) {
      TagDict dict;
      const auto records = ParseFragment(shadow, &dict).ValueOrDie().records;
      const ElementRecord& around = records[rng.Uniform(records.size())];
      if (records.size() > 1 && rng.Bernoulli(0.3) && around.start > 0) {
        ASSERT_TRUE(
            db.RemoveSegment(around.start, around.end - around.start).ok());
        testutil::SpliceRemove(&shadow, around.start,
                               around.end - around.start);
        continue;
      }
      uint64_t gp = around.start;
      if (around.start == 0 || rng.Bernoulli(0.5)) {
        gp = shadow.find('>', around.start) + 1;  // just inside
      } else if (rng.Bernoulli(0.5)) {
        gp = around.end;
      }
      const std::string frag = RandomFragment(&rng);
      ASSERT_TRUE(db.InsertSegment(frag, gp).ok());
      testutil::SpliceInsert(&shadow, frag, gp);
    }
    db.Freeze();
    ASSERT_TRUE(db.CheckInvariants().ok());
    ExpectConverterMatchesLinearWalk(db);

    const DocTree doc(shadow);
    int nonempty = 0;
    for (int q = 0; q < 24; ++q) {
      const int kind = static_cast<int>(rng.Uniform(3));
      const std::vector<XPathStep> pattern = SamplePath(
          &rng, doc, SIZE_MAX, rng.Uniform(doc.names.size()), 0,
          /*wildcards=*/kind == 2, /*predicates=*/kind >= 1);
      const std::string expr = FormatXPath(pattern);
      SCOPED_TRACE(expr);
      nonempty += !testutil::ExpectMatchesNaive(&db, QuerySyntax::kXPath, expr)
                       .refs.empty();
      if (kind <= 1) testutil::ExpectMatchesNaive(&db, QuerySyntax::kTwig, expr);
      if (kind == 0) testutil::ExpectMatchesNaive(&db, QuerySyntax::kPath, expr);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GE(nonempty, 12) << "the patterns must select something";
  }
}

std::vector<GridPoint> Grid() {
  std::vector<GridPoint> grid;
  for (LogMode mode : {LogMode::kLazyDynamic, LogMode::kLazyStatic}) {
    for (bool summary : {true, false}) {
      grid.push_back(GridPoint{mode, summary});
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, QueryEvalPropertyTest,
                         ::testing::ValuesIn(Grid()), GridName);

}  // namespace
}  // namespace lazyxml
