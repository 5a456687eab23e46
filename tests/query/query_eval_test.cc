// The set-at-a-time evaluator (query/query_eval.h) and the batched
// global converter (core/global_converter.h):
//  * the normalizing merge;
//  * the perfbench templates answer byte-identically to the evaluators
//    this one replaced (goldens recorded from them on the same store),
//    with the path summary on and off;
//  * summary-exact steps run no join, and a stale or disabled summary
//    falls back to the joins; limited listings are prefixes of the full
//    answer with the exact count;
//  * the converter equals the linear walk (SegmentNode::FrozenToGlobal)
//    at every frozen offset, splices at element boundaries and offsets
//    inside removed gaps included;
//  * a randomized property suite: random XMark documents, chopped and
//    updated, random patterns in all three syntaxes, equal to the naive
//    oracle over {LD, LS} x {summary on, off}, and every limited answer a
//    prefix of the unlimited one.

#include "query/query_eval.h"

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/global_converter.h"
#include "core/lazy_database.h"
#include "obs/metrics.h"
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
  // COUNT and the FNV-1a hash of every reply row ("sid start" for PATH
  // and TWIG, "start end" for XPATH), recorded from the per-verb PATH,
  // TWIG and XPath evaluators on testutil::BuildTemplateStore; both must
  // hold with the path summary on and off. PAIRS and JOINS count the work
  // done, so each run has its own: with the summary on, summary-exact
  // steps run no join and predicates the summary proves true are
  // skipped (docs/PATH_SUMMARY.md); with it off, every step joins,
  // wildcards expand to every tag and nothing is proved empty. The
  // summary-on work depends on the template order: the first template
  // that needs an unknown edge pays its re-proof join (article/year in
  // `article[year]/author`, article/author in `//batch/article[author]/
  // year`, both weak), later ones read the recorded state.
  struct Golden {
    size_t count;
    uint64_t pairs;
    uint64_t joins;
    uint64_t off_pairs;
    uint64_t off_joins;
    uint64_t rows_fnv;
  };
  static const Golden kGolden[] = {
      {971, 971, 1, 971, 1, 0xa36079cddac74f43ull},  // PATH person//phone
      {1411, 0, 0, 1411, 1, 0x9fe56d1726b1b65full},  // PATH profile//interest
      {1803, 0, 0, 1803, 1, 0xff32945242758f13ull},  // PATH watches//watch
      {1803, 0, 0, 1803, 1, 0xff32945242758f13ull},  // PATH person//watch
      {1411, 0, 0, 1411, 1, 0x9fe56d1726b1b65full},  // PATH person//interest
      {398, 0, 0, 796, 2, 0x20e14063b1dd2524ull},  // PATH person/address/city
      {398, 398, 1, 796, 2, 0xdbae5ad6f23d33f1ull},  // PATH people/person/name
      {159, 0, 0, 318, 2, 0xb141475e8bd2f19eull},  // PATH open_auction/bidder/personref
      {50, 0, 0, 50, 1, 0x098a387d8a102ca9ull},  // PATH closed_auction/price
      {398, 0, 0, 796, 2, 0x6ab3e3391061671cull},  // PATH person/profile/age
      {1411, 0, 0, 1809, 2, 0x9fe56d1726b1b65full},  // TWIG person[profile]//interest
      {971, 971, 1, 1369, 2, 0xa36079cddac74f43ull},  // TWIG person[watches]/phone
      {78, 259, 2, 259, 2, 0x7a199fbb55053fa3ull},  // TWIG open_auction[bidder]/seller
      {80, 0, 0, 160, 2, 0x7771374ba5160596ull},  // TWIG item[incategory]/location
      {398, 0, 0, 1194, 3, 0x1077715693464125ull},  // TWIG person[address[zipcode]]/emailaddress
      {50, 0, 0, 100, 2, 0x836d4a4d3d0ec946ull},  // XPATH //closed_auction[buyer]/price
      {78, 418, 3, 418, 3, 0x9af4693413a15352ull},  // XPATH //open_auction[bidder/personref]/seller
      {80, 0, 0, 245, 72, 0x0b21a419546a20c6ull},  // XPATH //regions/*/item[incategory]/location
      {10, 10, 1, 110, 3, 0x7c14852cadd340adull},  // XPATH //category[description/text]/name
      {159, 0, 0, 1018, 73, 0xda43b6339b1ea14cull},  // XPATH //open_auction/*/personref
      {50, 50, 1, 100, 2, 0xed94b81aa5d7f965ull},  // XPATH //closed_auction[buyer]/itemref
      {0, 0, 0, 0, 1, 0x14650fb0739d0383ull},  // XPATH //phone//person
      {0, 0, 0, 0, 1, 0x14650fb0739d0383ull},  // XPATH //interest//watch
      {0, 0, 0, 0, 1, 0x14650fb0739d0383ull},  // XPATH //watch/name
      {0, 0, 0, 0, 1, 0x14650fb0739d0383ull},  // XPATH //address//profile
      {0, 0, 0, 0, 1, 0x14650fb0739d0383ull},  // XPATH //item//person
      {50, 0, 0, 50, 1, 0xc47218997ff1fe1aull},  // PATH registration/email
      {50, 0, 0, 100, 2, 0x167b51f2ccae7b9dull},  // PATH registrations/registration/id
      {44, 0, 0, 88, 2, 0x56d0174eedfad6f4ull},  // PATH batch/article/title
      {79, 0, 0, 79, 1, 0x1114176c0506edbcull},  // PATH registration//topic
      {398, 0, 0, 796, 2, 0xe738cc5a22ca7884ull},  // PATH person/address/zipcode
      {36, 179, 3, 179, 3, 0x3affd65052d0e4e0ull},  // TWIG registration[preferences/topic]/email
      {31, 109, 3, 78, 2, 0x61860e97b8e52311ull},  // TWIG article[year]/author
      {398, 398, 1, 796, 2, 0xdbae5ad6f23d33f1ull},  // TWIG person[watches]/name
      {35, 103, 2, 103, 2, 0x1ab7ce9858b14630ull},  // XPATH //registration[phone]/name
      {21, 125, 3, 122, 3, 0xd81b5878e3a62d62ull},  // XPATH //batch/article[author]/year
      {50, 0, 0, 100, 66, 0xc54ff319b5cc72c5ull},  // XPATH //registrations/*/occupation
      {398, 0, 0, 1194, 3, 0xa51b55dcce5dc25dull},  // XPATH //person[profile/business]/emailaddress
      {0, 0, 0, 0, 1, 0x14650fb0739d0383ull},  // XPATH //registration//person
      {0, 0, 0, 0, 1, 0x14650fb0739d0383ull},  // XPATH //article//registration
      {0, 0, 0, 0, 1, 0x14650fb0739d0383ull},  // XPATH //topic//phone
  };
  const std::vector<testutil::QueryTemplate> templates =
      testutil::PerfbenchTemplates();
  ASSERT_EQ(templates.size(), std::size(kGolden));
  for (bool summary : {true, false}) {
    SCOPED_TRACE(summary ? "summary on" : "summary off");
    LazyDatabaseOptions opts;
    opts.query.use_path_summary = summary;
    LazyDatabase db(opts);
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
      EXPECT_EQ(xr.count, kGolden[i].count);
      EXPECT_EQ(xr.refs.size(), kGolden[i].count);
      EXPECT_EQ(Fnv1a(rows), kGolden[i].rows_fnv);
      EXPECT_EQ(xr.intermediate_pairs,
                summary ? kGolden[i].pairs : kGolden[i].off_pairs);
      EXPECT_EQ(xr.joins_executed,
                summary ? kGolden[i].joins : kGolden[i].off_joins);
    }
  }
}

// ---------------------------------------------------------------------------
// Summary-exact steps and limited listings.

// Every b lies below an a, every a and x below r; c lies below a/b and x.
constexpr const char* kExactDoc =
    "<r><a><b><c/></b></a><a><b><c/></b><d/></a><x><c/><d/></x></r>";

TEST(QueryEvalSummaryExactTest, CoveredStepsRunNoJoin) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment(kExactDoc, 0).ok());
  db.Freeze();
  ASSERT_NE(db.path_summary(), nullptr);
  struct Case {
    QuerySyntax syntax;
    const char* expr;
    size_t count;
    uint64_t joins;
  };
  const Case kCases[] = {
      {QuerySyntax::kPath, "a/b", 2, 0},
      {QuerySyntax::kPath, "r/a/b", 2, 0},
      {QuerySyntax::kPath, "r//c", 3, 0},
      {QuerySyntax::kXPath, "r/*/b", 2, 0},
      // c also lies below x: the b/c edge joins.
      {QuerySyntax::kPath, "a/b/c", 2, 1},
      // The backward pass narrows * to x, the only step-1 tag with a c
      // child: one join (x/c) instead of two (a/c, x/c).
      {QuerySyntax::kXPath, "r/*/c", 1, 1},
      // A predicate before the step makes the summary inexact: a/d, a/b.
      {QuerySyntax::kTwig, "a[d]/b", 1, 2},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.expr);
    const XPathResult r = testutil::ExpectMatchesNaive(&db, c.syntax, c.expr);
    EXPECT_EQ(r.count, c.count);
    EXPECT_EQ(r.refs.size(), c.count);
    EXPECT_EQ(r.joins_executed, c.joins);
    if (c.joins == 0) {
      EXPECT_EQ(r.intermediate_pairs, 0u);
    }
  }
}

TEST(QueryEvalSummaryExactTest, StaleOrDisabledSummaryFallsBackToJoins) {
  LazyDatabase live;
  ASSERT_TRUE(live.InsertSegment(kExactDoc, 0).ok());
  live.Freeze();
  const XPathResult exact =
      EvaluateQuery(&live, QuerySyntax::kPath, "a/b").ValueOrDie();
  ASSERT_EQ(exact.joins_executed, 0u);

  // Going around the facade stales the summary: it is not consulted.
  (void)live.mutable_update_log();
  ASSERT_EQ(live.path_summary(), nullptr);
  const XPathResult stale =
      testutil::ExpectMatchesNaive(&live, QuerySyntax::kPath, "a/b");
  EXPECT_EQ(stale.joins_executed, 1u);
  EXPECT_EQ(stale.intermediate_pairs, 2u);
  EXPECT_EQ(stale.refs, exact.refs);

  LazyDatabaseOptions opts;
  opts.query.use_path_summary = false;
  LazyDatabase off(opts);
  ASSERT_TRUE(off.InsertSegment(kExactDoc, 0).ok());
  const XPathResult disabled =
      testutil::ExpectMatchesNaive(&off, QuerySyntax::kPath, "a/b");
  EXPECT_EQ(disabled.joins_executed, 1u);
  EXPECT_EQ(disabled.refs, exact.refs);
}

TEST(QueryEvalSummaryExactTest, ListingReadsRunsInSidOrder) {
  // Segment 2 lands before segment 1 in the document, so the tag list
  // holds c's entries in the order (2, 1); rows are listed by sid.
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<r><c/><c/></r>", 0).ok());
  ASSERT_TRUE(db.InsertSegment("<c/>", 0).ok());
  db.Freeze();
  const XPathResult full =
      testutil::ExpectMatchesNaive(&db, QuerySyntax::kPath, "c");
  ASSERT_EQ(full.refs.size(), 3u);
  EXPECT_EQ(full.refs.front().sid, 1u);
  EXPECT_EQ(full.refs.back().sid, 2u);
  for (size_t max_rows : {0, 1, 2, 3, 4}) {
    SCOPED_TRACE("max_rows " + std::to_string(max_rows));
    const XPathResult cut =
        EvaluateQuery(&db, QuerySyntax::kPath, "c", {}, max_rows)
            .ValueOrDie();
    EXPECT_EQ(cut.count, 3u);
    EXPECT_EQ(cut.refs,
              std::vector<LazyElementRef>(
                  full.refs.begin(),
                  full.refs.begin() +
                      static_cast<ptrdiff_t>(std::min<size_t>(max_rows, 3))));
    const XPathResult global =
        EvaluateQuery(&db, QuerySyntax::kXPath, "c", {}, max_rows)
            .ValueOrDie();
    EXPECT_EQ(global.count, 3u);
    EXPECT_EQ(global.elements.size(), std::min<size_t>(max_rows, 3));
  }
}

// ---------------------------------------------------------------------------
// Summary-proven predicates.

uint64_t EdgeProofs() {
  return obs::MetricsRegistry::Global()
      .GetCounter("summary.edge_proofs_total")
      .Value();
}

/// State of the edge into the summary node at `path` ("r/p/x").
EdgeState EdgeInto(const LazyDatabase& db, const std::string& path) {
  const PathSummary* ps = db.path_summary();
  EXPECT_NE(ps, nullptr);
  if (ps == nullptr) return EdgeState::kUnknown;
  uint32_t node = PathSummary::kRootNode;
  size_t at = 0;
  while (at <= path.size()) {
    const size_t slash = std::min(path.find('/', at), path.size());
    const TagId tid =
        db.tag_dict().Lookup(path.substr(at, slash - at)).ValueOrDie();
    node = ps->Find(node, tid);
    EXPECT_NE(node, PathSummary::kNoNode) << path;
    if (node == PathSummary::kNoNode) return EdgeState::kUnknown;
    at = slash + 1;
  }
  return ps->edge_state(node);
}

XPathResult Twig(LazyDatabase* db, const char* expr) {
  return testutil::ExpectMatchesNaive(db, QuerySyntax::kTwig, expr);
}

TEST(QueryEvalSummaryProofTest, StrongEdgeReprovedAfterChoppedLoad) {
  LazyDatabase db;
  // The second p receives its x in a later segment, as a chopped load
  // fills parents after inserting them: the edge p -> x is unknown.
  const std::string doc = "<r><p><x/><z/></p><p><z/></p></r>";
  ASSERT_TRUE(db.InsertSegment(doc, 0).ok());
  ASSERT_EQ(EdgeInto(db, "r/p/x"), EdgeState::kWeak);
  ASSERT_TRUE(db.InsertSegment("<x/>", doc.find("<z/></p></r>")).ok());
  db.Freeze();
  ASSERT_EQ(EdgeInto(db, "r/p/x"), EdgeState::kUnknown);
  const uint64_t proofs = EdgeProofs();
  const XPathResult first = Twig(&db, "p[x]/z");
  EXPECT_EQ(first.count, 2u);
  EXPECT_EQ(first.joins_executed, 1u);  // the re-proof p/x, nothing else
  EXPECT_EQ(EdgeProofs(), proofs + 1);
  EXPECT_EQ(EdgeInto(db, "r/p/x"), EdgeState::kStrong);
  const XPathResult again = Twig(&db, "p[x]/z");
  EXPECT_EQ(again.joins_executed, 0u);
  EXPECT_EQ(again.intermediate_pairs, 0u);
  EXPECT_EQ(EdgeProofs(), proofs + 1);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(QueryEvalSummaryProofTest, PredicateMustHoldOnEveryNodeOfTheStep) {
  // Two x nodes: r/a/x, whose every element has a y, and r/b/x, with no
  // y at all. Both have z children, so dropping [y] because r/a/x -> y
  // is strong would list b's z too.
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<r><a><x><y/><z/></x></a>"
                               "<b><x><z/></x></b></r>",
                               0)
                  .ok());
  db.Freeze();
  ASSERT_EQ(EdgeInto(db, "r/a/x/y"), EdgeState::kStrong);
  const XPathResult r =
      testutil::ExpectMatchesNaive(&db, QuerySyntax::kXPath, "//x[y]/z");
  EXPECT_EQ(r.count, 1u);
  EXPECT_GT(r.joins_executed, 0u);
}

TEST(QueryEvalSummaryProofTest, RemovedChildJoinsAgainAndWeakIsNotRetried) {
  LazyDatabase db;
  std::string shadow = "<r><p><x/><z/></p><p><x/><z/></p></r>";
  ASSERT_TRUE(db.InsertSegment(shadow, 0).ok());
  db.Freeze();
  EXPECT_EQ(Twig(&db, "p[x]/z").joins_executed, 0u);
  // Remove the second p's x; its p survives.
  const size_t second_x = shadow.rfind("<x/>");
  ASSERT_TRUE(db.RemoveSegment(second_x, 4).ok());
  testutil::SpliceRemove(&shadow, second_x, 4);
  db.Freeze();
  EXPECT_EQ(EdgeInto(db, "r/p/x"), EdgeState::kUnknown);
  const uint64_t proofs = EdgeProofs();
  const XPathResult after = Twig(&db, "p[x]/z");
  EXPECT_EQ(after.count, 1u);
  // Re-proof p/x (weak now), then the predicate p//x and the step p/z.
  EXPECT_EQ(after.joins_executed, 3u);
  EXPECT_EQ(EdgeProofs(), proofs + 1);
  EXPECT_EQ(EdgeInto(db, "r/p/x"), EdgeState::kWeak);
  // A weak edge is not retried: the query costs today's joins, no more.
  for (int i = 0; i < 3; ++i) {
    const XPathResult r = Twig(&db, "p[x]/z");
    EXPECT_EQ(r.count, 1u);
    EXPECT_EQ(r.joins_executed, 2u);
  }
  EXPECT_EQ(EdgeProofs(), proofs + 1);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(QueryEvalSummaryProofTest, NewParentWithoutTheChildWeakensTheEdge) {
  LazyDatabase db;
  const std::string doc = "<r><p><x/><z/></p></r>";
  ASSERT_TRUE(db.InsertSegment(doc, 0).ok());
  db.Freeze();
  ASSERT_EQ(EdgeInto(db, "r/p/x"), EdgeState::kStrong);
  EXPECT_EQ(Twig(&db, "p[x]/z").count, 1u);
  // A whole new p lands under r without an x.
  ASSERT_TRUE(db.InsertSegment("<p><z/></p>", doc.size() - 4).ok());
  db.Freeze();
  EXPECT_EQ(EdgeInto(db, "r/p/x"), EdgeState::kWeak);
  const uint64_t proofs = EdgeProofs();
  const XPathResult r = Twig(&db, "p[x]/z");
  EXPECT_EQ(r.count, 1u);
  EXPECT_EQ(r.joins_executed, 2u);
  EXPECT_EQ(EdgeProofs(), proofs);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(QueryEvalSummaryProofTest, PathImpliedPredicateIsDropped) {
  // One person has no profile, so person -> profile is weak; but every
  // interest below a person lies on person/profile/interest, so any
  // person with an interest descendant has a profile.
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<site><person><profile><interest/>"
                               "<interest/></profile></person>"
                               "<person><name/></person></site>",
                               0)
                  .ok());
  db.Freeze();
  ASSERT_EQ(EdgeInto(db, "site/person/profile"), EdgeState::kWeak);
  const XPathResult r = Twig(&db, "person[profile]//interest");
  EXPECT_EQ(r.count, 2u);
  EXPECT_EQ(r.joins_executed, 0u);
  // Not implied when the step below does not pass through the predicate.
  const XPathResult name = Twig(&db, "person[profile]/name");
  EXPECT_EQ(name.count, 0u);
}

TEST(QueryEvalSummaryProofTest, MatchingWorkIsNodesTimesPatternSteps) {
  // A chain of nested <a>, with the <b> the pattern ends in either at the
  // bottom or beside the chain. Matching without a memo tried every way
  // to place the pattern's steps on the chain, C(depth, steps) of them
  // when no placement succeeds (1.1 s at depth 32, in Release); with one
  // table cell per (step, node) the work is bounded by the table. The
  // naive oracle had the same blow-up and keeps a memo of its own, so
  // both placements of <b> are checked against it.
  for (int depth : {24, 32, 40}) {
    for (bool b_below : {true, false}) {
      SCOPED_TRACE("depth " + std::to_string(depth) +
                   (b_below ? ", b below" : ", b beside"));
      std::string doc = "<r>";
      for (int i = 0; i < depth; ++i) doc += "<a>";
      if (b_below) doc += "<b/>";
      for (int i = 0; i < depth; ++i) doc += "</a>";
      if (!b_below) doc += "<b/>";
      doc += "</r>";
      LazyDatabase db;
      ASSERT_TRUE(db.InsertSegment(doc, 0).ok());
      db.Freeze();
      const uint64_t nodes = db.path_summary()->num_nodes();
      for (const char* expr : {"//a[a//a//a//a//a//a//a//b]",
                               "//a[*//*//*//*//*//*//*//b]"}) {
        SCOPED_TRACE(expr);
        const uint64_t steps = 9;
        const XPathResult r =
            testutil::ExpectMatchesNaive(&db, QuerySyntax::kXPath, expr);
        EXPECT_EQ(r.count, b_below ? static_cast<uint64_t>(depth - 7) : 0u);
        EXPECT_EQ(r.summary_empty, !b_below);
        EXPECT_GT(r.summary_visits, 0u);
        EXPECT_LE(r.summary_visits, 16 * nodes * steps);
      }
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

/// A random XMark document, chopped into segments, then churned by random
/// inserts at element boundaries and just inside start tags and random
/// whole-element removals; `*shadow` is the document text it must hold.
void BuildChurnedStore(const GridPoint& g, uint64_t seed, Random* rng,
                       std::unique_ptr<LazyDatabase>* out,
                       std::string* shadow) {
  XMarkConfig cfg;
  cfg.seed = seed;
  cfg.num_persons = 8;
  cfg.num_items = 4;
  cfg.num_categories = 3;
  cfg.num_open_auctions = 3;
  cfg.num_closed_auctions = 2;
  *shadow = XMarkGenerator(cfg).Generate().ValueOrDie();
  ChopConfig chop;
  chop.num_segments = 8;
  chop.shape = seed % 2 == 0 ? ErTreeShape::kNested : ErTreeShape::kBalanced;
  chop.allow_fewer = true;
  auto plan = BuildChopPlan(*shadow, chop);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  LazyDatabaseOptions opts;
  opts.mode = g.mode;
  opts.query.use_path_summary = g.summary;
  *out = std::make_unique<LazyDatabase>(opts);
  LazyDatabase& db = **out;
  ASSERT_TRUE(ApplyPlan(&db, plan.ValueOrDie().insertions).ok());

  for (int op = 0; op < 12; ++op) {
    TagDict dict;
    const auto records = ParseFragment(*shadow, &dict).ValueOrDie().records;
    const ElementRecord& around = records[rng->Uniform(records.size())];
    if (records.size() > 1 && rng->Bernoulli(0.3) && around.start > 0) {
      ASSERT_TRUE(
          db.RemoveSegment(around.start, around.end - around.start).ok());
      testutil::SpliceRemove(shadow, around.start, around.end - around.start);
      continue;
    }
    uint64_t gp = around.start;
    if (around.start == 0 || rng->Bernoulli(0.5)) {
      gp = shadow->find('>', around.start) + 1;  // just inside
    } else if (rng->Bernoulli(0.5)) {
      gp = around.end;
    }
    const std::string frag = RandomFragment(rng);
    ASSERT_TRUE(db.InsertSegment(frag, gp).ok());
    testutil::SpliceInsert(shadow, frag, gp);
  }
  db.Freeze();
  ASSERT_TRUE(db.CheckInvariants().ok());
}

TEST_P(QueryEvalPropertyTest, AllSyntaxesEqualTheNaiveOracle) {
  const GridPoint g = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed * 7919);
    std::unique_ptr<LazyDatabase> store;
    std::string shadow;
    BuildChurnedStore(g, seed, &rng, &store, &shadow);
    if (HasFatalFailure()) return;
    LazyDatabase& db = *store;
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

TEST_P(QueryEvalPropertyTest, LimitedAnswersArePrefixesWithExactCounts) {
  const GridPoint g = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed * 104729);
    std::unique_ptr<LazyDatabase> store;
    std::string shadow;
    BuildChurnedStore(g, seed, &rng, &store, &shadow);
    if (HasFatalFailure()) return;
    LazyDatabase& db = *store;

    const DocTree doc(shadow);
    for (int q = 0; q < 24; ++q) {
      const int kind = static_cast<int>(rng.Uniform(3));
      const std::string expr = FormatXPath(SamplePath(
          &rng, doc, SIZE_MAX, rng.Uniform(doc.names.size()), 0,
          /*wildcards=*/kind == 2, /*predicates=*/kind >= 1));
      for (QuerySyntax syntax :
           {QuerySyntax::kPath, QuerySyntax::kTwig, QuerySyntax::kXPath}) {
        if ((syntax == QuerySyntax::kPath && kind != 0) ||
            (syntax == QuerySyntax::kTwig && kind == 2)) {
          continue;
        }
        SCOPED_TRACE(expr + " as syntax " +
                     std::to_string(static_cast<int>(syntax)));
        const XPathResult full =
            EvaluateQuery(&db, syntax, expr).ValueOrDie();
        ASSERT_EQ(full.count, full.refs.size());
        const size_t n = full.refs.size();
        for (size_t max_rows : {size_t{0}, size_t{1}, n / 2, n, n + 1}) {
          const XPathResult cut =
              EvaluateQuery(&db, syntax, expr, {}, max_rows).ValueOrDie();
          const size_t listed = std::min(n, max_rows);
          EXPECT_EQ(cut.count, full.count) << "max_rows " << max_rows;
          EXPECT_EQ(cut.refs, std::vector<LazyElementRef>(
                                  full.refs.begin(),
                                  full.refs.begin() +
                                      static_cast<ptrdiff_t>(listed)))
              << "max_rows " << max_rows;
          EXPECT_EQ(cut.elements,
                    std::vector<GlobalElement>(
                        full.elements.begin(),
                        full.elements.begin() +
                            static_cast<ptrdiff_t>(std::min(
                                full.elements.size(), max_rows))))
              << "max_rows " << max_rows;
        }
        if (HasFailure()) return;
      }
    }
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
