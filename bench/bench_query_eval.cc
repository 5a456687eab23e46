// Query evaluation, layer by layer below the server.
//
//  * BM_Template/<i>: one PATH, TWIG or XPATH template of the perfbench
//    `xmark-read` workload, evaluated single-threaded through the library
//    (EvaluateQuery, the server's entry point) on that workload's corpus
//    shape: XMark with 8000 persons (seed 3) chopped into 1000 balanced
//    segments, default query options (path summary on). No server, lock
//    or writer. The label names the template. Every row is built.
//  * BM_TemplateListed/<i>: the same, building only the first 1000 rows,
//    the server's default listing cap (`results` stays the full count,
//    `listed` is the rows built).
//  * BM_Join/<i>: one Lazy-Join edge of those templates (JoinByName,
//    path summary on) on the same corpus; `pairs` is its output size.
//    The label names the edge. item/incategory, item/location and
//    regions//item join few elements in each of many segment rounds, so
//    they time the kernel's fixed cost per round.
//  * BM_Scan/<i>: fetching every (tag, segment) element list of one tag
//    through the query facade (LazyDatabase::GetScan), as the joins and
//    the evaluator do. The `per_elem` counter is the time per element
//    fetched.
//  * BM_GlobalConvert/<children>/<batched>: converting every element of a
//    1000-element segment with `children` child segments spliced between
//    its elements to global offsets — batched (GlobalConverter, two binary
//    searches per offset) vs the linear walk (SegmentNode::FrozenToGlobal).
//    The `per_elem` counter is the time per converted element.
//  * BM_SerialJoinObs/<on>: metrics-registry overhead — the Fig. 12
//    cross-join workload (balanced ER-tree, 400 segments, 60 000 A//D
//    pairs) joined with the process-wide registry enabled (obs_on) vs
//    disabled (obs_off). `--quick` shrinks the workload for CI's
//    metrics-overhead smoke, which bounds the obs_on/obs_off ratio.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/global_converter.h"
#include "query/xpath.h"
#include "xmlgen/chopper.h"
#include "xmlgen/xmark_generator.h"

namespace lazyxml {

// --quick (CI smoke mode, see .github/workflows/ci.yml): a join workload
// an order of magnitude smaller for BM_SerialJoinObs, sized so the
// metrics-overhead check runs in seconds on a shared runner while each
// join still does real work.
bool g_quick = false;

namespace {

struct Template {
  QuerySyntax syntax;
  const char* verb;
  const char* expr;
};

// perfbench/src/workload.cc XMarkQueries(), in order.
const std::vector<Template>& Templates() {
  static const std::vector<Template> kTemplates = {
      {QuerySyntax::kPath, "PATH", "person//phone"},
      {QuerySyntax::kPath, "PATH", "profile//interest"},
      {QuerySyntax::kPath, "PATH", "watches//watch"},
      {QuerySyntax::kPath, "PATH", "person//watch"},
      {QuerySyntax::kPath, "PATH", "person//interest"},
      {QuerySyntax::kPath, "PATH", "person/address/city"},
      {QuerySyntax::kPath, "PATH", "people/person/name"},
      {QuerySyntax::kPath, "PATH", "open_auction/bidder/personref"},
      {QuerySyntax::kPath, "PATH", "closed_auction/price"},
      {QuerySyntax::kPath, "PATH", "person/profile/age"},
      {QuerySyntax::kTwig, "TWIG", "person[profile]//interest"},
      {QuerySyntax::kTwig, "TWIG", "person[watches]/phone"},
      {QuerySyntax::kTwig, "TWIG", "open_auction[bidder]/seller"},
      {QuerySyntax::kTwig, "TWIG", "item[incategory]/location"},
      {QuerySyntax::kTwig, "TWIG", "person[address[zipcode]]/emailaddress"},
      {QuerySyntax::kXPath, "XPATH", "//closed_auction[buyer]/price"},
      {QuerySyntax::kXPath, "XPATH", "//open_auction[bidder/personref]/seller"},
      {QuerySyntax::kXPath, "XPATH", "//regions/*/item[incategory]/location"},
      {QuerySyntax::kXPath, "XPATH", "//category[description/text]/name"},
      {QuerySyntax::kXPath, "XPATH", "//open_auction/*/personref"},
      {QuerySyntax::kXPath, "XPATH", "//closed_auction[buyer]/itemref"},
      {QuerySyntax::kXPath, "XPATH", "//phone//person"},
      {QuerySyntax::kXPath, "XPATH", "//interest//watch"},
      {QuerySyntax::kXPath, "XPATH", "//watch/name"},
      {QuerySyntax::kXPath, "XPATH", "//address//profile"},
      {QuerySyntax::kXPath, "XPATH", "//item//person"},
  };
  return kTemplates;
}

/// The xmark-read corpus (perfbench/src/workload.cc XMarkShape +
/// ChoppedCorpus), built once.
LazyDatabase* Corpus() {
  static LazyDatabase* db = [] {
    XMarkConfig cfg;
    cfg.seed = 3;
    cfg.num_persons = 8000;
    cfg.num_items = cfg.num_persons / 5;
    cfg.num_open_auctions = cfg.num_persons / 4;
    cfg.num_closed_auctions = cfg.num_persons / 8;
    cfg.profile_probability = 1.0;
    cfg.watches_probability = 1.0;
    cfg.min_phones = 1;
    cfg.max_phones = 4;
    cfg.min_interests = 1;
    cfg.max_interests = 6;
    cfg.min_watches = 1;
    cfg.max_watches = 8;
    auto doc = XMarkGenerator(cfg).Generate();
    LAZYXML_CHECK(doc.ok());
    ChopConfig chop;
    chop.num_segments = 1000;
    chop.shape = ErTreeShape::kBalanced;
    auto plan = BuildChopPlan(doc.ValueOrDie(), chop);
    LAZYXML_CHECK(plan.ok());
    return bench::BuildDatabase(plan.ValueOrDie().insertions,
                                LogMode::kLazyDynamic)
        .release();
  }();
  return db;
}

/// The server's default listing cap (server::SessionLimits::
/// max_result_elements): a reply lists at most this many rows.
constexpr size_t kServerListing = 1000;

void RunTemplate(benchmark::State& state, size_t max_rows) {
  const Template& t = Templates()[static_cast<size_t>(state.range(0))];
  LazyDatabase* db = Corpus();
  XPathResult last;
  for (auto _ : state) {
    auto r = EvaluateQuery(db, t.syntax, t.expr, {}, max_rows);
    LAZYXML_CHECK(r.ok());
    last = std::move(r).ValueOrDie();
    benchmark::DoNotOptimize(last.refs.data());
  }
  state.counters["results"] = static_cast<double>(last.count);
  state.counters["listed"] = static_cast<double>(last.refs.size());
  state.counters["joins"] = static_cast<double>(last.joins_executed);
  state.counters["pairs"] = static_cast<double>(last.intermediate_pairs);
  state.SetLabel(std::string(t.verb) + " " + t.expr);
}

void BM_Template(benchmark::State& state) { RunTemplate(state, kAllRows); }
BENCHMARK(BM_Template)
    ->DenseRange(0, 25)
    ->Unit(benchmark::kMicrosecond);

void BM_TemplateListed(benchmark::State& state) {
  RunTemplate(state, kServerListing);
}
BENCHMARK(BM_TemplateListed)
    ->DenseRange(0, 25)
    ->Unit(benchmark::kMicrosecond);

struct Edge {
  const char* ancestor;
  const char* descendant;
  bool parent_child;
};

const std::vector<Edge>& Edges() {
  static const std::vector<Edge> kEdges = {
      {"person", "phone", false},    {"profile", "interest", false},
      {"watches", "watch", false},   {"person", "address", true},
      {"address", "city", true},     {"item", "incategory", true},
      {"item", "location", true},    {"regions", "item", false},
  };
  return kEdges;
}

void BM_Join(benchmark::State& state) {
  const Edge& e = Edges()[static_cast<size_t>(state.range(0))];
  LazyDatabase* db = Corpus();
  LazyJoinOptions opts;
  opts.parent_child = e.parent_child;
  size_t pairs = 0;
  for (auto _ : state) {
    auto r = db->JoinByName(e.ancestor, e.descendant, opts);
    LAZYXML_CHECK(r.ok());
    pairs = r.ValueOrDie().pairs.size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetLabel(std::string(e.ancestor) + (e.parent_child ? "/" : "//") +
                 e.descendant);
}
BENCHMARK(BM_Join)
    ->DenseRange(0, 7)
    ->Unit(benchmark::kMicrosecond);

const std::vector<const char*>& ScanTags() {
  static const std::vector<const char*> kTags = {
      "person", "phone", "interest", "watch", "address", "open_auction"};
  return kTags;
}

void BM_Scan(benchmark::State& state) {
  const char* tag = ScanTags()[static_cast<size_t>(state.range(0))];
  LazyDatabase* db = Corpus();
  db->Freeze();
  const TagId tid = db->tag_dict().Lookup(tag).ValueOrDie();
  uint64_t elements = 0;
  for (auto _ : state) {
    elements = 0;
    for (const TagListEntry& e : db->update_log().tag_list().EntriesFor(tid)) {
      ElementScan scan = db->GetScan(tid, e.sid());
      elements += scan->size();
      benchmark::DoNotOptimize(scan->data());
    }
  }
  state.counters["elements"] = static_cast<double>(elements);
  state.counters["per_elem"] = benchmark::Counter(
      static_cast<double>(elements),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetLabel(tag);
}
BENCHMARK(BM_Scan)
    ->DenseRange(0, 5)
    ->Unit(benchmark::kMicrosecond);

/// One segment of 1000 <e/> elements with `children` child segments
/// spliced between them, evenly spaced.
std::unique_ptr<LazyDatabase> StarSegment(int children) {
  constexpr int kElements = 1000;
  std::string doc = "<r>";
  for (int i = 0; i < kElements; ++i) doc += "<e/>";
  doc += "</r>";
  auto db = std::make_unique<LazyDatabase>();
  LAZYXML_CHECK(db->InsertSegment(doc, 0).ok());
  // Insert back to front so earlier splice offsets stay valid.
  for (int c = children; c >= 1; --c) {
    const uint64_t slot = static_cast<uint64_t>(c) * kElements / (children + 1);
    LAZYXML_CHECK(db->InsertSegment("<c/>", 3 + 4 * slot).ok());
  }
  return db;
}

void BM_GlobalConvert(benchmark::State& state) {
  const int children = static_cast<int>(state.range(0));
  const bool batched = state.range(1) != 0;
  auto db = StarSegment(children);
  const SegmentNode* top = db->update_log().root()->children[0];
  LAZYXML_CHECK(top->children.size() == static_cast<size_t>(children));
  const std::vector<LocalElement> elems = *db->element_index().GetScan(
      db->tag_dict().Lookup("e").ValueOrDie(), top->sid);
  uint64_t sum = 0;
  for (auto _ : state) {
    if (batched) {
      GlobalConverter conv;  // per call, as in a query
      for (const LocalElement& e : elems) sum += conv.ToGlobal(*top, e).end;
    } else {
      for (const LocalElement& e : elems) {
        sum += top->FrozenToGlobal(e.start, true) +
               top->FrozenToGlobal(e.end, false);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.counters["per_elem"] = benchmark::Counter(
      static_cast<double>(elems.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetLabel(batched ? "batched" : "linear");
}
BENCHMARK(BM_GlobalConvert)
    ->ArgsProduct({{10, 100, 999}, {1, 0}})
    ->Unit(benchmark::kMicrosecond);

/// The Fig. 12 cross-join workload (balanced ER-tree), built once.
LazyDatabase* JoinWorkloadDatabase() {
  static LazyDatabase* db = [] {
    JoinWorkloadConfig cfg;
    cfg.num_segments = g_quick ? 50 : 400;
    cfg.shape = ErTreeShape::kBalanced;
    cfg.total_joins = g_quick ? 3000 : 60000;
    cfg.cross_fraction = 0.6;
    cfg.num_a_elements = g_quick ? 10000 : 200000;
    cfg.num_d_elements = g_quick ? 10000 : 200000;
    auto plan = BuildJoinWorkload(cfg);
    LAZYXML_CHECK(plan.ok());
    return bench::BuildDatabase(plan.ValueOrDie().insertions,
                                LogMode::kLazyDynamic)
        .release();
  }();
  return db;
}

// The join path writes a handful of instruments per query — the two
// labels must agree within run-to-run noise, which CI's metrics-overhead
// smoke asserts with a generous bound (see docs/OBSERVABILITY.md
// "Overhead").
void BM_SerialJoinObs(benchmark::State& state) {
  LazyDatabase* db = JoinWorkloadDatabase();
  const size_t expected = bench::RunLazyQuery(db, "A", "D");
  const bool obs_on = state.range(0) != 0;
  obs::MetricsRegistry::Global().SetEnabled(obs_on);
  size_t pairs = 0;
  for (auto _ : state) {
    pairs = bench::RunLazyQuery(db, "A", "D");
    benchmark::DoNotOptimize(pairs);
  }
  obs::MetricsRegistry::Global().SetEnabled(true);
  LAZYXML_CHECK(pairs == expected);
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetLabel(obs_on ? "obs_on" : "obs_off");
}
BENCHMARK(BM_SerialJoinObs)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace lazyxml

// Custom main: google-benchmark rejects flags it does not know, so the
// CI smoke mode's --quick is stripped (and applied) before Initialize.
int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      lazyxml::g_quick = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
