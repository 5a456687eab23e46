// Path-summary (DataGuide) benchmark: what the tentpole buys on an
// XMark-style mix — summary build cost, per-update incremental
// maintenance overhead, and structural joins / XPath twigs with pruning
// on vs off, including a summary-provably-empty query answered with ZERO
// tag-list scans. The fixture asserts pruned output byte-identical to
// unpruned before any timing runs, so the numbers can't come from a
// wrong answer. Scale knob: LAZYXML_XMARK_PERSONS (default 4000).
//
// The process-wide metrics dump at exit (bench/metrics_hook.h, embedded
// into BENCH_PR.json by bench/run_all.sh) records what really happened:
// query.joins_pruned_total, query.segments_pruned_total,
// query.elements_skipped_total, summary.{nodes,bytes}, and the
// summary.build_us / summary.update_us histograms.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "query/xpath.h"
#include "xmlgen/chopper.h"
#include "xmlgen/xmark_generator.h"

namespace lazyxml {
namespace pathsum {

/// A//D join queries over XMark tags. interest//person is the
/// empty-proof: both tags are populated, but no person ever nests below
/// an interest, which the summary proves in O(summary).
struct Query {
  const char* id;
  const char* anc;
  const char* desc;
  bool provably_empty;
};
constexpr Query kJoins[] = {
    {"J1", "person", "interest", false},
    {"J2", "watches", "watch", false},
    {"J3", "person", "phone", false},
    {"JE", "interest", "person", true},
};

constexpr const char* kTwigs[] = {
    "person[profile]//interest",
    "people/person/watches/watch",
    "site//profile/interest",
    "interest//person",  // empty-proof again, through the XPath planner
};

uint32_t NumPersons() {
  const char* env = std::getenv("LAZYXML_XMARK_PERSONS");
  return env != nullptr ? static_cast<uint32_t>(std::atoi(env)) : 4000;
}

struct Fixture {
  ChopPlan plan;
  std::string document;
  uint64_t splice_gp = 0;  ///< just inside the <site> root
  std::unique_ptr<LazyDatabase> with_summary;
  std::unique_ptr<LazyDatabase> without_summary;
};

std::unique_ptr<LazyDatabase> BuildWith(std::span<const SegmentInsertion> plan,
                                        bool use_summary) {
  LazyDatabaseOptions opts;
  opts.query.use_path_summary = use_summary;
  auto db = std::make_unique<LazyDatabase>(opts);
  LAZYXML_CHECK(ApplyPlan(db.get(), plan).ok());
  db->Freeze();  // builds the summary when enabled; a no-op sort in LD
  LAZYXML_CHECK((db->path_summary() != nullptr) == use_summary);
  return db;
}

const Fixture& GetFixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture();
    XMarkConfig cfg;
    cfg.num_persons = NumPersons();
    cfg.num_items = cfg.num_persons / 5;
    cfg.num_open_auctions = cfg.num_persons / 4;
    cfg.num_closed_auctions = cfg.num_persons / 8;
    cfg.profile_probability = 1.0;
    cfg.watches_probability = 1.0;
    auto doc = XMarkGenerator(cfg).Generate();
    LAZYXML_CHECK(doc.ok());
    fx->document = std::move(doc).ValueOrDie();
    ChopConfig chop;
    chop.num_segments = 100;
    chop.shape = ErTreeShape::kBalanced;
    auto plan = BuildChopPlan(fx->document, chop);
    LAZYXML_CHECK(plan.ok());
    fx->plan = std::move(plan).ValueOrDie();
    fx->splice_gp = fx->document.find('>') + 1;
    fx->with_summary = BuildWith(fx->plan.insertions, true);
    fx->without_summary = BuildWith(fx->plan.insertions, false);

    // Acceptance gate, checked before anything is timed: every join and
    // every twig must be byte-identical pruned vs unpruned, and the
    // empty-proof join must touch no tag list.
    for (const Query& q : kJoins) {
      auto pruned = fx->with_summary->JoinGlobal(q.anc, q.desc);
      auto full = fx->without_summary->JoinGlobal(q.anc, q.desc);
      LAZYXML_CHECK(pruned.ok() && full.ok());
      LAZYXML_CHECK(pruned.ValueOrDie() == full.ValueOrDie());
      if (q.provably_empty) {
        auto r = fx->with_summary->JoinByName(q.anc, q.desc);
        LAZYXML_CHECK(r.ok() && r.ValueOrDie().pairs.empty());
        LAZYXML_CHECK(r.ValueOrDie().stats.elements_fetched == 0);
      }
    }
    for (const char* expr : kTwigs) {
      auto pruned = EvaluateXPath(fx->with_summary.get(), expr);
      auto full = EvaluateXPath(fx->without_summary.get(), expr);
      LAZYXML_CHECK(pruned.ok() && full.ok());
      LAZYXML_CHECK(pruned.ValueOrDie().elements ==
                    full.ValueOrDie().elements);
    }
    std::fprintf(stderr,
                 "path-summary fixture: %zu bytes, %zu segments, summary "
                 "nodes=%zu bytes=%zu; pruned == unpruned for %zu joins + "
                 "%zu twigs; empty-proof join fetched 0 elements\n",
                 fx->document.size(), fx->plan.insertions.size(),
                 fx->with_summary->path_summary()->num_nodes(),
                 fx->with_summary->path_summary()->MemoryBytes(),
                 std::size(kJoins), std::size(kTwigs));
    return fx;
  }();
  return *f;
}

// -- Summary construction ----------------------------------------------------

void BM_SummaryBuild(benchmark::State& state) {
  const Fixture& f = GetFixture();
  const LazyDatabase& db = *f.with_summary;
  size_t nodes = 0;
  for (auto _ : state) {
    auto s = LazyDatabase::BuildPathSummary(db.update_log(),
                                            db.element_index());
    LAZYXML_CHECK(s.ok());
    nodes = s.ValueOrDie()->num_nodes();
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["summary_nodes"] = static_cast<double>(nodes);
  state.counters["summary_bytes"] = static_cast<double>(
      f.with_summary->path_summary()->MemoryBytes());
  state.counters["elements"] = static_cast<double>(
      f.with_summary->path_summary()->total_count());
}

// -- Incremental maintenance overhead ----------------------------------------

/// Insert + remove a small subtree at the same splice point (net zero,
/// so state never grows): the per-update cost of a maintained summary
/// vs none. arg0: 0 = summary off, 1 = summary maintained.
void BM_UpdateMaintenance(benchmark::State& state) {
  const Fixture& f = GetFixture();
  LazyDatabase* db = state.range(0) == 1 ? f.with_summary.get()
                                         : f.without_summary.get();
  const std::string frag = "<person><phone>1</phone></person>";
  for (auto _ : state) {
    auto sid = db->InsertSegment(frag, f.splice_gp);
    LAZYXML_CHECK(sid.ok());
    LAZYXML_CHECK(db->RemoveSegment(f.splice_gp, frag.size()).ok());
  }
  // The maintained variant must still be fresh after the churn.
  LAZYXML_CHECK((db->path_summary() != nullptr) == (state.range(0) == 1));
  state.SetLabel(state.range(0) == 1 ? "summary_on" : "summary_off");
  state.counters["updates_per_s"] = benchmark::Counter(
      2.0, benchmark::Counter::kIsIterationInvariantRate);
}

// -- Structural joins, pruning on vs off -------------------------------------

/// arg0: query index into kJoins; arg1: 0 = pruning off, 1 = on.
void BM_Join(benchmark::State& state) {
  const Fixture& f = GetFixture();
  const Query& q = kJoins[state.range(0)];
  LazyDatabase* db = state.range(1) == 1 ? f.with_summary.get()
                                         : f.without_summary.get();
  LazyJoinResult last;
  for (auto _ : state) {
    auto r = db->JoinByName(q.anc, q.desc);
    LAZYXML_CHECK(r.ok());
    benchmark::DoNotOptimize(r.ValueOrDie().pairs.size());
    last = std::move(r).ValueOrDie();
  }
  state.SetLabel(std::string(q.id) + ":" + q.anc + "//" + q.desc +
                 (state.range(1) == 1 ? "/pruned" : "/full"));
  state.counters["pairs"] = static_cast<double>(last.pairs.size());
  state.counters["elements_fetched"] =
      static_cast<double>(last.stats.elements_fetched);
  state.counters["segments_pruned"] =
      static_cast<double>(last.stats.segments_pruned);
  state.counters["elements_skipped"] =
      static_cast<double>(last.stats.elements_skipped);
}

// -- XPath twigs through the planner -----------------------------------------

/// arg0: twig index into kTwigs; arg1: 0 = no summary, 1 = summary.
void BM_XPathTwig(benchmark::State& state) {
  const Fixture& f = GetFixture();
  const char* expr = kTwigs[state.range(0)];
  LazyDatabase* db = state.range(1) == 1 ? f.with_summary.get()
                                         : f.without_summary.get();
  XPathResult last;
  for (auto _ : state) {
    auto r = EvaluateXPath(db, expr);
    LAZYXML_CHECK(r.ok());
    benchmark::DoNotOptimize(r.ValueOrDie().elements.size());
    last = std::move(r).ValueOrDie();
  }
  state.SetLabel(std::string(expr) +
                 (state.range(1) == 1 ? " /pruned" : " /full"));
  state.counters["results"] = static_cast<double>(last.elements.size());
  state.counters["joins"] = static_cast<double>(last.joins_executed);
  state.counters["intermediate_pairs"] =
      static_cast<double>(last.intermediate_pairs);
  state.counters["summary_empty"] = last.summary_empty ? 1.0 : 0.0;
  state.counters["elements_skipped"] =
      static_cast<double>(last.elements_skipped);
}

BENCHMARK(BM_SummaryBuild)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UpdateMaintenance)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Join)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_XPathTwig)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace pathsum
}  // namespace lazyxml

BENCHMARK_MAIN();
