// Ablations of the design choices DESIGN.md calls out:
//  1. Lazy-Join stack optimizations (Fig. 9) on vs off, across
//     cross-segment-join shares;
//  2. in-segment join algorithm: Stack-Tree-Desc vs Stack-Tree-Anc vs the
//     naive quadratic join over materialized lists (paper §4.2: "any
//     traditional structural join algorithm" slots in);
//  3. parse cost vs index cost of a segment insert (what portion of the
//     lazy insert is the unavoidable XML parse).

#include <map>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "query/xpath.h"
#include "xml/parser.h"

namespace lazyxml {
namespace {

constexpr uint64_t kJoins = 20000;
constexpr uint64_t kElems = 60000;

const JoinWorkloadPlan& PlanFor(int cross_pct, ErTreeShape shape) {
  static std::map<std::pair<int, int>, JoinWorkloadPlan> cache;
  auto key = std::make_pair(cross_pct, static_cast<int>(shape));
  auto it = cache.find(key);
  if (it == cache.end()) {
    JoinWorkloadConfig cfg;
    cfg.num_segments = 100;
    cfg.shape = shape;
    cfg.cross_fraction = cross_pct / 100.0;
    cfg.total_joins = kJoins;
    cfg.num_a_elements = kElems;
    cfg.num_d_elements = kElems;
    auto plan = BuildJoinWorkload(cfg);
    LAZYXML_CHECK(plan.ok());
    it = cache.emplace(key, std::move(plan).ValueOrDie()).first;
  }
  return it->second;
}

// --- 1. stack optimizations on/off ---------------------------------------

void BM_LazyJoinStackOpt(benchmark::State& state) {
  const int cross = static_cast<int>(state.range(0));
  const bool optimized = state.range(1) != 0;
  const auto& plan = PlanFor(cross, ErTreeShape::kBalanced);
  auto db = bench::BuildDatabase(plan.insertions, LogMode::kLazyDynamic);
  LazyJoinOptions opts;
  opts.optimize_stack = optimized;
  size_t pairs = 0;
  for (auto _ : state) {
    pairs = bench::RunLazyQuery(db.get(), "A", "D", opts);
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["cross_pct"] = cross;
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetLabel(optimized ? "optimized" : "unoptimized");
}

BENCHMARK(BM_LazyJoinStackOpt)
    ->ArgsProduct({{0, 20, 40, 60, 80, 100}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// --- 2. in-segment / baseline join algorithm choice ----------------------

void BM_JoinAlgorithm(benchmark::State& state) {
  const auto& plan = PlanFor(20, ErTreeShape::kBalanced);
  auto idx = bench::BuildTraditionalIndex(bench::PlanToText(plan.insertions));
  auto a = idx->GetElements("A").ValueOrDie();
  auto d = idx->GetElements("D").ValueOrDie();
  size_t pairs = 0;
  for (auto _ : state) {
    switch (state.range(0)) {
      case 0:
        pairs = StackTreeDesc(a, d).size();
        break;
      case 1:
        pairs = StackTreeAnc(a, d).size();
        break;
      case 2: {
        // The naive oracle is quadratic; subsample to keep it feasible.
        std::vector<GlobalElement> a_small(a.begin(),
                                           a.begin() + a.size() / 20);
        std::vector<GlobalElement> d_small(d.begin(),
                                           d.begin() + d.size() / 20);
        pairs = NaiveStructuralJoin(a_small, d_small).size();
        break;
      }
    }
    benchmark::DoNotOptimize(pairs);
  }
  static const char* kNames[] = {"stack-tree-desc", "stack-tree-anc",
                                 "naive(1/20th)"};
  state.SetLabel(kNames[state.range(0)]);
  state.counters["pairs"] = static_cast<double>(pairs);
}

BENCHMARK(BM_JoinAlgorithm)
    ->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);

// --- 3. parse vs index share of a lazy insert ----------------------------

void BM_SegmentParseOnly(benchmark::State& state) {
  std::string seg = "<seg>";
  for (int i = 0; i < 500; ++i) seg += "<a>text</a>";
  seg += "</seg>";
  for (auto _ : state) {
    TagDict dict;
    auto f = ParseFragment(seg, &dict);
    benchmark::DoNotOptimize(f.ok());
  }
  state.SetBytesProcessed(state.iterations() * seg.size());
}

void BM_SegmentFullInsert(benchmark::State& state) {
  std::string seg = "<seg>";
  for (int i = 0; i < 500; ++i) seg += "<a>text</a>";
  seg += "</seg>";
  LazyDatabase db;
  LAZYXML_CHECK(db.InsertSegment("<root><h></h></root>", 0).ok());
  for (auto _ : state) {
    auto r = db.InsertSegment(seg, 9);
    benchmark::DoNotOptimize(r.ok());
    LAZYXML_CHECK(r.ok());
    LAZYXML_CHECK(db.RemoveSegment(9, seg.size()).ok());
  }
  state.SetBytesProcessed(state.iterations() * seg.size());
}

BENCHMARK(BM_SegmentParseOnly)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SegmentFullInsert)->Unit(benchmark::kMicrosecond);

// --- 4. segment compaction (paper §5.3 collapse / §1 maintenance) --------
// Query cost at high segment counts, before vs after CompactAll().

void BM_QueryAfterCompaction(benchmark::State& state) {
  const bool compacted = state.range(1) != 0;
  JoinWorkloadConfig cfg;
  cfg.num_segments = static_cast<uint32_t>(state.range(0));
  cfg.shape = ErTreeShape::kBalanced;
  cfg.cross_fraction = 0.2;
  cfg.total_joins = kJoins;
  cfg.num_a_elements = kElems;
  cfg.num_d_elements = kElems;
  auto plan = BuildJoinWorkload(cfg);
  LAZYXML_CHECK(plan.ok());
  auto db = bench::BuildDatabase(plan.ValueOrDie().insertions,
                                 LogMode::kLazyDynamic);
  if (compacted) {
    LAZYXML_CHECK(db->CompactAll().ok());
  }
  size_t pairs = 0;
  for (auto _ : state) {
    pairs = bench::RunLazyQuery(db.get(), "A", "D");
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["segments"] = static_cast<double>(
      db->Stats().num_segments);
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetLabel(compacted ? "compacted" : "as-loaded");
}

BENCHMARK(BM_QueryAfterCompaction)
    ->ArgsProduct({{1000, 3000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// --- 5. path evaluation strategy: semi-join evaluator vs holistic PathStack

void BM_PathStrategy(benchmark::State& state) {
  const auto& plan = PlanFor(20, ErTreeShape::kBalanced);
  auto db = bench::BuildDatabase(plan.insertions, LogMode::kLazyDynamic);
  // seg//A//D: a three-step path over the workload's tags.
  const char* expr = "seg//A//D";
  const std::vector<XPathStep> steps =
      ParseQuery(QuerySyntax::kPath, expr).ValueOrDie();
  const bool holistic = state.range(0) != 0;
  size_t n = 0;
  for (auto _ : state) {
    if (holistic) {
      auto r = EvaluatePathHolistic(db.get(), steps);
      LAZYXML_CHECK(r.ok());
      n = r.ValueOrDie().size();
    } else {
      auto r = EvaluateQuery(db.get(), QuerySyntax::kPath, expr);
      LAZYXML_CHECK(r.ok());
      n = r.ValueOrDie().refs.size();
    }
    benchmark::DoNotOptimize(n);
  }
  state.counters["matches"] = static_cast<double>(n);
  state.SetLabel(holistic ? "holistic(PathStack)" : "lazy-join pipeline");
}

BENCHMARK(BM_PathStrategy)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lazyxml

BENCHMARK_MAIN();
