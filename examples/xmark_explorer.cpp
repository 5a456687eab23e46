// XMark explorer: generates an XMark-style auction document, chops it
// into segments (paper §5.1), loads it into the lazy store and runs the
// Fig. 14 queries, comparing Lazy-Join against Stack-Tree-Desc over
// materialized global labels.
//
//   ./build/examples/xmark_explorer [persons] [segments] [nested|balanced]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/strings.h"
#include "common/timer.h"
#include "core/lazy_database.h"
#include "join/stack_tree.h"
#include "query/xpath.h"
#include "xmlgen/chopper.h"
#include "xmlgen/xmark_generator.h"

using namespace lazyxml;

int main(int argc, char** argv) {
  const uint32_t persons = argc > 1 ? std::atoi(argv[1]) : 2000;
  const uint32_t segments = argc > 2 ? std::atoi(argv[2]) : 100;
  const ErTreeShape shape =
      (argc > 3 && std::strcmp(argv[3], "nested") == 0)
          ? ErTreeShape::kNested
          : ErTreeShape::kBalanced;

  XMarkConfig xcfg;
  xcfg.num_persons = persons;
  xcfg.num_items = persons / 5;
  xcfg.num_open_auctions = persons / 4;
  xcfg.num_closed_auctions = persons / 8;
  xcfg.profile_probability = 1.0;
  xcfg.watches_probability = 1.0;
  xcfg.min_interests = 1;
  xcfg.min_watches = 1;
  XMarkGenerator gen(xcfg);
  Stopwatch sw;
  auto doc_r = gen.Generate();
  if (!doc_r.ok()) {
    std::fprintf(stderr, "%s\n", doc_r.status().ToString().c_str());
    return 1;
  }
  const std::string& doc = doc_r.ValueOrDie();
  std::printf("generated XMark document: %s in %.1f ms\n",
              HumanBytes(doc.size()).c_str(), sw.ElapsedMillis());

  ChopConfig chop;
  chop.num_segments = segments;
  chop.shape = shape;
  chop.allow_fewer = true;  // XMark documents are shallow; nested chops cap
  auto plan_r = BuildChopPlan(doc, chop);
  if (!plan_r.ok()) {
    std::fprintf(stderr, "chop failed: %s\n",
                 plan_r.status().ToString().c_str());
    return 1;
  }

  LazyDatabase db;
  sw.Start();
  auto loaded = ApplyPlan(&db, plan_r.ValueOrDie().insertions);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }
  auto stats = db.Stats();
  std::printf("loaded as %zu %s segments in %.1f ms; %zu elements, "
              "update log %s\n",
              stats.num_segments, ErTreeShapeName(shape), sw.ElapsedMillis(),
              stats.num_elements,
              HumanBytes(stats.update_log_bytes()).c_str());

  struct Query {
    const char* name;
    const char* anc;
    const char* desc;
  } queries[] = {{"Q1", "person", "phone"},   {"Q2", "profile", "interest"},
                 {"Q3", "watches", "watch"},  {"Q4", "person", "watch"},
                 {"Q5", "person", "interest"}};

  std::printf("%-4s %-20s %12s %12s %12s %8s\n", "id", "xpath", "results",
              "lazy (ms)", "STD (ms)", "agree");
  for (const auto& q : queries) {
    Stopwatch lazy_sw;
    auto lazy = db.JoinGlobal(q.anc, q.desc);
    const double lazy_ms = lazy_sw.ElapsedMillis();
    if (!lazy.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", q.name,
                   lazy.status().ToString().c_str());
      return 1;
    }
    // STD baseline: element lists materialized outside the timer (a
    // traditional store would already have them), join timed.
    auto a = db.MaterializeGlobalElements(q.anc).ValueOrDie();
    auto d = db.MaterializeGlobalElements(q.desc).ValueOrDie();
    Stopwatch std_sw;
    auto std_pairs = StackTreeDesc(a, d);
    const double std_ms = std_sw.ElapsedMillis();
    std::sort(std_pairs.begin(), std_pairs.end());
    const bool agree = std_pairs == lazy.ValueOrDie();
    std::printf("%-4s %-20s %12zu %12.3f %12.3f %8s\n", q.name,
                (std::string(q.anc) + "//" + q.desc).c_str(),
                lazy.ValueOrDie().size(), lazy_ms, std_ms,
                agree ? "yes" : "NO");
  }

  // Multi-step path expressions: Lazy-Join semi-joins vs holistic PathStack.
  std::printf("\npath expressions (pipeline vs holistic):\n");
  for (const char* expr : {"person//profile//interest",
                           "people/person/watches/watch",
                           "site//person/phone"}) {
    Stopwatch pipe_sw;
    auto pipe = EvaluateQuery(&db, QuerySyntax::kPath, expr);
    const double pipe_ms = pipe_sw.ElapsedMillis();
    Stopwatch hol_sw;
    auto hol = EvaluatePathHolistic(
        &db, ParseQuery(QuerySyntax::kPath, expr).ValueOrDie());
    const double hol_ms = hol_sw.ElapsedMillis();
    if (!pipe.ok() || !hol.ok()) {
      std::fprintf(stderr, "path %s failed\n", expr);
      return 1;
    }
    std::printf("  %-32s %8zu matches  pipeline %8.3f ms  holistic %8.3f ms"
                "  %s\n",
                expr, pipe.ValueOrDie().refs.size(), pipe_ms, hol_ms,
                pipe.ValueOrDie().refs.size() ==
                        hol.ValueOrDie().size()
                    ? "agree"
                    : "DISAGREE");
  }
  return 0;
}
