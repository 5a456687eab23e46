// Fuzz target: the XPath subset end to end — ParseXPath over hostile
// text, canonical Format/reparse round-trip on accepted inputs, then the
// compile oracle: the Lazy-Join evaluation (summary-pruned AND unpruned)
// must return exactly the elements a naive tree walk returns on a small
// fixed document, and an answer cut to a few rows must keep the exact
// count and list a prefix of the full answer. Parse failures must be
// typed InvalidArgument, never a crash; evaluation must be total over
// every accepted expression.
//
// Input: `script|expr`, or just `expr`. The bytes before the first '|'
// (at most 16) churn a second store — a multi-segment document whose
// strong summary edges are cut by segment boundaries, plus a deep <a>
// chain — with removals of children whose parents survive and reinserts
// of complete and incomplete parents. The expression must then answer
// the same with the summary on (re-proving edges as it needs them), with
// it off and by the naive walk, and the scrubber (strong-edge states
// included) must pass before and after.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/lazy_database.h"
#include "fuzz_common.h"
#include "xml/parser.h"
#include "query/query_eval.h"
#include "query/xpath.h"

using namespace lazyxml;

namespace {

/// The small evaluation document, built once: one db consulting the path
/// summary and one with it off (same content), so every accepted
/// expression also proves pruned == unpruned. Updates (a nested splice
/// and a removal) make the summary's incremental maintenance part of
/// what the oracle checks.
struct Docs {
  std::unique_ptr<LazyDatabase> with_summary;
  std::unique_ptr<LazyDatabase> without_summary;
};

std::unique_ptr<LazyDatabase> BuildDoc(bool use_summary) {
  LazyDatabaseOptions opts;
  opts.query.use_path_summary = use_summary;
  auto db = std::make_unique<LazyDatabase>(opts);
  std::string shadow;
  const std::string base =
      "<site><people><person><profile><interest/><interest/></profile>"
      "<watch/></person><person><watch/></person></people>"
      "<items><item><name/></item><item/></items></site>";
  FUZZ_ASSERT(db->InsertSegment(base, 0).ok());
  shadow = base;
  // Splice a segment inside the first <profile>.
  const std::string splice = "<interest><keyword/></interest>";
  const uint64_t at = shadow.find("<profile>") + 9;
  FUZZ_ASSERT(db->InsertSegment(splice, at).ok());
  shadow.insert(at, splice);
  // Remove the (shifted) <name/> element.
  const uint64_t name_at = shadow.find("<name/>");
  FUZZ_ASSERT(db->RemoveSegment(name_at, 7).ok());
  db->Freeze();  // builds the path summary when enabled
  return db;
}

const Docs& GetDocs() {
  static Docs* docs = [] {
    auto* d = new Docs();
    d->with_summary = BuildDoc(true);
    d->without_summary = BuildDoc(false);
    FUZZ_ASSERT(d->with_summary->path_summary() != nullptr);
    FUZZ_ASSERT(d->without_summary->path_summary() == nullptr);
    return d;
  }();
  return *docs;
}

/// The churned store: the same ops applied with the summary on and off,
/// and the text both must hold.
struct Churned {
  std::unique_ptr<LazyDatabase> on;
  std::unique_ptr<LazyDatabase> off;
  std::string shadow;

  void Insert(const std::string& frag, uint64_t gp) {
    FUZZ_ASSERT(on->InsertSegment(frag, gp).ok());
    FUZZ_ASSERT(off->InsertSegment(frag, gp).ok());
    shadow.insert(gp, frag);
  }
  void Remove(uint64_t gp, uint64_t len) {
    FUZZ_ASSERT(on->RemoveSegment(gp, len).ok());
    FUZZ_ASSERT(off->RemoveSegment(gp, len).ok());
    shadow.erase(gp, len);
  }
  /// Just inside the `pick`-th start tag `open` ("<person>"), or just
  /// inside the root when there is none.
  uint64_t Inside(const std::string& open, uint64_t pick) const {
    std::vector<uint64_t> at;
    for (size_t p = shadow.find(open); p != std::string::npos;
         p = shadow.find(open, p + 1)) {
      at.push_back(p + open.size());
    }
    if (at.empty()) return shadow.find('>') + 1;
    return at[pick % at.size()];
  }
};

std::unique_ptr<Churned> BuildChurned(std::string_view script) {
  auto c = std::make_unique<Churned>();
  LazyDatabaseOptions on_opts;
  LazyDatabaseOptions off_opts;
  off_opts.query.use_path_summary = false;
  c->on = std::make_unique<LazyDatabase>(on_opts);
  c->off = std::make_unique<LazyDatabase>(off_opts);
  // Parents first, their children in later segments (as a chopped load
  // fills them): person -> profile starts weak, then unknown.
  c->Insert("<site><people><person><watch/></person><person><watch/>"
            "</person></people><chain></chain></site>",
            0);
  for (uint64_t k = 0; k < 2; ++k) {
    c->Insert("<profile><interest/></profile>", c->Inside("<person>", k));
  }
  // A deep <a> chain in two segments.
  c->Insert("<a><a><a><a><a><a></a></a></a></a></a></a>",
            c->Inside("<chain>", 0));
  c->Insert("<a><a><a><a><b/></a></a></a></a>", c->Inside("<a>", 5));
  for (size_t i = 0; i < script.size() && i < 16; ++i) {
    const uint8_t b = static_cast<uint8_t>(script[i]);
    const uint64_t pick = b / 4;
    switch (b % 4) {
      case 0: {  // remove a child; its parent survives
        TagDict dict;
        const auto records =
            ParseFragment(c->shadow, &dict).ValueOrDie().records;
        if (records.size() < 2) break;
        const ElementRecord& r = records[1 + pick % (records.size() - 1)];
        c->Remove(r.start, r.end - r.start);
        break;
      }
      case 1:  // a complete parent
        c->Insert(pick % 2 == 0
                      ? "<person><profile><interest/></profile><watch/>"
                        "</person>"
                      : "<a><a><b/></a></a>",
                  pick % 2 == 0 ? c->Inside("<people>", 0)
                                : c->Inside("<a>", pick / 2));
        break;
      case 2:  // an incomplete parent
        c->Insert(pick % 2 == 0 ? "<person><watch/></person>"
                                : "<a><a></a></a>",
                  pick % 2 == 0 ? c->Inside("<people>", 0)
                                : c->Inside("<a>", pick / 2));
        break;
      case 3:  // fill a parent
        c->Insert(pick % 2 == 0 ? "<profile><interest/></profile>" : "<b/>",
                  c->Inside(pick % 2 == 0 ? "<person>" : "<a>", pick / 2));
        break;
    }
  }
  c->on->Freeze();
  c->off->Freeze();
  FUZZ_ASSERT(c->on->path_summary() != nullptr);
  FUZZ_ASSERT(c->on->CheckInvariants().ok());
  return c;
}

/// Total steps including nested predicates — the evaluation work bound.
size_t CountSteps(const std::vector<XPathStep>& steps) {
  size_t n = steps.size();
  for (const XPathStep& s : steps) {
    for (const auto& pred : s.predicates) n += CountSteps(pred);
  }
  return n;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view expr(reinterpret_cast<const char*>(data), size);
  std::string_view script;
  if (const size_t bar = expr.find('|'); bar != std::string_view::npos) {
    script = expr.substr(0, bar);
    expr.remove_prefix(bar + 1);
  }
  if (expr.size() > kMaxXPathLength + 8) {
    expr = expr.substr(0, kMaxXPathLength + 8);
  }
  auto parsed = ParseXPath(expr);
  if (!parsed.ok()) {
    // Rejections must be typed so the server's XPATH verb can answer
    // "ERR InvalidArgument ..." instead of dying.
    FUZZ_ASSERT(parsed.status().IsInvalidArgument());
    return 0;
  }
  const std::vector<XPathStep>& steps = parsed.ValueOrDie();

  // Canonical round trip: Format must parse back to itself.
  const std::string canon = FormatXPath(steps);
  auto reparsed = ParseXPath(canon);
  FUZZ_ASSERT(reparsed.ok());
  FUZZ_ASSERT(FormatXPath(reparsed.ValueOrDie()) == canon);

  // Compile oracle on the small document; bound the join fan-out so
  // wildcard-heavy inputs stay fast.
  if (CountSteps(steps) > 24) return 0;
  const Docs& docs = GetDocs();
  auto pruned = EvaluateXPath(docs.with_summary.get(), steps);
  auto unpruned = EvaluateXPath(docs.without_summary.get(), steps);
  auto naive = EvaluateXPathNaive(docs.with_summary.get(), steps);
  FUZZ_ASSERT(pruned.ok());
  FUZZ_ASSERT(unpruned.ok());
  FUZZ_ASSERT(naive.ok());
  FUZZ_ASSERT(pruned.ValueOrDie().elements == naive.ValueOrDie());
  FUZZ_ASSERT(unpruned.ValueOrDie().elements == naive.ValueOrDie());
  if (pruned.ValueOrDie().summary_empty) {
    // A summary-proved empty answer must not have scanned anything.
    FUZZ_ASSERT(pruned.ValueOrDie().joins_executed == 0);
    FUZZ_ASSERT(naive.ValueOrDie().empty());
  }

  // The churned store: summary on (re-proving edges), off and naive.
  const std::unique_ptr<Churned> churned = BuildChurned(script);
  auto on = EvaluateXPath(churned->on.get(), steps);
  auto off = EvaluateXPath(churned->off.get(), steps);
  auto walk = EvaluateXPathNaive(churned->off.get(), steps);
  FUZZ_ASSERT(on.ok() && off.ok() && walk.ok());
  FUZZ_ASSERT(on.ValueOrDie().elements == walk.ValueOrDie());
  FUZZ_ASSERT(off.ValueOrDie().elements == walk.ValueOrDie());
  FUZZ_ASSERT(churned->on->CheckInvariants().ok());

  // Listing cap: a limited answer keeps the exact count and lists a
  // prefix of the full one, in lazy and in global coordinates, with the
  // summary on and off.
  const size_t max_rows = size % 4;
  const std::pair<LazyDatabase*, const XPathResult*> runs[] = {
      {docs.with_summary.get(), &pruned.ValueOrDie()},
      {docs.without_summary.get(), &unpruned.ValueOrDie()}};
  for (const auto& [db, full] : runs) {
    FUZZ_ASSERT(full->count == full->refs.size());
    for (bool global : {true, false}) {
      auto cut = EvaluateSteps(db, steps, {}, global, max_rows);
      FUZZ_ASSERT(cut.ok());
      const XPathResult& c = cut.ValueOrDie();
      FUZZ_ASSERT(c.count == full->count);
      FUZZ_ASSERT(c.refs.size() == std::min(max_rows, full->refs.size()));
      FUZZ_ASSERT(std::equal(c.refs.begin(), c.refs.end(),
                             full->refs.begin()));
      FUZZ_ASSERT(c.elements.size() ==
                  (global ? c.refs.size() : size_t{0}));
      FUZZ_ASSERT(std::equal(c.elements.begin(), c.elements.end(),
                             full->elements.begin()));
    }
  }
  return 0;
}
