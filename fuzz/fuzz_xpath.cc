// Fuzz target: the XPath subset end to end — ParseXPath over hostile
// text, canonical Format/reparse round-trip on accepted inputs, then the
// compile oracle: the Lazy-Join evaluation (summary-pruned AND unpruned)
// must return exactly the elements a naive tree walk returns on a small
// fixed document, and an answer cut to a few rows must keep the exact
// count and list a prefix of the full answer. Parse failures must be
// typed InvalidArgument, never a crash; evaluation must be total over
// every accepted expression.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "core/lazy_database.h"
#include "fuzz_common.h"
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
