// A seeded store carrying both query vocabularies of the perfbench
// workloads (perfbench/src/workload.cc): an XMark corpus in the
// `xmark-read` shape, scaled down and chopped into balanced segments, then
// registration forms and DBLP-style article batches (the `feed-durable`
// documents), plus spliced inserts and element removals so the answers
// cross segment boundaries, splices and gaps.

#ifndef LAZYXML_TESTS_QUERY_TEMPLATE_STORE_H_
#define LAZYXML_TESTS_QUERY_TEMPLATE_STORE_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "core/lazy_database.h"
#include "xmlgen/chopper.h"
#include "xmlgen/join_workload.h"
#include "xmlgen/xmark_generator.h"

namespace lazyxml {
namespace testutil {

struct QueryTemplate {
  const char* verb;  ///< "PATH", "TWIG" or "XPATH"
  const char* expr;
};

/// perfbench's XMarkQueries() followed by FeedQueries(), in order.
inline std::vector<QueryTemplate> PerfbenchTemplates() {
  return {
      {"PATH", "person//phone"},
      {"PATH", "profile//interest"},
      {"PATH", "watches//watch"},
      {"PATH", "person//watch"},
      {"PATH", "person//interest"},
      {"PATH", "person/address/city"},
      {"PATH", "people/person/name"},
      {"PATH", "open_auction/bidder/personref"},
      {"PATH", "closed_auction/price"},
      {"PATH", "person/profile/age"},
      {"TWIG", "person[profile]//interest"},
      {"TWIG", "person[watches]/phone"},
      {"TWIG", "open_auction[bidder]/seller"},
      {"TWIG", "item[incategory]/location"},
      {"TWIG", "person[address[zipcode]]/emailaddress"},
      {"XPATH", "//closed_auction[buyer]/price"},
      {"XPATH", "//open_auction[bidder/personref]/seller"},
      {"XPATH", "//regions/*/item[incategory]/location"},
      {"XPATH", "//category[description/text]/name"},
      {"XPATH", "//open_auction/*/personref"},
      {"XPATH", "//closed_auction[buyer]/itemref"},
      {"XPATH", "//phone//person"},
      {"XPATH", "//interest//watch"},
      {"XPATH", "//watch/name"},
      {"XPATH", "//address//profile"},
      {"XPATH", "//item//person"},
      {"PATH", "registration/email"},
      {"PATH", "registrations/registration/id"},
      {"PATH", "batch/article/title"},
      {"PATH", "registration//topic"},
      {"PATH", "person/address/zipcode"},
      {"TWIG", "registration[preferences/topic]/email"},
      {"TWIG", "article[year]/author"},
      {"TWIG", "person[watches]/name"},
      {"XPATH", "//registration[phone]/name"},
      {"XPATH", "//batch/article[author]/year"},
      {"XPATH", "//registrations/*/occupation"},
      {"XPATH", "//person[profile/business]/emailaddress"},
      {"XPATH", "//registration//person"},
      {"XPATH", "//article//registration"},
      {"XPATH", "//topic//phone"},
  };
}

inline std::string TemplateForm(Random* rng, uint64_t user) {
  std::string form = StringPrintf(
      "<registration><id>u%llu</id><name>User</name>"
      "<occupation>o%llu</occupation><email>e</email>",
      static_cast<unsigned long long>(user),
      static_cast<unsigned long long>(rng->Uniform(5)));
  const uint64_t phones = rng->Uniform(3);
  for (uint64_t i = 0; i < phones; ++i) form += "<phone>p</phone>";
  form += "<preferences>";
  const uint64_t topics = rng->Uniform(4);
  for (uint64_t i = 0; i < topics; ++i) form += "<topic>t</topic>";
  return form + "</preferences></registration>";
}

inline std::string TemplateBatch(Random* rng) {
  std::string doc = "<batch>";
  const uint64_t articles = 1 + rng->Uniform(4);
  for (uint64_t i = 0; i < articles; ++i) {
    doc += "<article>";
    const uint64_t authors = rng->Uniform(3);
    for (uint64_t a = 0; a < authors; ++a) doc += "<author>a</author>";
    doc += "<title>t</title>";
    if (rng->Bernoulli(0.7)) doc += "<year>y</year>";
    doc += "</article>";
  }
  return doc + "</batch>";
}

/// Builds the store; returns false (after recording a failure) on error.
inline bool BuildTemplateStore(LazyDatabase* db) {
  XMarkConfig cfg;
  cfg.seed = 3;
  cfg.num_persons = 400;
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
  if (!doc.ok()) return false;
  const std::string& text = doc.ValueOrDie();
  ChopConfig chop;
  chop.num_segments = 60;
  chop.shape = ErTreeShape::kBalanced;
  auto plan = BuildChopPlan(text, chop);
  if (!plan.ok() || !ApplyPlan(db, plan.ValueOrDie().insertions).ok()) {
    return false;
  }
  // Remove the 3rd and the 40th person (whole elements, wherever the
  // chop put their segment boundaries); the later one first so the
  // earlier offsets stay valid.
  std::vector<size_t> person_starts;
  for (size_t pos = text.find("<person "); pos != std::string::npos;
       pos = text.find("<person ", pos + 1)) {
    person_starts.push_back(pos);
  }
  for (size_t k : {size_t{39}, size_t{2}}) {
    const size_t start = person_starts.at(k);
    const size_t end = text.find("</person>", start) + 9;
    if (!db->RemoveSegment(start, end - start).ok()) return false;
  }

  Random rng(11);
  const uint64_t regs_gp = db->update_log().super_document_length();
  std::string regs = "<registrations>";
  for (uint64_t u = 0; u < 40; ++u) regs += TemplateForm(&rng, u);
  regs += "</registrations>";
  if (!db->InsertSegment(regs, regs_gp).ok()) return false;
  uint64_t first_batch_gp = 0;
  uint64_t first_batch_len = 0;
  for (int day = 0; day < 20; ++day) {
    const std::string batch = TemplateBatch(&rng);
    const uint64_t gp = db->update_log().super_document_length();
    if (day == 0) {
      first_batch_gp = gp;
      first_batch_len = batch.size();
    }
    if (!db->InsertSegment(batch, gp).ok()) return false;
  }
  if (!db->RemoveSegment(first_batch_gp, first_batch_len).ok()) return false;
  // Forms spliced right after <registrations>'s open tag.
  for (uint64_t u = 100; u < 110; ++u) {
    if (!db->InsertSegment(TemplateForm(&rng, u), regs_gp + 15).ok()) {
      return false;
    }
  }
  db->Freeze();
  return true;
}

}  // namespace testutil
}  // namespace lazyxml

#endif  // LAZYXML_TESTS_QUERY_TEMPLATE_STORE_H_
