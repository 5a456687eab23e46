#include "workload.h"

#include <algorithm>
#include <deque>
#include <string_view>

#include "common/strings.h"
#include "xmlgen/chopper.h"
#include "xmlgen/xmark_generator.h"

namespace perfbench {

using lazyxml::Random;
using lazyxml::StringPrintf;

namespace {

// -- Sizes --------------------------------------------------------------------
// Op counts per second of `--seconds`, fixed per (workload, seconds) and
// never adjusted at run time, so every run ends in the same store state.
// On a 4-vCPU host the windows last about 2.5x (feed-durable, xmark-read)
// and 4.5x (bulk-ingest) `--seconds`; each keeps at least 1000 query and
// 1000 update samples at --seconds 10.

constexpr uint32_t kBatchOps = 64;

constexpr uint32_t kXMarkPersons = 8000;     // ~7 MB of text
constexpr uint32_t kXMarkSegments = 1000;
constexpr uint64_t kReadQueriesPerSecond = 300;  // xmark-read, all readers
constexpr uint64_t kQueriesPerUpdate = 3;  // xmark-read writer pacing
constexpr uint32_t kNoteRegionDepth = 8;

constexpr uint32_t kFeedPersons = 1000;
constexpr uint32_t kFeedSegments = 100;
constexpr uint32_t kFeedLiveForms = 32;
constexpr uint64_t kEditorOpsPerSecond = 1500;
constexpr uint64_t kAppenderLoadsPerSecond = 75;

constexpr uint32_t kIngestLiveBatches = 2;
constexpr uint64_t kIngestCommitsPerSecond = 100;  // insert + remove commits

constexpr uint32_t kPersonPool = 1024;

// -- Request builders ---------------------------------------------------------

WriteStep Single(std::string payload, uint64_t xml_bytes) {
  WriteStep s;
  s.kind = WriteStep::Kind::kSingle;
  s.payload = std::move(payload);
  s.xml_bytes = xml_bytes;
  return s;
}

WriteStep Insert(uint64_t gp, const std::string& text) {
  return Single("INSERT " + std::to_string(gp) + "\n" + text, text.size());
}

WriteStep Remove(uint64_t gp, uint64_t length) {
  return Single("REMOVE " + std::to_string(gp) + " " + std::to_string(length),
                0);
}

/// Wraps `ops` (singleton steps) into BATCH commits of at most kBatchOps.
void AppendBatches(const std::vector<WriteStep>& ops,
                   std::vector<WriteStep>* out) {
  for (size_t i = 0; i < ops.size(); i += kBatchOps) {
    const size_t n = std::min<size_t>(kBatchOps, ops.size() - i);
    WriteStep begin;
    begin.kind = WriteStep::Kind::kBegin;
    begin.payload = "BATCH BEGIN";
    begin.ops = 0;
    out->push_back(begin);
    for (size_t j = 0; j < n; ++j) {
      WriteStep q = ops[i + j];
      q.kind = WriteStep::Kind::kQueued;
      q.ops = 0;
      out->push_back(std::move(q));
    }
    WriteStep commit;
    commit.kind = WriteStep::Kind::kCommit;
    commit.payload = "BATCH COMMIT";
    commit.ops = static_cast<uint32_t>(n);
    out->push_back(commit);
  }
}

// -- Documents ----------------------------------------------------------------

lazyxml::XMarkConfig XMarkShape(uint64_t seed, uint32_t persons) {
  // The Fig. 15 shape: every person has a profile and watches, so the
  // Fig. 14 joins cross segment boundaries once the document is chopped.
  lazyxml::XMarkConfig cfg;
  cfg.seed = seed;
  cfg.num_persons = persons;
  cfg.num_items = persons / 5;
  cfg.num_open_auctions = persons / 4;
  cfg.num_closed_auctions = persons / 8;
  cfg.profile_probability = 1.0;
  cfg.watches_probability = 1.0;
  cfg.min_phones = 1;
  cfg.max_phones = 4;
  cfg.min_interests = 1;
  cfg.max_interests = 6;
  cfg.min_watches = 1;
  cfg.max_watches = 8;
  return cfg;
}

/// The corpus and its set-up: the document chopped into balanced
/// segments, inserted in plan order.
lazyxml::Result<std::string> ChoppedCorpus(uint64_t seed, uint32_t persons,
                                           uint32_t segments,
                                           std::vector<WriteStep>* ops) {
  LAZYXML_ASSIGN_OR_RETURN(
      std::string doc,
      lazyxml::XMarkGenerator(XMarkShape(seed, persons)).Generate());
  lazyxml::ChopConfig chop;
  chop.num_segments = segments;
  chop.shape = lazyxml::ErTreeShape::kBalanced;
  LAZYXML_ASSIGN_OR_RETURN(lazyxml::ChopPlan plan,
                           lazyxml::BuildChopPlan(doc, chop));
  for (const lazyxml::SegmentInsertion& ins : plan.insertions) {
    ops->push_back(Insert(ins.gp, ins.text));
  }
  return doc;
}

/// Distinct XMark person fragments in the corpus's shape.
lazyxml::Result<std::vector<std::string>> PersonPool(uint64_t seed) {
  lazyxml::XMarkConfig cfg = XMarkShape(seed, kPersonPool);
  cfg.num_items = 0;
  cfg.num_closed_auctions = 0;
  LAZYXML_ASSIGN_OR_RETURN(std::string doc,
                           lazyxml::XMarkGenerator(cfg).Generate());
  std::vector<std::string> out;
  size_t pos = 0;
  while ((pos = doc.find("<person ", pos)) != std::string::npos) {
    const size_t end = doc.find("</person>", pos);
    if (end == std::string::npos) break;
    out.push_back(doc.substr(pos, end + 9 - pos));
    pos = end;
  }
  if (out.empty()) return lazyxml::Status::Internal("no person fragments");
  return out;
}

/// Notes filed under <people>: elements no benchmark query selects, so
/// writing them leaves every query's answer unchanged.
std::vector<std::string> NotePool(uint64_t seed) {
  Random rng(seed);
  std::vector<std::string> out;
  for (uint64_t i = 0; i < 256; ++i) {
    std::string note = StringPrintf("<note id=\"n%llu\">",
                                    static_cast<unsigned long long>(i));
    const uint64_t memos = 1 + rng.Uniform(3);
    for (uint64_t m = 0; m < memos; ++m) {
      note += StringPrintf("<memo>m%llu</memo>",
                           static_cast<unsigned long long>(rng.Uniform(1000)));
    }
    out.push_back(note + "</note>");
  }
  return out;
}

/// A registration form (the paper's §1 registration system; the shape of
/// examples/registration_system.cpp).
std::string MakeForm(Random* rng, uint64_t user) {
  static const char* kOccupations[] = {"engineer", "teacher", "researcher",
                                       "librarian", "analyst"};
  std::string form = "<registration>";
  form += StringPrintf("<id>u%06llu</id>", static_cast<unsigned long long>(user));
  form += StringPrintf("<name>User %llu</name>",
                       static_cast<unsigned long long>(user));
  form += StringPrintf("<occupation>%s</occupation>",
                       kOccupations[rng->Uniform(5)]);
  form += StringPrintf("<email>u%llu@example.org</email>",
                       static_cast<unsigned long long>(user));
  const uint64_t phones = rng->Uniform(3);  // some forms have none
  for (uint64_t i = 0; i < phones; ++i) {
    form += StringPrintf("<phone>+65 %llu</phone>",
                         static_cast<unsigned long long>(
                             10000000 + rng->Uniform(89999999)));
  }
  form += "<preferences>";
  const uint64_t prefs = rng->Uniform(4);
  for (uint64_t i = 0; i < prefs; ++i) {
    form += StringPrintf("<topic>t%llu</topic>",
                         static_cast<unsigned long long>(rng->Uniform(12)));
  }
  form += "</preferences></registration>";
  return form;
}

/// A DBLP-style daily batch (the paper's §1 feed), appended with LOAD.
std::string MakeArticleBatch(Random* rng, uint64_t day) {
  std::string doc = StringPrintf("<batch day=\"%llu\">",
                                 static_cast<unsigned long long>(day));
  const uint64_t articles = 1 + rng->Uniform(4);
  for (uint64_t i = 0; i < articles; ++i) {
    doc += "<article>";
    const uint64_t authors = 1 + rng->Uniform(3);
    for (uint64_t a = 0; a < authors; ++a) {
      doc += StringPrintf("<author>a%llu</author>",
                          static_cast<unsigned long long>(rng->Uniform(500)));
    }
    doc += StringPrintf("<title>t%llu.%llu</title><year>%llu</year>",
                        static_cast<unsigned long long>(day),
                        static_cast<unsigned long long>(i),
                        static_cast<unsigned long long>(1990 + rng->Uniform(35)));
    doc += "</article>";
  }
  doc += "</batch>";
  return doc;
}

// -- Query templates ----------------------------------------------------------

using F = Query::Family;

std::vector<Query> XMarkQueries() {
  return {
      // The Fig. 14 joins Q1-Q5 and other paths.
      {F::kPath, "PATH", "person//phone"},
      {F::kPath, "PATH", "profile//interest"},
      {F::kPath, "PATH", "watches//watch"},
      {F::kPath, "PATH", "person//watch"},
      {F::kPath, "PATH", "person//interest"},
      {F::kPath, "PATH", "person/address/city"},
      {F::kPath, "PATH", "people/person/name"},
      {F::kPath, "PATH", "open_auction/bidder/personref"},
      {F::kPath, "PATH", "closed_auction/price"},
      {F::kPath, "PATH", "person/profile/age"},
      {F::kTwig, "TWIG", "person[profile]//interest"},
      {F::kTwig, "TWIG", "person[watches]/phone"},
      {F::kTwig, "TWIG", "open_auction[bidder]/seller"},
      {F::kTwig, "TWIG", "item[incategory]/location"},
      {F::kTwig, "TWIG", "person[address[zipcode]]/emailaddress"},
      {F::kXPath, "XPATH", "//closed_auction[buyer]/price"},
      {F::kXPath, "XPATH", "//open_auction[bidder/personref]/seller"},
      {F::kXPath, "XPATH", "//regions/*/item[incategory]/location"},
      {F::kXPath, "XPATH", "//category[description/text]/name"},
      {F::kXPath, "XPATH", "//open_auction/*/personref"},
      {F::kXPath, "XPATH", "//closed_auction[buyer]/itemref"},
      // Patterns the path summary proves empty.
      {F::kEmpty, "XPATH", "//phone//person"},
      {F::kEmpty, "XPATH", "//interest//watch"},
      {F::kEmpty, "XPATH", "//watch/name"},
      {F::kEmpty, "XPATH", "//address//profile"},
      {F::kEmpty, "XPATH", "//item//person"},
  };
}

std::vector<Query> FeedQueries() {
  return {
      {F::kPath, "PATH", "registration/email"},
      {F::kPath, "PATH", "registrations/registration/id"},
      {F::kPath, "PATH", "batch/article/title"},
      {F::kPath, "PATH", "registration//topic"},
      {F::kPath, "PATH", "person/address/zipcode"},
      {F::kTwig, "TWIG", "registration[preferences/topic]/email"},
      {F::kTwig, "TWIG", "article[year]/author"},
      {F::kTwig, "TWIG", "person[watches]/name"},
      {F::kXPath, "XPATH", "//registration[phone]/name"},
      {F::kXPath, "XPATH", "//batch/article[author]/year"},
      {F::kXPath, "XPATH", "//registrations/*/occupation"},
      {F::kXPath, "XPATH", "//person[profile/business]/emailaddress"},
      {F::kEmpty, "XPATH", "//registration//person"},
      {F::kEmpty, "XPATH", "//article//registration"},
      {F::kEmpty, "XPATH", "//topic//phone"},
  };
}

// -- Writers ------------------------------------------------------------------

/// A first-in first-out region of fragments at a fixed anchor position:
/// new fragments go to its end, the oldest leave from its start, so the
/// writer knows every position without asking the server.
class FragmentRegion {
 public:
  FragmentRegion(uint64_t anchor, const std::vector<std::string>* pool,
                 uint64_t seed)
      : anchor_(anchor), pool_(pool), rng_(seed) {}

  WriteStep InsertNext() {
    const std::string& p = (*pool_)[rng_.Uniform(pool_->size())];
    WriteStep s = Insert(anchor_ + length_, p);
    live_.push_back(p.size());
    text_.append(p);
    length_ += p.size();
    return s;
  }
  WriteStep RemoveOldest() {
    const uint64_t len = live_.front();
    live_.pop_front();
    text_.erase(0, len);
    length_ -= len;
    return Remove(anchor_, len);
  }
  size_t live() const { return live_.size(); }
  const std::string& text() const { return text_; }

 private:
  uint64_t anchor_;
  const std::vector<std::string>* pool_;
  Random rng_;
  std::deque<uint64_t> live_;
  std::string text_;
  uint64_t length_ = 0;
};

/// Position just inside the corpus's <people> element.
lazyxml::Result<uint64_t> PeopleAnchor(const std::string& corpus) {
  const size_t pos = corpus.find("<people>");
  if (pos == std::string::npos) {
    return lazyxml::Status::Internal("corpus has no <people>");
  }
  return static_cast<uint64_t>(pos + 8);
}

std::string Spliced(const std::string& doc, uint64_t at,
                    const std::string& text) {
  std::string out = doc;
  out.insert(static_cast<size_t>(at), text);
  return out;
}

uint64_t Scaled(uint64_t per_second, int seconds) {
  return std::max<uint64_t>(1, per_second * static_cast<uint64_t>(seconds));
}

uint64_t SetupBytes(const std::vector<WriteStep>& steps) {
  uint64_t n = 0;
  for (const WriteStep& s : steps) n += s.xml_bytes;
  return n;
}

lazyxml::Result<Workload> XMarkRead(uint64_t seed, int seconds) {
  Workload w;
  w.name = "xmark-read";
  std::vector<WriteStep> ops;
  LAZYXML_ASSIGN_OR_RETURN(
      std::string corpus,
      ChoppedCorpus(seed, kXMarkPersons, kXMarkSegments, &ops));
  AppendBatches(ops, &w.setup);
  w.final_text = corpus;
  w.queries = XMarkQueries();
  w.static_answers = true;
  w.readers = 3;
  w.queries_per_reader =
      Scaled(kReadQueriesPerSecond, seconds) / static_cast<uint64_t>(w.readers);

  // A paced writer files and withdraws notes under <people> while the
  // readers run, one nested singleton INSERT or REMOVE per
  // kQueriesPerUpdate queries. No query selects a note, so every answer
  // stays checkable; the writer drains its region, restoring the corpus.
  const std::vector<std::string> notes = NotePool(seed ^ 0x7075ULL);
  LAZYXML_ASSIGN_OR_RETURN(uint64_t anchor, PeopleAnchor(corpus));
  FragmentRegion region(anchor, &notes, seed * 31 + 1);
  Writer writer;
  writer.name = "note-writer";
  const uint64_t updates = w.queries_per_reader *
                           static_cast<uint64_t>(w.readers) / kQueriesPerUpdate;
  while (writer.steps.size() + region.live() < updates) {
    writer.steps.push_back(region.InsertNext());
    if (region.live() > kNoteRegionDepth) {
      writer.steps.push_back(region.RemoveOldest());
    }
  }
  while (region.live() > 0) writer.steps.push_back(region.RemoveOldest());
  writer.pace_by = Writer::PaceBy::kReaders;
  writer.pace_ratio = static_cast<double>(kQueriesPerUpdate);
  w.writers.push_back(std::move(writer));
  w.setup_xml_bytes = SetupBytes(w.setup);
  return w;
}

lazyxml::Result<Workload> BulkIngest(uint64_t seed, int seconds) {
  Workload w;
  w.name = "bulk-ingest";
  std::vector<WriteStep> ops;
  LAZYXML_ASSIGN_OR_RETURN(
      std::string corpus,
      ChoppedCorpus(seed, kXMarkPersons, kXMarkSegments, &ops));
  LAZYXML_ASSIGN_OR_RETURN(std::vector<std::string> pool,
                           PersonPool(seed ^ 0x50105ULL));
  LAZYXML_ASSIGN_OR_RETURN(uint64_t anchor, PeopleAnchor(corpus));
  FragmentRegion region(anchor, &pool, seed * 31 + 2);
  for (uint32_t i = 0; i < kIngestLiveBatches * kBatchOps; ++i) {
    ops.push_back(region.InsertNext());
  }
  AppendBatches(ops, &w.setup);
  w.queries = XMarkQueries();
  w.readers = 2;

  // One writer: a BATCH of 64 new persons at the region's end, then a
  // BATCH removing the oldest 64, so the store size stays constant.
  Writer writer;
  writer.name = "batch-writer";
  const uint64_t cycles = std::max<uint64_t>(
      1, Scaled(kIngestCommitsPerSecond, seconds) / 2);
  for (uint64_t c = 0; c < cycles; ++c) {
    std::vector<WriteStep> ins, rem;
    for (uint32_t i = 0; i < kBatchOps; ++i) ins.push_back(region.InsertNext());
    for (uint32_t i = 0; i < kBatchOps; ++i) rem.push_back(region.RemoveOldest());
    AppendBatches(ins, &writer.steps);
    AppendBatches(rem, &writer.steps);
  }
  w.writers.push_back(std::move(writer));
  w.final_text = Spliced(corpus, anchor, region.text());
  w.setup_xml_bytes = SetupBytes(w.setup);
  return w;
}

lazyxml::Result<Workload> FeedDurable(uint64_t seed, int seconds) {
  Workload w;
  w.name = "feed-durable";
  w.durable = true;
  std::vector<WriteStep> ops;
  LAZYXML_ASSIGN_OR_RETURN(
      std::string corpus,
      ChoppedCorpus(seed, kFeedPersons, kFeedSegments, &ops));

  // The registrations container after the corpus, holding a constant
  // number of live forms.
  const std::string open = "<registrations>";
  const std::string close = "</registrations>";
  const uint64_t content = corpus.size() + open.size();
  ops.push_back(Insert(corpus.size(), open + close));
  Random form_rng(seed * 7 + 3);
  std::deque<std::string> forms;
  uint64_t forms_len = 0;
  uint64_t user = 0;
  for (uint32_t i = 0; i < kFeedLiveForms; ++i) {
    forms.push_back(MakeForm(&form_rng, user++));
    ops.push_back(Insert(content + forms_len, forms.back()));
    forms_len += forms.back().size();
  }
  AppendBatches(ops, &w.setup);
  auto registrations = [&] {
    std::string r = open;
    for (const std::string& f : forms) r += f;
    return r + close;
  };
  w.queries = FeedQueries();
  w.readers = 2;

  // The editor: a new form at the container's end, then the oldest form
  // out, as nested singleton INSERTs and REMOVEs.
  Writer editor;
  editor.name = "editor";
  const uint64_t edits = Scaled(kEditorOpsPerSecond, seconds) / 2;
  for (uint64_t i = 0; i < edits; ++i) {
    forms.push_back(MakeForm(&form_rng, user++));
    editor.steps.push_back(Insert(content + forms_len, forms.back()));
    forms_len += forms.back().size();
    editor.steps.push_back(Remove(content, forms.front().size()));
    forms_len -= forms.front().size();
    forms.pop_front();
  }
  // The appender: daily batches LOADed at the end of the super document.
  Writer appender;
  appender.name = "appender";
  Random day_rng(seed * 11 + 5);
  std::string appended;
  const uint64_t loads = Scaled(kAppenderLoadsPerSecond, seconds);
  for (uint64_t day = 0; day < loads; ++day) {
    const std::string doc = MakeArticleBatch(&day_rng, day);
    appended += doc;
    appender.steps.push_back(Single("LOAD\n" + doc, doc.size()));
  }
  appender.pace_by = Writer::PaceBy::kFirstWriter;
  appender.pace_ratio = static_cast<double>(editor.steps.size()) /
                        static_cast<double>(appender.steps.size());
  w.writers.push_back(std::move(editor));
  w.writers.push_back(std::move(appender));
  w.final_text = corpus + registrations() + appended;
  w.setup_xml_bytes = SetupBytes(w.setup);
  return w;
}

}  // namespace

QueryStream::QueryStream(const std::vector<Query>* queries, uint64_t seed,
                         size_t reader)
    : rng_(seed) {
  for (size_t i = 0; i < queries->size(); ++i) {
    by_family_[static_cast<int>((*queries)[i].family)].push_back(i);
  }
  for (size_t& c : cursor_) c = reader;
}

size_t QueryStream::Next() {
  static constexpr size_t kPerBlock[4] = {10, 5, 3, 2};
  if (pos_ == block_.size()) {
    block_.clear();
    pos_ = 0;
    for (int f = 0; f < 4; ++f) {
      for (size_t k = 0; k < kPerBlock[f]; ++k) {
        const std::vector<size_t>& pick = by_family_[f];
        block_.push_back(pick[cursor_[f]++ % pick.size()]);
      }
    }
    rng_.Shuffle(&block_);
  }
  return block_[pos_++];
}

lazyxml::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int seconds) {
  if (name == "xmark-read") return XMarkRead(seed, seconds);
  if (name == "feed-durable") return FeedDurable(seed, seconds);
  if (name == "bulk-ingest") return BulkIngest(seed, seconds);
  return lazyxml::Status::InvalidArgument("unknown workload '" + name + "'");
}

}  // namespace perfbench
