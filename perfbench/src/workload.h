// The benchmark's workloads. Every byte the server receives is generated
// here from the seed before the server starts: the corpus, the set-up
// batches, each writer's whole request script, and the query templates
// the readers draw from. Writers are the only source of positions, and
// each tracks the document text it leaves behind, so the final state of
// every run is known exactly (Workload::final_text).

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace perfbench {

/// One request of a writer script.
struct WriteStep {
  enum class Kind {
    kSingle,  // INSERT / REMOVE / LOAD applied on its own: 1 update op
    kBegin,   // BATCH BEGIN
    kQueued,  // INSERT / REMOVE buffered in an open batch
    kCommit,  // BATCH COMMIT applying `ops` update ops
  };
  Kind kind = Kind::kSingle;
  std::string payload;
  uint32_t ops = 1;         // update ops applied (kSingle: 1, kCommit: n)
  uint64_t xml_bytes = 0;   // XML text carried by this request
};

/// A writer client: its script runs once, in order, in a closed loop.
struct Writer {
  std::string name;
  std::vector<WriteStep> steps;
  /// Pacing (think time): step i starts only once the leader has
  /// completed i * `pace_ratio` requests (or finished), so the writer
  /// overlaps the leader for the whole window at a fixed ratio.
  enum class PaceBy { kNone, kFirstWriter, kReaders };
  PaceBy pace_by = PaceBy::kNone;
  double pace_ratio = 0;
};

/// A query the readers send, with its family for the mix.
struct Query {
  enum class Family { kPath, kTwig, kXPath, kEmpty };
  Family family = Family::kPath;
  std::string verb;  // PATH, TWIG or XPATH
  std::string expr;

  std::string Payload() const { return verb + " " + expr; }
};

/// A reader's seeded stream over a query list. The mix is stratified:
/// every block of 20 queries holds 10 PATH, 5 TWIG, 3 XPATH and 2
/// provably empty patterns, templates taken round-robin within a family,
/// in a seeded order. Every run thus sends the same proportions; the seed
/// changes only the order.
class QueryStream {
 public:
  QueryStream(const std::vector<Query>* queries, uint64_t seed, size_t reader);
  /// Index into the query list of the next query.
  size_t Next();

 private:
  std::vector<size_t> by_family_[4];
  size_t cursor_[4] = {0, 0, 0, 0};
  std::vector<size_t> block_;
  size_t pos_ = 0;
  lazyxml::Random rng_;
};

struct Workload {
  std::string name;
  bool durable = false;
  /// Set-up: BATCH commits of the seeded corpus, applied before timing.
  std::vector<WriteStep> setup;
  uint64_t setup_xml_bytes = 0;
  /// The document the writers leave behind (their model of the store).
  std::string final_text;

  std::vector<Query> queries;
  /// True when no write changes any query's answer, so every reply in
  /// the window is checked against the oracle (xmark-read).
  bool static_answers = false;
  int readers = 0;
  /// Queries per reader; 0 = readers run until the writers finish.
  uint64_t queries_per_reader = 0;
  /// Writers that run beside the readers.
  std::vector<Writer> writers;
};

/// Builds the workload `name` for `seed`, sized so that its measured
/// window lasts about `seconds` on a 4-vCPU host.
lazyxml::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
