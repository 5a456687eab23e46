// perfbench_driver: runs one workload of the benchmark against the shipped
// lazyxml_server and prints its metrics.
//
//   perfbench_driver --workload xmark-read --seed 1 --seconds 10 --trace 0
//
// One run: probe the host's effective cores; generate every input from
// the seed; set the server up several times (spawn, load the corpus
// through BATCH commits, answer a first query) and keep the last one;
// drive the measured window with closed-loop clients, one thread and
// one connection each; then, outside the window, check every answer
// against the oracle and the server's own scrubber. `--trace 1` adds a
// second window on a fresh server with driver-side spans on, and prints
// the per-layer metrics of that traced window instead of the end-to-end
// ones. The last line of output is one JSON object.
//
// All files live under .bench_build/ in the current directory.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "conn.h"
#include "oracle.h"
#include "proc.h"
#include "query/xpath.h"
#include "server/command.h"
#include "server/wire.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupRepeats = 7;
constexpr int kRequestTimeoutMs = 20000;
constexpr size_t kMaxLoggedErrors = 8;

// -- Registry snapshots ---------------------------------------------------------

/// One METRICS TEXT dump: counters and gauges by value, histograms by
/// count and sum. Missing names read as zero (the export drops zeros).
struct Registry {
  std::map<std::string, double> value;
  std::map<std::string, double> count;
  std::map<std::string, double> sum;

  static Registry Parse(const std::string& text) {
    Registry r;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::string kind, name;
      ls >> kind >> name;
      if (kind == "counter" || kind == "gauge") {
        double v = 0;
        ls >> v;
        r.value[name] = v;
      } else if (kind == "histogram") {
        std::string tok;
        while (ls >> tok) {
          if (tok.rfind("count=", 0) == 0) r.count[name] = std::stod(tok.substr(6));
          if (tok.rfind("sum=", 0) == 0) r.sum[name] = std::stod(tok.substr(4));
        }
      }
    }
    return r;
  }
};

double Get(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// Change of the registry across a window.
struct Delta {
  Registry before, after;
  double Value(const std::string& k) const {
    return Get(after.value, k) - Get(before.value, k);
  }
  double Count(const std::string& k) const {
    return Get(after.count, k) - Get(before.count, k);
  }
  double Sum(const std::string& k) const {
    return Get(after.sum, k) - Get(before.sum, k);
  }
};

// -- Client-side accounting -----------------------------------------------------

/// What one client thread saw; merged after the window.
struct Tally {
  std::vector<double> query_us, update_us;
  std::map<size_t, std::vector<double>> per_query_us;  // by query template
  uint64_t attempted = 0, failed = 0, wrong = 0;
  uint64_t queries = 0, update_ops = 0, update_requests = 0;
  uint64_t xml_bytes = 0;
  double rtt_sum_us = 0;
  // Reply fields.
  uint64_t result_count = 0, result_pairs = 0;  // PATH/XPATH replies
  uint64_t xpath_replies = 0, empty_proofs = 0;
  // Driver-timed spans (traced windows only).
  double wire_us = 0, command_parse_us = 0, xpath_parse_us = 0;
  std::vector<std::string> errors;
  SpanLog spans;

  void Note(std::string msg) {
    if (errors.size() < kMaxLoggedErrors) errors.push_back(std::move(msg));
  }
  void Merge(const Tally& o) {
    // Span parents index their own log; shift them past ours.
    const int64_t base = static_cast<int64_t>(spans.spans.size());
    for (Span s : o.spans.spans) {
      if (s.parent >= 0) s.parent += base;
      spans.spans.push_back(s);
    }
    query_us.insert(query_us.end(), o.query_us.begin(), o.query_us.end());
    for (const auto& [qi, v] : o.per_query_us) {
      per_query_us[qi].insert(per_query_us[qi].end(), v.begin(), v.end());
    }
    update_us.insert(update_us.end(), o.update_us.begin(), o.update_us.end());
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    queries += o.queries;
    update_ops += o.update_ops;
    update_requests += o.update_requests;
    xml_bytes += o.xml_bytes;
    rtt_sum_us += o.rtt_sum_us;
    result_count += o.result_count;
    result_pairs += o.result_pairs;
    xpath_replies += o.xpath_replies;
    empty_proofs += o.empty_proofs;
    wire_us += o.wire_us;
    command_parse_us += o.command_parse_us;
    xpath_parse_us += o.xpath_parse_us;
    for (const std::string& e : o.errors) Note(e);
  }
};

/// Time to decode `payload` framed as `type`: what a FrameDecoder spends
/// on a frame that size.
void TimeDecode(lazyxml::server::FrameType type, std::string_view payload,
                Clock::time_point* start, Clock::time_point* end) {
  namespace ls = lazyxml::server;
  auto frame = ls::EncodeFrame(type, payload);
  *start = Clock::now();
  if (frame.ok()) {
    ls::FrameDecoder decoder;
    decoder.Feed(frame.ValueOrDie());
    (void)decoder.Next();
  }
  *end = Clock::now();
}

/// Sends one request on `conn` and accounts it in `t`. When `traced`,
/// first times, on the driver, the calls the request crosses on its way
/// (ParseCommand, ParseXPath for queries, EncodeFrame and a FrameDecoder
/// of the reply) and records them as spans under `request_id`.
Reply Send(Conn& conn, const std::string& payload, const std::string* expr,
           bool traced, uint64_t request_id, Tally* t) {
  namespace ls = lazyxml::server;
  ++t->attempted;
  Reply r;
  if (!traced) {
    r = conn.Call(payload);
  } else {
    SpanLog& log = t->spans;
    const Clock::time_point t0 = Clock::now();
    const int64_t root = log.Add(request_id, -1, "op", t0, t0);
    auto cmd = ls::ParseCommand(payload);
    const Clock::time_point t1 = Clock::now();
    log.Add(request_id, root, "command.parse", t0, t1);
    t->command_parse_us += MicrosBetween(t0, t1);
    if (!cmd.ok()) t->Note("driver cannot parse its own request");
    if (expr != nullptr) {
      auto steps = lazyxml::ParseXPath(*expr);
      const Clock::time_point t2 = Clock::now();
      log.Add(request_id, root, "xpath.parse", t1, t2);
      t->xpath_parse_us += MicrosBetween(t1, t2);
      if (!steps.ok()) t->Note("driver cannot parse " + *expr);
    }
    const Clock::time_point e0 = Clock::now();
    auto frame = ls::EncodeFrame(ls::FrameType::kRequest, payload);
    const Clock::time_point e1 = Clock::now();
    log.Add(request_id, root, "wire.encode", e0, e1);
    r = conn.Call(payload);
    const Clock::time_point c1 = Clock::now();
    log.Add(request_id, root, "request", e1, c1);
    Clock::time_point d0, d1;
    TimeDecode(ls::FrameType::kResponse,
               (r.ok ? ls::OkResponse(r.detail, r.body)
                     : "ERR " + r.code + " " + r.detail),
               &d0, &d1);
    log.Add(request_id, root, "wire.decode", d0, d1);
    log.spans[static_cast<size_t>(root)].end_us = MicrosBetween(log.epoch, d1);
    t->wire_us += MicrosBetween(e0, e1) + MicrosBetween(d0, d1);
    if (!frame.ok()) t->Note("driver cannot frame its own request");
  }
  t->rtt_sum_us += r.rtt_us;
  if (!r.ok) {
    ++t->failed;
    t->Note((r.transport ? "transport " : "ERR ") + r.code + " " + r.detail +
            " <- " + payload.substr(0, payload.find('\n')));
  }
  return r;
}

// -- Windows --------------------------------------------------------------------

/// Live progress of the running window, for pacing and for stopping.
struct Progress {
  std::atomic<uint64_t> first_writer_steps{0};
  std::atomic<bool> first_writer_done{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<size_t> readers_left{0};
  std::atomic<size_t> writers_left{0};
};

/// The shared parts of one measured window.
struct WindowCtx {
  const Workload* w = nullptr;
  const std::vector<int64_t>* expected = nullptr;  // per query; null: unchecked
  bool traced = false;
  uint64_t seed = 0;
  std::atomic<uint64_t>* next_request_id = nullptr;
  Progress* progress = nullptr;
};

/// Blocks until step `i` of a paced writer is due.
void Pace(const Writer& writer, size_t i, const Progress& p) {
  const uint64_t due =
      static_cast<uint64_t>(static_cast<double>(i) * writer.pace_ratio);
  for (;;) {
    switch (writer.pace_by) {
      case Writer::PaceBy::kNone:
        return;
      case Writer::PaceBy::kFirstWriter:
        if (p.first_writer_done.load() || p.first_writer_steps.load() >= due) {
          return;
        }
        break;
      case Writer::PaceBy::kReaders:
        if (p.readers_left.load() == 0 || p.queries.load() >= due) return;
        break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

void RunWriter(const WindowCtx& ctx, const Writer& writer, bool first,
               Conn& conn, Tally* t) {
  for (size_t i = 0; i < writer.steps.size(); ++i) {
    const WriteStep& step = writer.steps[i];
    Pace(writer, i, *ctx.progress);
    const Reply r = Send(conn, step.payload, nullptr, ctx.traced,
                         ctx.next_request_id->fetch_add(1), t);
    t->xml_bytes += step.xml_bytes;
    if (step.kind == WriteStep::Kind::kSingle ||
        step.kind == WriteStep::Kind::kCommit) {
      ++t->update_requests;
      if (r.ok) {
        t->update_us.push_back(r.rtt_us);
        t->update_ops += step.ops;
      }
    }
    if (r.ok && step.kind == WriteStep::Kind::kCommit &&
        (r.Field("APPLIED") != step.ops || r.Field("CANCELLED") != 0)) {
      ++t->wrong;
      t->Note(writer.name + ": commit replied '" + r.detail + "'");
    }
    if (first) ctx.progress->first_writer_steps.store(i + 1);
  }
  if (first) ctx.progress->first_writer_done.store(true);
}

/// Readers with a quota stop after it; the others once the writers are
/// done.
void RunReader(const WindowCtx& ctx, int reader, Conn& conn, Tally* t) {
  const std::vector<Query>& queries = ctx.w->queries;
  std::vector<std::string> payloads;
  for (const Query& q : queries) payloads.push_back(q.Payload());
  QueryStream stream(&queries, ctx.seed * 1000003ULL + 17 + reader,
                     static_cast<size_t>(reader));
  const uint64_t quota = ctx.w->queries_per_reader;
  for (uint64_t i = 0;; ++i) {
    if (quota > 0 ? i >= quota : ctx.progress->writers_left.load() == 0) break;
    const size_t qi = stream.Next();
    const Reply r = Send(conn, payloads[qi], &queries[qi].expr, ctx.traced,
                         ctx.next_request_id->fetch_add(1), t);
    ctx.progress->queries.fetch_add(1);
    if (!r.ok) continue;
    ++t->queries;
    t->query_us.push_back(r.rtt_us);
    t->per_query_us[qi].push_back(r.rtt_us);
    const int64_t count = r.Field("COUNT");
    const int64_t pairs = r.Field("PAIRS");
    if (pairs >= 0) {
      t->result_count += static_cast<uint64_t>(count);
      t->result_pairs += static_cast<uint64_t>(pairs);
    }
    if (queries[qi].verb == "XPATH") {
      ++t->xpath_replies;
      if (r.Field("EMPTYPROOF") == 1) ++t->empty_proofs;
    }
    if (ctx.expected != nullptr && count != (*ctx.expected)[qi]) {
      ++t->wrong;
      t->Note("COUNT " + std::to_string(count) + ", oracle " +
              std::to_string((*ctx.expected)[qi]) + " for " + payloads[qi]);
    }
  }
}

struct WindowResult {
  double seconds = 0;
  Tally tally;
};

/// Runs `writers` and `readers` reader threads, one thread and one
/// connection each, until every client is done.
WindowResult RunWindow(WindowCtx ctx, const std::vector<Writer>& writers,
                       int readers, std::vector<Conn>& conns,
                       Clock::time_point epoch) {
  Progress progress;
  progress.readers_left = static_cast<size_t>(readers);
  progress.writers_left = writers.size();
  ctx.progress = &progress;
  const size_t clients = writers.size() + static_cast<size_t>(readers);
  std::vector<Tally> tallies(clients);
  for (Tally& t : tallies) t.spans.epoch = epoch;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (i < writers.size()) {
        RunWriter(ctx, writers[i], i == 0, conns[i], &tallies[i]);
        progress.writers_left.fetch_sub(1);
      } else {
        RunReader(ctx, static_cast<int>(i - writers.size()), conns[i],
                  &tallies[i]);
        progress.readers_left.fetch_sub(1);
      }
    });
  }
  const Clock::time_point t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  WindowResult out;
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const Tally& t : tallies) out.tally.Merge(t);
  return out;
}

/// One measured window on a set-up server, with the registry across it.
struct Pass {
  WindowResult window;
  Delta delta;
};

// -- Server set-up --------------------------------------------------------------

struct RunPaths {
  std::string dir;     // this run's scratch directory
  std::string socket;  // relative, to stay under the sun_path limit
  std::string log;
};

struct LiveServer {
  std::unique_ptr<ServerProcess> proc;
  std::string data_dir;
  double setup_s = 0;
};

/// Spawns a server and loads the workload's set-up; the time is from
/// spawn to the first answered query.
lazyxml::Result<LiveServer> SetUp(const Workload& w, const RunPaths& paths,
                                  int index) {
  LiveServer s;
  std::vector<std::string> args = {"--socket", paths.socket};
  if (w.durable) {
    s.data_dir = paths.dir + "/data" + std::to_string(index);
    fs::remove_all(s.data_dir);
    fs::create_directories(s.data_dir);
    args.insert(args.end(),
                {"--data-dir", s.data_dir, "--sync", "every-record"});
  }
  fs::remove(paths.socket);
  const Clock::time_point t0 = Clock::now();
  LAZYXML_ASSIGN_OR_RETURN(
      s.proc, ServerProcess::Start(PERFBENCH_SERVER_BINARY, args, paths.socket,
                                   paths.log, 60000));
  Conn conn(paths.socket, kRequestTimeoutMs);
  for (const WriteStep& step : w.setup) {
    const Reply r = conn.Call(step.payload);
    if (!r.ok || (step.kind == WriteStep::Kind::kCommit &&
                  r.Field("APPLIED") != step.ops)) {
      return lazyxml::Status::Internal("set-up request failed: " + r.code +
                                       " " + r.detail);
    }
  }
  const Reply first = conn.Call(w.queries.front().Payload());
  if (!first.ok) {
    return lazyxml::Status::Internal("first query failed: " + first.detail);
  }
  s.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return s;
}

lazyxml::Result<Registry> Snapshot(Conn& conn) {
  const Reply r = conn.Call("METRICS TEXT");
  if (!r.ok) return lazyxml::Status::Internal("METRICS failed: " + r.detail);
  return Registry::Parse(r.body);
}

/// The correctness gate, outside any window: the fixed query set against
/// the oracle's counts for the writers' final document, and a clean CHECK.
void Gate(const Workload& w, const std::vector<int64_t>& counts, Conn& conn,
          std::vector<std::string>* problems) {
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const Reply r = conn.Call(w.queries[i].Payload());
    if (!r.ok || r.Field("COUNT") != counts[i]) {
      problems->push_back("final " + w.queries[i].Payload() + ": got '" +
                          r.detail + "', oracle COUNT " +
                          std::to_string(counts[i]));
    }
  }
  const Reply check = conn.Call("CHECK");
  if (!check.ok || check.Field("ERRORS") != 0) {
    problems->push_back("CHECK: " + check.detail);
  }
}

// -- Statistics -----------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  // "num / den" for ratios, shown in the report
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Short(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

Metric RatioMetric(const std::string& name, double num, double den,
                   const std::string& unit, const std::string& num_name,
                   const std::string& den_name) {
  return Metric{name, Ratio(num, den), unit,
                num_name + " " + Short(num) + " / " + den_name + " " + Short(den)};
}

/// End-to-end metrics of one window.
std::vector<Metric> EndToEnd(const WindowResult& win, double setup_s,
                             double rss_mb) {
  const Tally& t = win.tally;
  return {
      {"setup_s", setup_s, "s", ""},
      {"query_ops_s", Ratio(static_cast<double>(t.queries), win.seconds),
       "ops/s", ""},
      {"query_p50_us", Quantile(t.query_us, 0.50), "us", ""},
      {"query_p99_us", Quantile(t.query_us, 0.99), "us", ""},
      {"update_ops_s", Ratio(static_cast<double>(t.update_ops), win.seconds),
       "ops/s", ""},
      {"update_p50_us", Quantile(t.update_us, 0.50), "us", ""},
      {"update_p99_us", Quantile(t.update_us, 0.99), "us", ""},
      {"server_peak_rss_mb", rss_mb, "MiB", ""},
  };
}

/// Per-layer metrics of one traced window (`delta` = the registry
/// across it).
std::vector<Metric> PerLayer(const Tally& all, const Delta& d,
                             double disk_bytes, double user_bytes_total) {
  const double req = static_cast<double>(all.attempted);
  const double queries = static_cast<double>(all.queries);
  const double updates = static_cast<double>(all.update_ops);
  const double server_reqs =
      d.Count("server.request_us") - d.Count("server.cmd.metrics_us");
  const double request_sum =
      d.Sum("server.request_us") - d.Sum("server.cmd.metrics_us");
  const double request_us = Ratio(request_sum, server_reqs);
  const double join_sum = d.Sum("join.query_us");
  const double fsync_sum = d.Sum("wal.fsync_us");
  const double apply_sum = d.Sum("batch.apply_us");
  const double query_cmd_sum = d.Sum("server.cmd.path_us") +
                               d.Sum("server.cmd.twig_us") +
                               d.Sum("server.cmd.xpath_us");
  const double update_cmd_sum =
      d.Sum("server.cmd.load_us") + d.Sum("server.cmd.insert_us") +
      d.Sum("server.cmd.remove_us") + d.Sum("server.cmd.batch_commit_us");
  const double fetched = d.Value("join.elements_fetched");
  const double hits = d.Value("scan_cache.hits");
  const double misses = d.Value("scan_cache.misses");
  return {
      // server
      RatioMetric("server.request_us", request_sum, server_reqs, "us/req",
                  "registry us", "requests"),
      Metric{"server.transport_us", Ratio(all.rtt_sum_us, req) - request_us,
             "us/req", "client round trip - server.request_us"},
      RatioMetric("server.wire_us", all.wire_us, req, "us/req", "driver us",
                  "requests"),
      RatioMetric("server.command_parse_us", all.command_parse_us, req,
                  "us/req", "driver us", "requests"),
      RatioMetric("server.engine_unattributed_us",
                  request_sum - join_sum - fsync_sum - apply_sum, server_reqs,
                  "us/req", "request-join-fsync-apply us", "requests"),
      // query
      RatioMetric("query.parse_us", all.xpath_parse_us, queries, "us/query",
                  "driver us", "queries"),
      RatioMetric("query.joins_per_query", d.Value("join.queries"), queries,
                  "joins/query", "joins", "queries"),
      RatioMetric("query.pairs_per_result",
                  static_cast<double>(all.result_pairs),
                  static_cast<double>(all.result_count), "ratio", "PAIRS",
                  "COUNT"),
      RatioMetric("query.empty_proof_share",
                  static_cast<double>(all.empty_proofs),
                  static_cast<double>(all.xpath_replies), "ratio",
                  "EMPTYPROOF", "XPATH replies"),
      RatioMetric("query.segments_pruned_per_query",
                  d.Value("query.segments_pruned_total"), queries,
                  "segments/query", "pruned", "queries"),
      RatioMetric("query.summary_update_us", d.Sum("summary.update_us"),
                  updates, "us/update", "registry us", "update ops"),
      // core
      RatioMetric("core.join_us", join_sum, queries, "us/query",
                  "registry us", "queries"),
      RatioMetric("core.join_share_of_query", join_sum, query_cmd_sum, "ratio",
                  "join us", "query command us"),
      RatioMetric("core.elements_fetched_per_query", fetched, queries,
                  "elements/query", "fetched", "queries"),
      RatioMetric("core.elements_fetched_per_pair", fetched,
                  static_cast<double>(all.result_pairs), "elements/pair",
                  "fetched", "PAIRS"),
      RatioMetric("core.rounds_per_query", d.Value("join.rounds"), queries,
                  "rounds/query", "rounds", "queries"),
      RatioMetric("core.partitions_per_query", d.Value("join.partitions"),
                  queries, "parts/query", "partitions", "queries"),
      RatioMetric("core.batch_apply_us", apply_sum, updates, "us/update",
                  "registry us", "update ops"),
      RatioMetric("core.batch_apply_share_of_update", apply_sum,
                  update_cmd_sum, "ratio", "apply us", "update command us"),
      RatioMetric("core.segments_created_per_update",
                  d.Value("update_log.segments_created"), updates, "seg/update",
                  "segments", "update ops"),
      RatioMetric("core.btree_leaf_splits_per_update",
                  d.Value("btree.leaf_splits"), updates, "splits/update",
                  "leaf splits", "update ops"),
      RatioMetric("core.scan_cache_hit_rate", hits, hits + misses, "ratio",
                  "hits", "lookups"),
      // storage
      RatioMetric("storage.fsync_us", fsync_sum, updates, "us/update",
                  "registry us", "update ops"),
      RatioMetric("storage.fsync_share_of_update", fsync_sum, update_cmd_sum,
                  "ratio", "fsync us", "update command us"),
      RatioMetric("storage.fsyncs_per_update", d.Value("wal.fsyncs"), updates,
                  "fsyncs/update", "fsyncs", "update ops"),
      RatioMetric("storage.commits_per_fsync", d.Value("wal.records_appended"),
                  d.Value("wal.fsyncs"), "records/fsync", "WAL records",
                  "fsyncs"),
      RatioMetric("storage.wal_bytes_per_user_byte",
                  d.Value("wal.bytes_appended"),
                  static_cast<double>(all.xml_bytes), "ratio", "WAL bytes",
                  "XML bytes sent"),
      RatioMetric("storage.disk_bytes_per_user_byte", disk_bytes,
                  user_bytes_total, "ratio", "data-dir bytes",
                  "XML bytes sent incl. set-up"),
      // xml
      RatioMetric("xml.parse_bytes_per_update", d.Value("xml.parse.bytes"),
                  updates, "bytes/update", "parsed bytes", "update ops"),
      RatioMetric("xml.parse_elements_per_update",
                  d.Value("xml.parse.elements"), updates, "elem/update",
                  "parsed elements", "update ops"),
      // common
      RatioMetric("common.pool_tasks_per_request",
                  d.Value("thread_pool.tasks_run"), req, "tasks/req", "tasks",
                  "requests"),
      RatioMetric("common.pool_steals_per_request",
                  d.Value("thread_pool.steals"), req, "steals/req", "steals",
                  "requests"),
  };
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14s %-14s %s\n", m.name.c_str(),
                Short(m.value).c_str(), m.unit.c_str(), m.base.c_str());
  }
}

void DumpSpans(const std::string& path, const SpanLog& log) {
  std::ofstream out(path);
  out << "{\"spans\":[";
  for (size_t i = 0; i < log.spans.size(); ++i) {
    const Span& s = log.spans[i];
    out << (i ? ",\n" : "\n") << "{\"request\":" << s.request_id
        << ",\"span\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_us\":" << Num(s.start_us)
        << ",\"end_us\":" << Num(s.end_us) << "}";
  }
  out << "\n]}\n";
}

// -- The run --------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atoi(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0 && argc % 2 == 1;
}

lazyxml::Result<Pass> MeasurePass(const Workload& w, const RunPaths& paths,
                                  uint64_t seed, bool traced,
                                  const std::vector<int64_t>* expected) {
  std::vector<Conn> conns;
  for (size_t i = 0; i < w.writers.size() + static_cast<size_t>(w.readers);
       ++i) {
    conns.emplace_back(paths.socket, kRequestTimeoutMs);
  }
  std::atomic<uint64_t> next_id{1};
  WindowCtx ctx;
  ctx.w = &w;
  ctx.expected = expected;
  ctx.traced = traced;
  ctx.seed = seed;
  ctx.next_request_id = &next_id;
  const Clock::time_point epoch = Clock::now();
  Pass p;
  LAZYXML_ASSIGN_OR_RETURN(p.delta.before, Snapshot(conns[0]));
  p.window = RunWindow(ctx, w.writers, w.readers, conns, epoch);
  LAZYXML_ASSIGN_OR_RETURN(p.delta.after, Snapshot(conns[0]));
  return p;
}

/// A server set up `repeats` times (the last one kept), one measured
/// window on it, and the correctness gate on the state it left.
struct Outcome {
  std::vector<double> setups;
  double setup_s = 0;  // median of `setups`
  Pass pass;
  double rss_mb = 0;
  double disk_bytes = 0;  // data directory, durable workloads only
  double user_bytes = 0;  // XML sent, set-up included
};

lazyxml::Result<Outcome> Measure(const Workload& w, const RunPaths& paths,
                                 uint64_t seed, bool traced, int repeats,
                                 const std::vector<int64_t>* check_replies,
                                 const std::vector<int64_t>& final_counts,
                                 std::vector<std::string>* problems) {
  Outcome out;
  LiveServer live;
  for (int i = 0; i < repeats; ++i) {
    if (live.proc) {
      live.proc->Stop();
      fs::remove_all(live.data_dir);
    }
    LAZYXML_ASSIGN_OR_RETURN(live, SetUp(w, paths, i));
    out.setups.push_back(live.setup_s);
  }
  out.setup_s = Median(out.setups);
  LAZYXML_ASSIGN_OR_RETURN(out.pass,
                           MeasurePass(w, paths, seed, traced, check_replies));
  Conn gate(paths.socket, kRequestTimeoutMs);
  Gate(w, final_counts, gate, problems);
  out.rss_mb = live.proc->PeakRssMb();
  out.user_bytes = static_cast<double>(w.setup_xml_bytes +
                                       out.pass.window.tally.xml_bytes);
  if (w.durable) out.disk_bytes = static_cast<double>(DirectoryBytes(live.data_dir));
  if (!live.proc->Stop().ok()) problems->push_back("server did not exit 0");
  fs::remove_all(live.data_dir);
  return out;
}

int Run(const Args& args) {
  const std::string kRoot = ".bench_build";
  RunPaths paths;
  paths.dir = kRoot + "/run/" + args.workload + "-" + std::to_string(getpid());
  paths.socket = paths.dir + "/s.sock";
  paths.log = paths.dir + "/server.log";
  fs::remove_all(paths.dir);
  fs::create_directories(paths.dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() { fs::remove_all(dir); }
  } cleanup{paths.dir};

  const CoreProbe probe = ProbeCores();
  std::printf("workload %s seed %llu seconds %d trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("core probe: 1 thread %.1f Mop/s, %u threads %.1f Mop/s "
              "(%.2f effective cores)\n",
              probe.one_thread_mops, probe.threads, probe.all_threads_mops,
              Ratio(probe.all_threads_mops, probe.one_thread_mops));

  auto made = MakeWorkload(args.workload, args.seed, args.seconds);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload& w = made.ValueOrDie();

  // The oracle of the final document, built before any timing.
  auto oracle = Oracle::Build(w.final_text);
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle: %s\n", oracle.status().ToString().c_str());
    return 2;
  }
  std::vector<int64_t> expected;
  for (const Query& q : w.queries) {
    auto c = oracle.ValueOrDie().Count(q.expr);
    if (!c.ok()) {
      std::fprintf(stderr, "oracle: %s\n", c.status().ToString().c_str());
      return 2;
    }
    expected.push_back(static_cast<int64_t>(c.ValueOrDie()));
  }

  std::vector<std::string> problems;
  auto untraced = Measure(w, paths, args.seed, /*traced=*/false,
                          args.trace ? 1 : kSetupRepeats,
                          w.static_answers ? &expected : nullptr, expected,
                          &problems);
  if (!untraced.ok()) {
    std::fprintf(stderr, "%s\n", untraced.status().ToString().c_str());
    return 2;
  }
  Outcome& out = untraced.ValueOrDie();
  const std::vector<Metric> e2e =
      EndToEnd(out.pass.window, out.setup_s, out.rss_mb);
  const Tally& seen = out.pass.window.tally;
  std::printf("set-up runs (s):");
  for (double s : out.setups) std::printf(" %.4f", s);
  std::printf("\nwindow: %.3f s; %llu queries, %llu update ops in %llu "
              "update requests\n",
              out.pass.window.seconds,
              static_cast<unsigned long long>(seen.queries),
              static_cast<unsigned long long>(seen.update_ops),
              static_cast<unsigned long long>(seen.update_requests));
  std::printf("failed_ops_frac %.6g (%llu / %llu)\n",
              Ratio(static_cast<double>(seen.failed),
                    static_cast<double>(seen.attempted)),
              static_cast<unsigned long long>(seen.failed),
              static_cast<unsigned long long>(seen.attempted));
  if (seen.query_us.size() < 1000 || seen.update_us.size() < 1000) {
    std::printf("note: under 1000 samples; a p99 has under 10 beyond it\n");
  }
  PrintTable("end-to-end:", e2e);
  std::printf("queries by template (n, p50 us, p99 us):\n");
  for (const auto& [qi, v] : seen.per_query_us) {
    std::printf("  %6zu %10.1f %10.1f  %s\n", v.size(), Quantile(v, 0.5),
                Quantile(v, 0.99), w.queries[qi].Payload().c_str());
  }
  std::printf("set-up XML %llu bytes; final document %zu bytes\n",
              static_cast<unsigned long long>(w.setup_xml_bytes),
              w.final_text.size());

  Tally all = seen;
  std::vector<Metric> reported = e2e;
  if (args.trace) {
    auto traced = Measure(w, paths, args.seed, /*traced=*/true, 1,
                          w.static_answers ? &expected : nullptr, expected,
                          &problems);
    if (!traced.ok()) {
      std::fprintf(stderr, "%s\n", traced.status().ToString().c_str());
      return 2;
    }
    const Outcome& tr = traced.ValueOrDie();
    const std::vector<Metric> te2e =
        EndToEnd(tr.pass.window, tr.setup_s, tr.rss_mb);
    std::printf("tracing overhead (traced - untraced):\n");
    for (size_t i = 1; i < e2e.size(); ++i) {
      std::printf("  %-36s %+14s %s\n", e2e[i].name.c_str(),
                  Short(te2e[i].value - e2e[i].value).c_str(),
                  e2e[i].unit.c_str());
    }
    reported = PerLayer(tr.pass.window.tally, tr.pass.delta, tr.disk_bytes,
                        tr.user_bytes);
    PrintTable("per-layer (traced window):", reported);
    fs::create_directories(kRoot + "/spans");
    const std::string span_path = kRoot + "/spans/" + args.workload + "-seed" +
                                  std::to_string(args.seed) + ".json";
    DumpSpans(span_path, tr.pass.window.tally.spans);
    std::printf("spans: %zu in %s\n", tr.pass.window.tally.spans.spans.size(),
                span_path.c_str());
    all.Merge(tr.pass.window.tally);
  }

  for (const std::string& e : all.errors) std::printf("error: %s\n", e.c_str());
  for (const std::string& p : problems) std::printf("gate: %s\n", p.c_str());
  const bool correct = all.wrong == 0 && problems.empty();
  std::printf("correct: %s\n", correct ? "yes" : "NO");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(all.attempted);
  json += ", \"failed\": " + std::to_string(all.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    json += (i ? ", \"" : "\"") + reported[i].name + "\": {\"value\": " +
            Num(reported[i].value) + ", \"unit\": \"" + reported[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  return perfbench::Run(args);
}
