// Seed-corpus generator: writes small, valid inputs per fuzz target into
// <out>/{parser,wal,snapshot,ops,wire,command,xpath,recovery}/ so the
// fuzzers start from meaningful bytes instead of noise. Deterministic —
// CI regenerates the corpus on every run rather than committing binaries.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/crc32c.h"
#include "common/serial.h"
#include "core/lazy_database.h"
#include "core/snapshot.h"
#include "server/wire.h"
#include "storage/log_record.h"

using namespace lazyxml;

namespace {

bool WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::string Frame(const LogRecord& record) {
  const std::string payload = EncodeLogRecord(record);
  ByteWriter frame;
  frame.PutU32(crc32c::Mask(crc32c::Value(payload)));
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  return frame.TakeBuffer() + payload;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  namespace fs = std::filesystem;
  const fs::path out(argv[1]);
  for (const char* sub :
       {"parser", "wal", "snapshot", "ops", "wire", "command", "xpath",
        "recovery"}) {
    std::error_code ec;
    fs::create_directories(out / sub, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s/%s\n", argv[1], sub);
      return 2;
    }
  }
  bool ok = true;

  ok &= WriteFile(out / "parser" / "book.xml",
                  "<book><title>t</title><author key=\"k\">a</author>"
                  "<chapter><p>text</p><p/></chapter></book>");
  ok &= WriteFile(out / "parser" / "mixed.xml",
                  "<?xml version=\"1.0\"?><!-- c --><r><![CDATA[<x>]]>"
                  "<a/><b>t</b></r>");
  ok &= WriteFile(out / "parser" / "deep.xml",
                  "<a><a><a><a><a><a><a>x</a></a></a></a></a></a></a>");

  ok &= WriteFile(out / "wal" / "basic.bin",
                  Frame(LogRecord::InsertSegment(1, "<a><b>x</b></a>", 0)) +
                      Frame(LogRecord::InsertSegment(2, "<c>y</c>", 4)) +
                      Frame(LogRecord::RemoveRange(4, 8)) +
                      Frame(LogRecord::CollapseSubtree(1, 3)) +
                      Frame(LogRecord::Freeze()));

  {
    LazyDatabase db;
    (void)db.InsertSegment("<doc><a>1</a><b>2</b></doc>", 0);
    (void)db.InsertSegment("<c>3</c>", 5);
    auto blob = SerializeDatabase(db);
    if (blob.ok()) {
      ok &= WriteFile(out / "snapshot" / "two-segments.bin",
                      blob.ValueOrDie());
    } else {
      ok = false;
    }
  }

  // Op streams are raw decision bytes; arbitrary values work, these just
  // mix the opcodes densely.
  std::string ops;
  for (int i = 0; i < 96; ++i) ops.push_back(static_cast<char>(i * 37 + 11));
  ok &= WriteFile(out / "ops" / "dense.bin", ops);

  // Wire seeds: the first two bytes steer the fuzz target's payload cap
  // and chunk size; valid frames follow so mutation starts from real
  // framing instead of noise.
  {
    using server::EncodeFrame;
    using server::FrameType;
    server::WireLimits limits;
    auto frame = [&](FrameType type, std::string_view payload) {
      auto enc = EncodeFrame(type, payload, limits);
      return enc.ok() ? enc.ValueOrDie() : std::string();
    };
    const std::string knobs = "\xC0\x20";
    ok &= WriteFile(out / "wire" / "session.bin",
                    knobs + frame(FrameType::kRequest, "LOAD\n<a><b/></a>") +
                        frame(FrameType::kRequest, "PATH a/b") +
                        frame(FrameType::kRequest, "BATCH BEGIN") +
                        frame(FrameType::kRequest, "INSERT 3\n<c/>") +
                        frame(FrameType::kRequest, "BATCH COMMIT") +
                        frame(FrameType::kRequest, "QUIT"));
    ok &= WriteFile(out / "wire" / "responses.bin",
                    knobs +
                        frame(FrameType::kResponse, "OK SID 1 GP 0 LEN 10") +
                        frame(FrameType::kResponse,
                              "ERR OutOfRange gp beyond end") +
                        frame(FrameType::kResponse, "OK COUNT 2\n1 3\n1 7\n"));
  }

  // Command seeds: the fuzz_command knobs are three leading bytes
  // (grammar caps + chunking); the rest is command text chunked by the
  // third knob. The session mirrors examples/server_session.sh — load,
  // query, batch, admin, quit — so mutation starts from every verb.
  {
    // \x40 → 288-byte line cap, \x20 → 48-byte expr cap, \x3F → 64-byte
    // chunks, so each padded command below is exactly one chunk.
    const std::string knobs = "\x40\x20\x3F";
    auto pad = [](std::string payload) {
      payload.resize(64, ' ');
      return payload;
    };
    ok &= WriteFile(out / "command" / "session.bin",
                    knobs + pad("LOAD\n<site><people><person/></people></site>") +
                        pad("PATH site//person") +
                        pad("TWIG people[person]") +
                        pad("BATCH BEGIN") + pad("INSERT 6\n<open_auction/>") +
                        pad("REMOVE 6 14") + pad("BATCH COMMIT") +
                        pad("BATCH ABORT") + pad("FREEZE") + pad("COMPACT") +
                        pad("CHECK") + pad("CHECKPOINT") +
                        pad("METRICS JSON") + pad("QUIT"));
  }

  // XPath seeds: valid expressions over the fuzz_xpath document's tags
  // (site/people/person/profile/interest/keyword/watch/items/item), so
  // mutation starts from inputs that reach the evaluation oracle, plus
  // one that the summary proves empty with zero scans.
  ok &= WriteFile(out / "xpath" / "twig.xpath",
                  "//person[profile]/watch");
  ok &= WriteFile(out / "xpath" / "nested.xpath",
                  "site/people//person[interest[keyword]][watch]/*");
  ok &= WriteFile(out / "xpath" / "wild.xpath", "*[*]//interest");
  ok &= WriteFile(out / "xpath" / "empty-proof.xpath",
                  "//watch//person");
  // Churned-store seeds (`script|expr`, see fuzz_xpath.cc): removals of
  // children (op byte % 4 == 0), complete (1) and incomplete (2) parents
  // and filled ones (3), then predicates the summary proves or re-proves.
  ok &= WriteFile(out / "xpath" / "churn-profile.xpath",
                  "\x04\x02\x03\x10|person[profile]//interest");
  ok &= WriteFile(out / "xpath" / "churn-refill.xpath",
                  "\x21\x07\x0c\x01|//people/person[profile/interest]/watch");
  ok &= WriteFile(out / "xpath" / "churn-chain.xpath",
                  "\x05\x06\x27|//a[a//a//a//b]/a");
  ok &= WriteFile(out / "xpath" / "churn-wild.xpath",
                  "\x2c\x0b|//*[*//b]//*");

  // Recovery seeds (see fuzz_recovery.cc): a flags byte (bit 0 = with
  // snapshot), big-endian u16 lengths of the snapshot and the first WAL
  // segment, then the snapshot, the first and the second segment.
  {
    auto u16 = [](size_t n) {
      return std::string{static_cast<char>(n >> 8), static_cast<char>(n)};
    };
    const std::string first =
        Frame(LogRecord::InsertSegment(1, "<a><b>x</b></a>", 0)) +
        Frame(LogRecord::InsertSegment(2, "<c>y</c>", 3));
    const std::string second = Frame(LogRecord::InsertSegment(3, "<d/>", 0)) +
                               Frame(LogRecord::RemoveRange(0, 4));
    const std::string header = std::string(1, '\0') + u16(first.size());
    ok &= WriteFile(out / "recovery" / "wal-only.bin",
                    header + first + second);
    ok &= WriteFile(out / "recovery" / "torn-tail.bin",
                    header + first + second.substr(0, second.size() - 3));
    LazyDatabase db;
    (void)db.InsertSegment("<a><b>x</b></a>", 0);
    auto blob = SerializeDatabase(db);
    if (blob.ok()) {
      const std::string& snapshot = blob.ValueOrDie();
      const std::string tail =
          Frame(LogRecord::InsertSegment(2, "<c>y</c>", 3));
      ok &= WriteFile(out / "recovery" / "snapshot.bin",
                      std::string(1, '\1') + u16(snapshot.size()) +
                          u16(tail.size()) + snapshot + tail + second);
    } else {
      ok = false;
    }
  }

  if (!ok) {
    std::fprintf(stderr, "seed generation failed\n");
    return 1;
  }
  return 0;
}
