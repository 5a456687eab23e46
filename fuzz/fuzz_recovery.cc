// Fuzz target: recovery, salvage and the storage scrubber over one
// database directory. The input is split into an optional snapshot blob
// and two WAL segments:
//
//   u8  flags         bit 0: write snapshot-000001.bin
//   u16 snapshot_len  big-endian; present only with bit 0
//   u16 first_len     big-endian: bytes of the first WAL segment
//   ...               the snapshot, the first segment, then the second
//
// The segments are wal-000001/2 without a snapshot and wal-000002/3 with
// one. Each policy runs on its own copy of the directory (recovery and
// salvage write), and all three must agree: RecoverDatabase succeeds
// exactly when the scrub files no storage error, they replay the same
// records, salvage cuts where the scrub stops, and a second recovery
// after a successful recovery or salvage is clean.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "check/storage_check.h"
#include "common/file_io.h"
#include "fuzz_common.h"
#include "storage/recovery.h"
#include "storage/salvage.h"
#include "storage/wal_layout.h"

using namespace lazyxml;

namespace {

struct Files {
  bool with_snapshot = false;
  std::string_view snapshot;
  std::string_view first;
  std::string_view second;
};

Files Split(std::string_view in) {
  Files f;
  auto take_u16 = [&in]() -> size_t {
    size_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v <<= 8;
      if (!in.empty()) {
        v |= static_cast<uint8_t>(in[0]);
        in.remove_prefix(1);
      }
    }
    return v;
  };
  auto take = [&in](size_t n) {
    const std::string_view out = in.substr(0, std::min(n, in.size()));
    in.remove_prefix(out.size());
    return out;
  };
  const uint8_t flags = in.empty() ? 0 : static_cast<uint8_t>(in[0]);
  if (!in.empty()) in.remove_prefix(1);
  f.with_snapshot = (flags & 1) != 0;
  const size_t snapshot_len = f.with_snapshot ? take_u16() : 0;
  const size_t first_len = take_u16();
  f.snapshot = take(snapshot_len);
  f.first = take(first_len);
  f.second = in;
  return f;
}

/// A fresh directory `<root>/<name>` holding `files`.
std::string Materialize(const std::filesystem::path& root, const char* name,
                        const Files& files) {
  const std::filesystem::path dir = root / name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  FUZZ_ASSERT(!ec);
  const std::string d = dir.string();
  const uint64_t first_segment = files.with_snapshot ? 2 : 1;
  if (files.with_snapshot) {
    FUZZ_ASSERT(WriteFileAtomic(d + "/" + SnapshotFileName(1),
                                files.snapshot, /*sync=*/false)
                    .ok());
  }
  FUZZ_ASSERT(WriteFileAtomic(d + "/" + WalSegmentFileName(first_segment),
                              files.first, /*sync=*/false)
                  .ok());
  FUZZ_ASSERT(WriteFileAtomic(d + "/" + WalSegmentFileName(first_segment + 1),
                              files.second, /*sync=*/false)
                  .ok());
  return d;
}

bool HasStorageError(const check::CheckReport& report) {
  for (const check::CheckFinding& f : report.findings()) {
    if (f.severity == check::Severity::kError && f.subsystem == "storage") {
      return true;
    }
  }
  return false;
}

/// The per-process scratch root, removed at exit.
struct ScratchRoot {
  std::filesystem::path path = std::filesystem::temp_directory_path() /
                               ("lazyxml_fuzz_recovery." +
                                std::to_string(::getpid()));
  ~ScratchRoot() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const ScratchRoot scratch;
  const std::filesystem::path& root = scratch.path;
  const Files files =
      Split(std::string_view(reinterpret_cast<const char*>(data), size));
  const std::string scrub_dir = Materialize(root, "scrub", files);
  const std::string recover_dir = Materialize(root, "recover", files);
  const std::string salvage_dir = Materialize(root, "salvage", files);

  check::DirectoryReplay replay;
  auto scrub = check::CheckDatabaseDirectory(scrub_dir, {}, &replay);
  FUZZ_ASSERT(scrub.ok());
  const bool storage_error = HasStorageError(scrub.ValueOrDie());

  auto recovered = RecoverDatabase(recover_dir);
  FUZZ_ASSERT(recovered.ok() == !storage_error);

  auto salvaged = SalvageDatabase(salvage_dir);
  FUZZ_ASSERT(salvaged.ok());
  const DamageReport& damage = salvaged.ValueOrDie().damage;
  FUZZ_ASSERT(damage.records_recovered == replay.records_replayed);
  const DamagedArtifact* cut = nullptr;
  for (const DamagedArtifact& a : damage.artifacts) {
    if (a.reason == "wal-torn" || a.reason == "wal-corrupt" ||
        a.reason == "wal-diverged") {
      FUZZ_ASSERT(cut == nullptr);
      cut = &a;
    }
  }
  FUZZ_ASSERT((cut == nullptr) == (replay.stop_segment == 0));
  if (cut != nullptr) {
    FUZZ_ASSERT(cut->file == WalSegmentFileName(replay.stop_segment));
    FUZZ_ASSERT(cut->kept_bytes == replay.stop_bytes);
  }

  if (recovered.ok()) {
    const uint64_t replayed = recovered.ValueOrDie().stats.records_replayed;
    FUZZ_ASSERT(replayed == replay.records_replayed);
    auto again = RecoverDatabase(recover_dir);
    FUZZ_ASSERT(again.ok());
    FUZZ_ASSERT(!again.ValueOrDie().stats.torn_tail);
    FUZZ_ASSERT(again.ValueOrDie().stats.records_replayed == replayed);
  }
  auto after_salvage = RecoverDatabase(salvage_dir);
  FUZZ_ASSERT(after_salvage.ok());
  FUZZ_ASSERT(!after_salvage.ValueOrDie().stats.torn_tail);
  FUZZ_ASSERT(after_salvage.ValueOrDie().stats.records_replayed ==
              damage.records_recovered);
  return 0;
}
