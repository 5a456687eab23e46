#include "storage/wal_layout.h"

#include "common/strings.h"

namespace lazyxml {

namespace {

/// Parses "<prefix><digits><suffix>" into the digit run's value.
std::optional<uint64_t> ParseIndexed(std::string_view name,
                                     std::string_view prefix,
                                     std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(name.size() - suffix.size()) != suffix) return std::nullopt;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  // Only the canonical "%06llu" spelling names the file readers open.
  if (digits.size() < 6 || digits.size() > 19 ||
      (digits.size() > 6 && digits[0] == '0')) {
    return std::nullopt;
  }
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

}  // namespace

std::string WalSegmentFileName(uint64_t index) {
  return StringPrintf("wal-%06llu.log",
                      static_cast<unsigned long long>(index));
}

std::string SnapshotFileName(uint64_t index) {
  return StringPrintf("snapshot-%06llu.bin",
                      static_cast<unsigned long long>(index));
}

std::optional<uint64_t> ParseWalSegmentFileName(std::string_view name) {
  return ParseIndexed(name, "wal-", ".log");
}

std::optional<uint64_t> ParseSnapshotFileName(std::string_view name) {
  return ParseIndexed(name, "snapshot-", ".bin");
}

}  // namespace lazyxml
