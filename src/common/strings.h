// Small string helpers shared across modules. Deliberately minimal: only
// what the library actually needs (no kitchen-sink StringUtil).

#ifndef LAZYXML_COMMON_STRINGS_H_
#define LAZYXML_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace lazyxml {

/// Joins `parts` with `sep`: Join({"0","1","2"}, ".") == "0.1.2".
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Joins integer ids with `sep`: JoinIds({0,1,2}, ".") == "0.1.2".
std::string JoinIds(const std::vector<uint64_t>& ids, std::string_view sep);

/// Splits on a single character; empty input yields an empty vector.
std::vector<std::string_view> Split(std::string_view s, char sep);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True iff `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses all of `token` as a base-10 uint64_t: no sign, no spaces, no
/// trailing characters, no overflow. `what` names the value in the
/// InvalidArgument otherwise.
Result<uint64_t> ParseU64(std::string_view token, const char* what);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Human-readable byte count: "12.3 KB", "1.8 MB".
std::string HumanBytes(uint64_t bytes);

/// Escapes XML-special characters (& < > " ') in character content.
std::string XmlEscape(std::string_view s);

}  // namespace lazyxml

#endif  // LAZYXML_COMMON_STRINGS_H_
