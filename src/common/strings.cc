#include "common/strings.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace lazyxml {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

Result<uint64_t> ParseU64(std::string_view token, const char* what) {
  uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument(std::string(what) + " is not a number: '" +
                                   std::string(token) + "'");
  }
  return v;
}

std::string JoinIds(const std::vector<uint64_t>& ids, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(std::to_string(ids[i]));
  }
  return out;
}

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  if (s.empty()) return out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string StringPrintf(const char* format, ...) {
  va_list ap;
  va_start(ap, format);
  va_list ap_copy;
  va_copy(ap_copy, ap);
  const int needed = std::vsnprintf(nullptr, 0, format, ap);
  va_end(ap);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, ap_copy);
  }
  va_end(ap_copy);
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  if (u == 0) return StringPrintf("%llu B", static_cast<unsigned long long>(bytes));
  return StringPrintf("%.1f %s", v, units[u]);
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace lazyxml
