#include "xml/parser.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/metrics.h"
#include "xml/scanner.h"

namespace lazyxml {

namespace {

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return false;
  }
  return true;
}

}  // namespace

Result<ParsedFragment> ParseFragment(std::string_view text, TagDict* dict,
                                     const ParseOptions& options) {
  LAZYXML_METRIC_COUNTER(fragments_counter, "xml.parse.fragments");
  LAZYXML_METRIC_COUNTER(bytes_counter, "xml.parse.bytes");
  LAZYXML_METRIC_COUNTER(elements_counter, "xml.parse.elements");
  LAZYXML_METRIC_COUNTER(errors_counter, "xml.parse.errors");
  if (dict == nullptr) {
    return Status::InvalidArgument("ParseFragment: null dictionary");
  }
  fragments_counter.Increment();
  bytes_counter.Add(text.size());
  if (options.max_document_bytes != 0 &&
      text.size() > options.max_document_bytes) {
    errors_counter.Increment();
    return Status::InvalidArgument(
        StringPrintf("document of %zu bytes exceeds the %llu-byte limit",
                     text.size(),
                     static_cast<unsigned long long>(
                         options.max_document_bytes)));
  }
  ParsedFragment out;
  // Count every element the parse produced even when a later token makes
  // the fragment fail: errors_counter disambiguates, and partial counts
  // are what make "bytes parsed per error" a useful ratio. A successful
  // parse counts explicitly before `return out;` moves the records away;
  // the destructor counts the partial records of every failed return.
  struct ElementTally {
    obs::Counter& elements;
    obs::Counter& errors;
    const ParsedFragment& frag;
    bool ok = false;
    void Succeed() {
      elements.Add(frag.records.size());
      ok = true;
    }
    ~ElementTally() {
      if (ok) return;
      elements.Add(frag.records.size());
      errors.Increment();
    }
  } tally{elements_counter, errors_counter, out};
  XmlScanner scanner(text, options.base_offset);

  // Open-element stack: index into out.records plus the tag name bytes for
  // the end-tag match (names alias `text`, which outlives the parse).
  struct Open {
    size_t record_index;
    std::string_view name;
  };
  std::vector<Open> stack;

  for (;;) {
    LAZYXML_ASSIGN_OR_RETURN(XmlToken tok, scanner.Next());
    if (tok.kind == XmlTokenKind::kEndOfInput) break;
    switch (tok.kind) {
      case XmlTokenKind::kStartTag:
      case XmlTokenKind::kEmptyTag: {
        if (stack.size() >= options.max_depth) {
          return Status::ParseError(
              StringPrintf("maximum depth %u exceeded", options.max_depth));
        }
        if (options.max_name_bytes != 0 &&
            tok.name.size() > options.max_name_bytes) {
          return Status::InvalidArgument(StringPrintf(
              "tag name of %zu bytes exceeds the %llu-byte limit",
              tok.name.size(),
              static_cast<unsigned long long>(options.max_name_bytes)));
        }
        // The token spans "<name ...>" / "<name .../>"; everything past
        // the name besides the brackets is the (skipped) attribute text.
        const uint64_t token_bytes = tok.end - tok.begin;
        const uint64_t fixed_bytes =
            tok.name.size() + (tok.kind == XmlTokenKind::kEmptyTag ? 3 : 2);
        const uint64_t attr_bytes =
            token_bytes > fixed_bytes ? token_bytes - fixed_bytes : 0;
        if (options.max_tag_attr_bytes != 0 &&
            attr_bytes > options.max_tag_attr_bytes) {
          return Status::InvalidArgument(StringPrintf(
              "attribute section of %llu bytes exceeds the %llu-byte limit",
              static_cast<unsigned long long>(attr_bytes),
              static_cast<unsigned long long>(options.max_tag_attr_bytes)));
        }
        ElementRecord rec;
        rec.tid = dict->Intern(tok.name);
        rec.start = tok.begin;
        rec.level =
            options.base_level + static_cast<uint32_t>(stack.size()) + 1;
        out.max_level = std::max(out.max_level, rec.level);
        if (stack.empty()) {
          ++out.root_count;
          if (options.require_single_root && out.root_count > 1) {
            return Status::ParseError("multiple top-level elements");
          }
        }
        out.records.push_back(rec);
        if (tok.kind == XmlTokenKind::kEmptyTag) {
          out.records.back().end = tok.end;
        } else {
          stack.push_back(Open{out.records.size() - 1, tok.name});
        }
        break;
      }
      case XmlTokenKind::kEndTag: {
        if (options.max_name_bytes != 0 &&
            tok.name.size() > options.max_name_bytes) {
          return Status::InvalidArgument(StringPrintf(
              "tag name of %zu bytes exceeds the %llu-byte limit",
              tok.name.size(),
              static_cast<unsigned long long>(options.max_name_bytes)));
        }
        if (stack.empty()) {
          return Status::ParseError(
              StringPrintf("unmatched end tag </%.*s>",
                           static_cast<int>(tok.name.size()),
                           tok.name.data()));
        }
        if (stack.back().name != tok.name) {
          return Status::ParseError(StringPrintf(
              "mismatched end tag: expected </%.*s>, found </%.*s>",
              static_cast<int>(stack.back().name.size()),
              stack.back().name.data(), static_cast<int>(tok.name.size()),
              tok.name.data()));
        }
        out.records[stack.back().record_index].end = tok.end;
        stack.pop_back();
        break;
      }
      case XmlTokenKind::kText: {
        if (stack.empty() && !options.allow_top_level_text) {
          const uint64_t local_begin = tok.begin - options.base_offset;
          const std::string_view content =
              text.substr(static_cast<size_t>(local_begin),
                          static_cast<size_t>(tok.end - tok.begin));
          if (!IsAllWhitespace(content)) {
            return Status::ParseError("character data outside any element");
          }
        }
        break;
      }
      case XmlTokenKind::kComment:
      case XmlTokenKind::kProcessing:
      case XmlTokenKind::kDoctype:
      case XmlTokenKind::kCData:
        break;  // Structure-irrelevant; positions don't index into these.
      case XmlTokenKind::kEndOfInput:
        break;  // unreachable
    }
  }
  if (!stack.empty()) {
    return Status::ParseError(
        StringPrintf("%zu unclosed element(s); first is <%.*s>", stack.size(),
                     static_cast<int>(stack.back().name.size()),
                     stack.back().name.data()));
  }

  // Records were appended in start-tag order == ascending start offset ==
  // document order; no sort needed. Collect the distinct tags.
  out.distinct_tags.reserve(8);
  for (const ElementRecord& r : out.records) out.distinct_tags.push_back(r.tid);
  std::sort(out.distinct_tags.begin(), out.distinct_tags.end());
  out.distinct_tags.erase(
      std::unique(out.distinct_tags.begin(), out.distinct_tags.end()),
      out.distinct_tags.end());
  tally.Succeed();
  return out;
}

bool IsWellFormedDocument(std::string_view text) {
  TagDict dict;
  ParseOptions opts;
  opts.require_single_root = true;
  return ParseFragment(text, &dict, opts).ok();
}

}  // namespace lazyxml
