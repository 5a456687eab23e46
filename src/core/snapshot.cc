#include "core/snapshot.h"

#include <map>

#include "common/file_io.h"
#include "common/serial.h"
#include "common/strings.h"

namespace lazyxml {

namespace {

constexpr char kMagic[] = "LZXMLSNP";
// v2 adds the sid counter after the mode byte (sid-exact restores, which
// WAL replay depends on); v1 files still load, deriving it as max(sid)+1.
// v3 appends a compact-index flag byte (u8, then an optional blob) after
// the tag-list entries. The compact index has since been removed: the
// byte is always written 0, and a file with the flag set (only a library
// caller that enabled the index could have written one) is NotSupported.
// v4 adds the element tag to every nesting-summary entry (the path
// summary attributes elements to root-to-tag paths through the summary
// chains); v1-v3 files still load, backfilling the tags from the
// segment's element records (entries with no surviving record are stale
// and get kNoEntryTag — they are never on a reachable ancestor chain).
constexpr uint32_t kVersion = 4;

void SerializeSegment(const SegmentNode& node, const ElementIndex& index,
                      ByteWriter* w) {
  w->PutU64(node.sid);
  w->PutU64(node.parent->sid);
  w->PutU64(node.gp);
  w->PutU64(node.l);
  w->PutU64(node.lp);
  w->PutU32(node.base_level);
  w->PutU64(node.gaps.size());
  for (const FrozenGap& g : node.gaps) {
    w->PutU64(g.begin);
    w->PutU64(g.end);
  }
  w->PutU32(static_cast<uint32_t>(node.distinct_tags.size()));
  for (TagId tid : node.distinct_tags) w->PutU32(tid);
  w->PutU64(node.summary.size());
  for (const NestingEntry& e : node.summary) {
    w->PutU64(e.start);
    w->PutU64(e.end);
    w->PutU32(e.parent);
    w->PutU32(e.level);
    w->PutU32(e.tid);
  }
  // Element records, grouped by tag.
  for (TagId tid : node.distinct_tags) {
    const ElementScan elems = index.GetScan(tid, node.sid);
    w->PutU64(elems->size());
    for (const LocalElement& e : *elems) {
      w->PutU64(e.start);
      w->PutU64(e.end);
      w->PutU32(e.level);
    }
  }
}

void SerializeSubtree(const SegmentNode& node, const ElementIndex& index,
                      ByteWriter* w) {
  SerializeSegment(node, index, w);
  for (const SegmentNode* c : node.children) {
    SerializeSubtree(*c, index, w);
  }
}

size_t CountSubtree(const SegmentNode& node) {
  size_t n = 1;
  for (const SegmentNode* c : node.children) n += CountSubtree(*c);
  return n;
}

}  // namespace

Result<std::string> SerializeDatabase(const LazyDatabase& db) {
  const UpdateLog& log = db.update_log();
  if (!log.frozen()) {
    return Status::InvalidArgument(
        "serialize requires a serviceable log; query or Freeze() first");
  }
  ByteWriter w;
  w.PutString(kMagic);
  w.PutU32(kVersion);
  w.PutU8(log.mode() == LogMode::kLazyDynamic ? 0 : 1);
  w.PutU64(log.next_sid());

  // Tag dictionary (dense ids, first-seen order).
  const TagDict& dict = db.tag_dict();
  w.PutU32(static_cast<uint32_t>(dict.size()));
  for (TagId t = 0; t < dict.size(); ++t) {
    w.PutString(dict.Name(t));
  }

  // ER-tree preorder (excluding the dummy root), with per-segment
  // element records.
  w.PutU64(log.super_document_length());
  size_t segments = 0;
  for (const SegmentNode* c : log.root()->children) {
    segments += CountSubtree(*c);
  }
  w.PutU64(segments);
  for (const SegmentNode* c : log.root()->children) {
    SerializeSubtree(*c, db.element_index(), &w);
  }

  // Tag-list entries.
  w.PutU64(log.tag_list().num_entries());
  log.tag_list().ForEachEntry([&](TagId tid, const TagListEntry& e) {
    w.PutU32(tid);
    w.PutU64(e.count);
    w.PutU32(static_cast<uint32_t>(e.path.size()));
    for (SegmentId sid : e.path) w.PutU64(sid);
    return true;
  });

  // The v3 compact-index flag: always 0 (no compact section follows).
  w.PutU8(0);
  return w.TakeBuffer();
}

Result<std::unique_ptr<LazyDatabase>> DeserializeDatabase(
    std::string_view data, const LazyDatabaseOptions& options) {
  ByteReader r(data);
  LAZYXML_ASSIGN_OR_RETURN(std::string magic, r.GetString());
  if (magic != kMagic) {
    return Status::Corruption("not a lazyxml snapshot (bad magic)");
  }
  LAZYXML_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version < 1 || version > kVersion) {
    return Status::NotSupported(
        StringPrintf("snapshot version %u not supported", version));
  }
  LAZYXML_ASSIGN_OR_RETURN(uint8_t mode, r.GetU8());
  if (mode > 1) return Status::Corruption("bad maintenance mode");
  uint64_t next_sid = 0;  // 0 = not stored (v1): derive as max(sid)+1
  if (version >= 2) {
    LAZYXML_ASSIGN_OR_RETURN(next_sid, r.GetU64());
  }

  LazyDatabaseOptions opts = options;
  opts.mode = mode == 0 ? LogMode::kLazyDynamic : LogMode::kLazyStatic;
  auto db = std::make_unique<LazyDatabase>(opts);
  UpdateLog& log = db->mutable_update_log();
  TagDict& dict = db->mutable_tag_dict();

  LAZYXML_ASSIGN_OR_RETURN(uint32_t num_tags, r.GetU32());
  for (uint32_t t = 0; t < num_tags; ++t) {
    LAZYXML_ASSIGN_OR_RETURN(std::string name, r.GetString());
    if (name.empty()) return Status::Corruption("empty tag name");
    if (dict.Intern(name) != t) {
      return Status::Corruption("tag ids are not dense in snapshot");
    }
  }

  LAZYXML_ASSIGN_OR_RETURN(uint64_t root_len, r.GetU64());
  log.RestoreRootLength(root_len);
  // Element records are collected across ALL segments and applied with
  // one bottom-up bulk load at the end — a restore fills a fresh index,
  // so there is nothing to merge with and the per-segment insert path
  // (descent per leaf run, node splits) is pure overhead.
  std::vector<ElementIndexRecord> all_records;
  LAZYXML_ASSIGN_OR_RETURN(uint64_t num_segments, r.GetU64());
  for (uint64_t s = 0; s < num_segments; ++s) {
    LAZYXML_ASSIGN_OR_RETURN(uint64_t sid, r.GetU64());
    LAZYXML_ASSIGN_OR_RETURN(uint64_t parent_sid, r.GetU64());
    LAZYXML_ASSIGN_OR_RETURN(uint64_t gp, r.GetU64());
    LAZYXML_ASSIGN_OR_RETURN(uint64_t l, r.GetU64());
    LAZYXML_ASSIGN_OR_RETURN(uint64_t lp, r.GetU64());
    LAZYXML_ASSIGN_OR_RETURN(uint32_t base_level, r.GetU32());
    LAZYXML_ASSIGN_OR_RETURN(
        SegmentNode * node,
        log.RestoreSegment(sid, parent_sid, gp, l, lp, base_level));
    LAZYXML_ASSIGN_OR_RETURN(uint64_t num_gaps, r.GetU64());
    for (uint64_t g = 0; g < num_gaps; ++g) {
      LAZYXML_ASSIGN_OR_RETURN(uint64_t begin, r.GetU64());
      LAZYXML_ASSIGN_OR_RETURN(uint64_t end, r.GetU64());
      if (begin >= end) return Status::Corruption("bad gap interval");
      node->AddGap(begin, end);
    }
    LAZYXML_ASSIGN_OR_RETURN(uint32_t num_dtags, r.GetU32());
    for (uint32_t t = 0; t < num_dtags; ++t) {
      LAZYXML_ASSIGN_OR_RETURN(uint32_t tid, r.GetU32());
      if (tid >= dict.size()) return Status::Corruption("bad tag id");
      node->distinct_tags.push_back(tid);
    }
    LAZYXML_ASSIGN_OR_RETURN(uint64_t num_summary, r.GetU64());
    if (num_summary > r.remaining() / 24) {
      return Status::Corruption("summary count exceeds snapshot size");
    }
    node->summary.reserve(num_summary);
    for (uint64_t i = 0; i < num_summary; ++i) {
      NestingEntry e;
      LAZYXML_ASSIGN_OR_RETURN(e.start, r.GetU64());
      LAZYXML_ASSIGN_OR_RETURN(e.end, r.GetU64());
      LAZYXML_ASSIGN_OR_RETURN(e.parent, r.GetU32());
      LAZYXML_ASSIGN_OR_RETURN(e.level, r.GetU32());
      if (version >= 4) {
        LAZYXML_ASSIGN_OR_RETURN(e.tid, r.GetU32());
        if (e.tid != kNoEntryTag && e.tid >= dict.size()) {
          return Status::Corruption("summary entry with unknown tag id");
        }
      }
      if (e.parent != kNoParentEntry && e.parent >= i) {
        return Status::Corruption("summary parent out of order");
      }
      node->summary.push_back(e);
    }
    const size_t seg_records_begin = all_records.size();
    for (TagId tid : node->distinct_tags) {
      LAZYXML_ASSIGN_OR_RETURN(uint64_t num_elems, r.GetU64());
      if (num_elems > r.remaining() / 20) {
        return Status::Corruption("element count exceeds snapshot size");
      }
      for (uint64_t i = 0; i < num_elems; ++i) {
        ElementIndexRecord rec;
        rec.tid = tid;
        rec.sid = sid;
        LAZYXML_ASSIGN_OR_RETURN(rec.start, r.GetU64());
        LAZYXML_ASSIGN_OR_RETURN(rec.end, r.GetU64());
        LAZYXML_ASSIGN_OR_RETURN(rec.level, r.GetU32());
        if (rec.start >= rec.end) {
          return Status::Corruption("bad element interval");
        }
        all_records.push_back(rec);
      }
    }
    if (version < 4 && !node->summary.empty()) {
      // Backfill the entry tags from the element records just read:
      // within one segment element starts are unique, so the start is
      // the join key. A start with no surviving record marks a stale
      // entry (its element was removed) — provably never on the
      // ancestor chain of a reachable offset, so kNoEntryTag is safe.
      std::map<uint64_t, TagId> tid_by_start;
      for (size_t i = seg_records_begin; i < all_records.size(); ++i) {
        tid_by_start[all_records[i].start] = all_records[i].tid;
      }
      for (NestingEntry& e : node->summary) {
        auto it = tid_by_start.find(e.start);
        e.tid = it != tid_by_start.end() ? it->second : kNoEntryTag;
      }
    }
  }
  LAZYXML_RETURN_NOT_OK(
      db->mutable_element_index().BuildFrom(std::move(all_records)));

  LAZYXML_ASSIGN_OR_RETURN(uint64_t num_entries, r.GetU64());
  for (uint64_t i = 0; i < num_entries; ++i) {
    LAZYXML_ASSIGN_OR_RETURN(uint32_t tid, r.GetU32());
    if (tid >= dict.size()) {
      return Status::Corruption("tag-list entry with unknown tag id");
    }
    LAZYXML_ASSIGN_OR_RETURN(uint64_t count, r.GetU64());
    LAZYXML_ASSIGN_OR_RETURN(uint32_t path_len, r.GetU32());
    if (path_len == 0) return Status::Corruption("empty tag-list path");
    if (static_cast<uint64_t>(path_len) > r.remaining() / 8) {
      return Status::Corruption("path length exceeds snapshot size");
    }
    std::vector<SegmentId> path;
    path.reserve(path_len);
    for (uint32_t p = 0; p < path_len; ++p) {
      LAZYXML_ASSIGN_OR_RETURN(uint64_t sid, r.GetU64());
      path.push_back(sid);
    }
    LAZYXML_RETURN_NOT_OK(
        log.tag_list()
            .AddEntry(tid, std::move(path), count, log)
            .WithContext("restoring tag-list"));
  }
  if (version >= 3) {
    LAZYXML_ASSIGN_OR_RETURN(uint8_t has_compact, r.GetU8());
    if (has_compact > 1) {
      return Status::Corruption("bad compact-index flag");
    }
    if (has_compact == 1) {
      return Status::NotSupported(
          "snapshot carries a compact element index, which this build "
          "removed; re-save it from a build that has the index");
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after snapshot");
  }
  if (next_sid != 0) {
    LAZYXML_RETURN_NOT_OK(log.RestoreNextSid(next_sid));
  }
  // Rebuild the path summary against the restored state (the mutable
  // accessor bumps staled the one built at construction). Restore runs
  // with exclusive ownership, so the rebuild is race-free here.
  LAZYXML_RETURN_NOT_OK(db->EnsurePathSummary().WithContext(
      "rebuilding path summary after restore"));
  LAZYXML_RETURN_NOT_OK(
      db->CheckInvariants().WithContext("snapshot failed validation"));
  return db;
}

Status SaveSnapshot(const LazyDatabase& db, const std::string& path) {
  LAZYXML_ASSIGN_OR_RETURN(std::string blob, SerializeDatabase(db));
  return WriteFileAtomic(path, blob).WithContext("saving snapshot");
}

Result<std::unique_ptr<LazyDatabase>> LoadSnapshot(
    const std::string& path, const LazyDatabaseOptions& options) {
  // A missing file is NotFound (caller may treat it as "start empty"); a
  // file that reads but does not decode is Corruption via Deserialize.
  auto blob = ReadFileToString(path);
  if (!blob.ok()) return blob.status();
  return DeserializeDatabase(blob.ValueOrDie(), options);
}

}  // namespace lazyxml
