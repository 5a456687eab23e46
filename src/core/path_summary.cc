#include "core/path_summary.h"

#include <algorithm>

#include "common/strings.h"

namespace lazyxml {

PathSummary::PathSummary() {
  nodes_.push_back(Node{});  // kRootNode: the empty path
}

uint32_t PathSummary::Extend(uint32_t node, TagId tid) {
  for (uint32_t c : nodes_[node].children) {
    if (nodes_[c].tag == tid) return c;
  }
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  Node n;
  n.tag = tid;
  n.parent = node;
  n.depth = nodes_[node].depth + 1;
  nodes_[node].children.push_back(id);
  nodes_.push_back(std::move(n));
  if (postings_.size() <= tid) postings_.resize(tid + 1);
  postings_[tid].push_back(id);
  return id;
}

uint32_t PathSummary::Find(uint32_t node, TagId tid) const {
  for (uint32_t c : nodes_[node].children) {
    if (nodes_[c].tag == tid) return c;
  }
  return kNoNode;
}

std::span<const uint32_t> PathSummary::Postings(TagId tid) const {
  if (tid >= postings_.size()) return {};
  return postings_[tid];
}

void PathSummary::AddElement(uint32_t node, SegmentId sid) {
  ++nodes_[node].count;
  ++nodes_[node].seg_counts[sid];
  ++total_count_;
}

Status PathSummary::RemoveElement(uint32_t node, SegmentId sid) {
  Node& n = nodes_[node];
  auto it = n.seg_counts.find(sid);
  if (it == n.seg_counts.end() || n.count == 0) {
    return Status::Internal("path summary underflow: removing an element "
                            "never attributed to this node/segment");
  }
  if (--it->second == 0) n.seg_counts.erase(it);
  --n.count;
  --total_count_;
  return Status::OK();
}

void PathSummary::RemoveSegmentAll(SegmentId sid) {
  // Whole-segment death: subtract the segment's slice from every node.
  // Walked over all nodes rather than via a reverse index — removals are
  // already O(elements of the segment) in the index and tag-list, and
  // summaries are small (one node per distinct path, not per element).
  for (Node& n : nodes_) {
    auto it = n.seg_counts.find(sid);
    if (it == n.seg_counts.end()) continue;
    n.count -= it->second;
    total_count_ -= it->second;
    n.seg_counts.erase(it);
  }
  DropSegmentContext(sid);
}

uint32_t PathSummary::SegmentContext(SegmentId sid) const {
  auto it = segment_ctx_.find(sid);
  return it == segment_ctx_.end() ? kNoNode : it->second;
}

void PathSummary::SetSegmentContext(SegmentId sid, uint32_t node) {
  segment_ctx_[sid] = node;
}

void PathSummary::DropSegmentContext(SegmentId sid) {
  segment_ctx_.erase(sid);
}

uint64_t PathSummary::TagCount(TagId tid) const {
  uint64_t total = 0;
  for (uint32_t n : Postings(tid)) total += nodes_[n].count;
  return total;
}

JoinPrune PathSummary::ComputeJoinPrune(TagId ancestor, TagId descendant,
                                        bool parent_child) const {
  JoinPrune p;
  p.usable = true;
  for (uint32_t m : Postings(descendant)) {
    if (nodes_[m].count == 0) continue;
    // A descendant node qualifies iff its path has the ancestor tag at a
    // proper prefix (direct parent for the / axis). Every live element
    // on the path then has a live ancestor element at that position, and
    // that ancestor's segment is one of the prefix node's seg_counts —
    // so the union below is exactly the set of segments able to
    // contribute a side of a pair (docs/PATH_SUMMARY.md).
    bool qualifies = false;
    if (parent_child) {
      const uint32_t par = nodes_[m].parent;
      if (par != kNoNode && nodes_[par].tag == ancestor) {
        qualifies = true;
        for (const auto& [sid, c] : nodes_[par].seg_counts) {
          p.ancestor_sids.insert(sid);
        }
      }
    } else {
      for (uint32_t a = nodes_[m].parent; a != kNoNode && a != kRootNode;
           a = nodes_[a].parent) {
        if (nodes_[a].tag != ancestor) continue;
        qualifies = true;
        for (const auto& [sid, c] : nodes_[a].seg_counts) {
          p.ancestor_sids.insert(sid);
        }
      }
    }
    if (!qualifies) continue;
    p.qualifying_descendants += nodes_[m].count;
    for (const auto& [sid, c] : nodes_[m].seg_counts) {
      p.descendant_sids.insert(sid);
    }
  }
  p.provably_empty = p.descendant_sids.empty();
  return p;
}

size_t PathSummary::MemoryBytes() const {
  size_t bytes = sizeof(PathSummary) + nodes_.capacity() * sizeof(Node);
  for (const Node& n : nodes_) {
    bytes += n.children.capacity() * sizeof(uint32_t);
    // Map node: key/value plus red-black bookkeeping (~4 words).
    bytes += n.seg_counts.size() *
             (sizeof(SegmentId) + sizeof(uint64_t) + 4 * sizeof(void*));
  }
  for (const auto& list : postings_) {
    bytes += list.capacity() * sizeof(uint32_t);
  }
  bytes += segment_ctx_.size() *
           (sizeof(SegmentId) + sizeof(uint32_t) + 2 * sizeof(void*));
  return bytes;
}

std::vector<std::string> PathSummary::CanonicalLines() const {
  std::vector<std::string> lines;
  // Iterative DFS carrying the path string; node order within the tree
  // does not matter because the lines are sorted at the end.
  std::vector<std::pair<uint32_t, std::string>> work;
  work.emplace_back(kRootNode, "");
  while (!work.empty()) {
    auto [id, path] = std::move(work.back());
    work.pop_back();
    const Node& n = nodes_[id];
    if (id != kRootNode && n.count > 0) {
      std::string line = path;
      line += StringPrintf("=%llu@", static_cast<unsigned long long>(n.count));
      bool first = true;
      for (const auto& [sid, c] : n.seg_counts) {
        line += StringPrintf(first ? "%llu:%llu" : ",%llu:%llu",
                             static_cast<unsigned long long>(sid),
                             static_cast<unsigned long long>(c));
        first = false;
      }
      lines.push_back(std::move(line));
    }
    for (uint32_t c : n.children) {
      std::string child_path = path;
      if (id != kRootNode) child_path += '/';
      child_path += StringPrintf("%u", nodes_[c].tag);
      work.emplace_back(c, std::move(child_path));
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

}  // namespace lazyxml
