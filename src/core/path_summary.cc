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

void PathSummary::NoteInsertedFragment(std::span<const NestingEntry> entries,
                                       std::span<const uint32_t> node_of,
                                       uint32_t ctx) {
  // The edges into the nodes the fragment populates, from the pre-insert
  // counts. A top-level element lands under the existing element P
  // containing the splice point (on ctx); any other element's parent is
  // new too, and so is its whole subtree.
  for (size_t j = 0; j < entries.size(); ++j) {
    const uint32_t n = node_of[j];
    if (entries[j].parent == kNoParentEntry) {
      if (ctx == kRootNode) continue;
      if (nodes_[n].count == 0) {
        // No element on ctx had a child on n; now P has one.
        SetEdgeState(n, nodes_[ctx].count == 1 ? EdgeState::kStrong
                                               : EdgeState::kWeak);
      } else if (edge_state(n) == EdgeState::kWeak) {
        SetEdgeState(n, EdgeState::kUnknown);  // P may have been the gap
      }
      continue;
    }
    const uint32_t m = node_of[entries[j].parent];
    if (nodes_[m].count == 0) {
      // Every element on m is new: strong unless the check below finds
      // one without a child on n.
      SetEdgeState(n, EdgeState::kStrong);
    } else if (nodes_[n].count == 0) {
      SetEdgeState(n, EdgeState::kWeak);  // the old elements on m lack n
    }
  }
  // A new element holds its whole subtree: each child node of its node
  // that it has no child on is weak. In reverse preorder every entry's
  // children are visited before it, and marks_[c] == base + i then says
  // entry i has a child on node c (stamps of earlier calls are smaller).
  if (marks_.size() < nodes_.size()) marks_.resize(nodes_.size(), 0);
  const uint64_t base = next_mark_;
  next_mark_ += entries.size();
  for (size_t i = entries.size(); i-- > 0;) {
    for (uint32_t c : nodes_[node_of[i]].children) {
      if (marks_[c] != base + i) SetEdgeState(c, EdgeState::kWeak);
    }
    if (entries[i].parent != kNoParentEntry) {
      marks_[node_of[i]] = base + entries[i].parent;
    }
  }
}

void PathSummary::NoteRemovedElement(uint32_t node, bool parent_survives) {
  if (parent_survives && edge_state(node) == EdgeState::kStrong) {
    SetEdgeState(node, EdgeState::kUnknown);
  }
  for (uint32_t c : nodes_[node].children) {
    if (edge_state(c) == EdgeState::kWeak) {
      SetEdgeState(c, EdgeState::kUnknown);
    }
  }
}

void PathSummary::NoteSegmentRemoved(SegmentId sid,
                                     std::span<const uint32_t> top_nodes) {
  for (uint32_t n : top_nodes) NoteRemovedElement(n, true);
  for (uint32_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].seg_counts.count(sid) != 0) NoteRemovedElement(n, false);
  }
}

void PathSummary::ComputeStrongEdges(std::vector<EdgeLink> links) {
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  std::vector<uint64_t> parents(nodes_.size(), 0);
  for (const EdgeLink& l : links) ++parents[l.child_node];
  for (uint32_t c = 1; c < nodes_.size(); ++c) {
    const uint32_t m = nodes_[c].parent;
    SetEdgeState(c, m != kRootNode && parents[c] == nodes_[m].count
                        ? EdgeState::kStrong
                        : EdgeState::kWeak);
  }
}

std::vector<uint32_t> PathSummary::FalseStrongEdges(
    const PathSummary& exact) const {
  std::vector<uint32_t> out;
  // (node here, the same path's node in `exact` or kNoNode)
  std::vector<std::pair<uint32_t, uint32_t>> work{{kRootNode, kRootNode}};
  while (!work.empty()) {
    const auto [n, e] = work.back();
    work.pop_back();
    for (uint32_t c : nodes_[n].children) {
      const uint32_t ec = e == kNoNode ? kNoNode : exact.Find(e, nodes_[c].tag);
      if (edge_state(c) == EdgeState::kStrong && nodes_[n].count > 0 &&
          (ec == kNoNode || exact.edge_state(ec) != EdgeState::kStrong)) {
        out.push_back(c);
      }
      work.emplace_back(c, ec);
    }
  }
  return out;
}

std::string PathSummary::PathString(uint32_t node) const {
  std::vector<TagId> tags;
  for (uint32_t n = node; n != kRootNode && n != kNoNode; n = nodes_[n].parent) {
    tags.push_back(nodes_[n].tag);
  }
  std::string path;
  for (auto it = tags.rbegin(); it != tags.rend(); ++it) {
    if (!path.empty()) path += '/';
    path += StringPrintf("%u", *it);
  }
  return path;
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
