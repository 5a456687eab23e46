// PathSummary: the document's DataGuide — one node per distinct
// root-to-tag path that occurs in the super document, annotated with the
// number of live elements on that path and the segments that hold them
// (Arion et al., "Path Summaries and Path Partitioning in Modern XML
// Databases", PAPERS.md).
//
// The summary is a pure data structure: it knows nothing about the
// update log or the element index. LazyDatabase owns one, builds it from
// a live traversal (LazyDatabase::BuildPathSummary) and maintains it
// incrementally through every lazy update path, stamping it with the
// mutation epoch so a stale summary can never be consulted (see
// docs/PATH_SUMMARY.md). The structural join planner interrogates it
// through ComputeJoinPrune: a join whose descendant tag reaches no
// summary node under the ancestor tag is provably empty and is answered
// in O(summary) without touching a tag list; otherwise the qualifying
// segment sets narrow the tag-list scans before the Lazy-Join kernel
// starts — with output byte-identical to the unpruned join (the
// soundness argument lives in docs/PATH_SUMMARY.md).
//
// Attribution invariant the maintenance relies on: an element's
// root-to-tag path is immutable for its lifetime. Splice insertions
// never re-parent existing elements (a new segment's text nests strictly
// inside the innermost element containing the splice point) and
// removals always take whole elements together with everything inside
// them, so the ancestor tag chain recorded at insertion time — the
// segment's NestingEntry chain plus the segment's splice-point context —
// stays the truth until the element dies.
//
// Strong edges. Each node c also records what is known about the edge
// parent(c) -> c: `strong` when every live element on parent(c) has a
// child on c (Arion et al.), `weak` when some does not or the question
// is not worth asking again, `unknown` otherwise. A state never claims
// `strong` falsely; `weak` and `unknown` are only ever conservative.
// Updates keep the states (NoteInsertedFragment, NoteRemovedElement,
// NoteSegmentRemoved), BuildPathSummary computes them exactly
// (ComputeStrongEdges), and queries re-prove `unknown` edges with one
// join and record the outcome (SetEdgeState, which readers call under a
// shared lock). Edges out of the synthetic root are never `strong`.

#ifndef LAZYXML_CORE_PATH_SUMMARY_H_
#define LAZYXML_CORE_PATH_SUMMARY_H_

#include <atomic>
#include <compare>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/segment.h"
#include "xml/tag_dict.h"

namespace lazyxml {

/// What the summary proves about one A//D (or A/D) structural join
/// before the kernel starts.
struct JoinPrune {
  /// True when a fresh summary was consulted (false => no claims below).
  bool usable = false;
  /// No live descendant-tag element has a qualifying ancestor-tag
  /// element: the join is empty, no tag list needs to be touched.
  bool provably_empty = false;
  /// Segments that can contribute ancestor-side (resp. descendant-side)
  /// elements to the join. Tag-list entries outside these sets are
  /// dropped before the kernel scans anything; completeness is proven in
  /// docs/PATH_SUMMARY.md.
  std::unordered_set<SegmentId> ancestor_sids;
  std::unordered_set<SegmentId> descendant_sids;
  /// Live descendant-tag elements on qualifying paths — the summary's
  /// selectivity estimate for this edge (twig planners order by it).
  uint64_t qualifying_descendants = 0;
};

/// What the summary knows about the edge parent(c) -> c of a node c.
enum class EdgeState : uint8_t {
  kUnknown = 0,
  /// Not known to be strong, and not to be re-proved until an update
  /// makes it `unknown`.
  kWeak = 1,
  /// Every live element on parent(c) has a child on c.
  kStrong = 2,
};

/// One live parent-child link, the input of ComputeStrongEdges: the
/// child element's summary node and its parent element's identity.
struct EdgeLink {
  uint32_t child_node;
  SegmentId parent_sid;
  uint32_t parent_entry;

  auto operator<=>(const EdgeLink&) const = default;
};

/// The path summary (DataGuide).
class PathSummary {
 public:
  /// Node index of the synthetic root (the empty path).
  static constexpr uint32_t kRootNode = 0;
  /// "No node" sentinel (Find miss, root's parent).
  static constexpr uint32_t kNoNode = 0xffffffffu;

  PathSummary();

  // -- Structure -------------------------------------------------------------

  /// The child of `node` with tag `tid`, created (count 0) if absent.
  uint32_t Extend(uint32_t node, TagId tid);

  /// The child of `node` with tag `tid`, or kNoNode.
  uint32_t Find(uint32_t node, TagId tid) const;

  size_t num_nodes() const { return nodes_.size(); }
  TagId tag(uint32_t node) const { return nodes_[node].tag; }
  uint32_t parent(uint32_t node) const { return nodes_[node].parent; }
  uint32_t depth(uint32_t node) const { return nodes_[node].depth; }
  uint64_t count(uint32_t node) const { return nodes_[node].count; }
  const std::vector<uint32_t>& children(uint32_t node) const {
    return nodes_[node].children;
  }
  /// Per-segment live-element counts of `node` (ascending sid).
  const std::map<SegmentId, uint64_t>& seg_counts(uint32_t node) const {
    return nodes_[node].seg_counts;
  }

  /// Summary nodes whose tag is `tid` (creation order; includes nodes
  /// whose count has dropped to zero).
  std::span<const uint32_t> Postings(TagId tid) const;

  // -- Element accounting ----------------------------------------------------

  void AddElement(uint32_t node, SegmentId sid);

  /// Internal error on underflow (an element removed twice / never added
  /// — the I-SUMMARY scrubber would flag the same divergence).
  Status RemoveElement(uint32_t node, SegmentId sid);

  /// Drops every count attributed to `sid` (whole-segment removal).
  void RemoveSegmentAll(SegmentId sid);

  // -- Strong edges ----------------------------------------------------------

  /// State of the edge parent(node) -> node.
  EdgeState edge_state(uint32_t node) const {
    return static_cast<EdgeState>(
        nodes_[node].edge.load(std::memory_order_relaxed));
  }

  /// Records a proof about the edge parent(node) -> node. Const because
  /// queries call it under a shared lock: the state is a relaxed atomic,
  /// and every value a reader stores is true of the state it reads.
  void SetEdgeState(uint32_t node, EdgeState state) const {
    nodes_[node].edge.store(static_cast<uint8_t>(state),
                            std::memory_order_relaxed);
  }

  /// Edge upkeep for one inserted segment, called after its nodes are
  /// extended and BEFORE its elements are counted (the rules read the
  /// pre-insert counts). `entries` is the segment's nesting summary (the
  /// whole subtree of each new element), `node_of[i]` entry i's node and
  /// `ctx` the node of the element containing the splice point.
  void NoteInsertedFragment(std::span<const NestingEntry> entries,
                            std::span<const uint32_t> node_of, uint32_t ctx);

  /// Edge upkeep for one removed element on `node`: a `strong` node turns
  /// `unknown` when the element's parent survives, and the node's `weak`
  /// children turn `unknown` (the element may have been the one without).
  void NoteRemovedElement(uint32_t node, bool parent_survives);

  /// Edge upkeep for a whole removed segment, called BEFORE
  /// RemoveSegmentAll: NoteRemovedElement for each node holding its
  /// elements, `top_nodes` (its top-level elements' nodes) being the only
  /// ones whose parent may survive.
  void NoteSegmentRemoved(SegmentId sid, std::span<const uint32_t> top_nodes);

  /// Sets every state exactly from the live parent-child `links` (any
  /// order, duplicates allowed): a node is `strong` iff its links name
  /// as many distinct parents as its parent node holds live elements.
  /// Edges out of the root are `weak`.
  void ComputeStrongEdges(std::vector<EdgeLink> links);

  /// Nodes this summary marks `strong` while `exact` (same paths, exact
  /// states, e.g. a fresh rebuild) does not, skipping edges whose parent
  /// holds no live element (vacuously strong). The I-SUMMARY scrubber
  /// reports each one.
  std::vector<uint32_t> FalseStrongEdges(const PathSummary& exact) const;

  /// The node's root path as "tid/tid/..." (the CanonicalLines form).
  std::string PathString(uint32_t node) const;

  // -- Segment splice contexts -----------------------------------------------

  /// The summary node of the innermost element containing the segment's
  /// splice point — the prefix every element path of the segment hangs
  /// off. kNoNode when the segment is unknown.
  uint32_t SegmentContext(SegmentId sid) const;
  void SetSegmentContext(SegmentId sid, uint32_t node);
  void DropSegmentContext(SegmentId sid);

  // -- Planning --------------------------------------------------------------

  /// Live elements with tag `tid` (sum over the tag's posting nodes).
  uint64_t TagCount(TagId tid) const;

  /// Total live elements.
  uint64_t total_count() const { return total_count_; }

  /// Prunes the structural join ancestor//descendant (or / when
  /// `parent_child`). O(postings(descendant) * depth).
  JoinPrune ComputeJoinPrune(TagId ancestor, TagId descendant,
                             bool parent_child) const;

  // -- Introspection ---------------------------------------------------------

  size_t MemoryBytes() const;

  /// Canonical deep-equality form: one sorted line per count>0 node,
  /// "tid/tid/...=count@sid:n,sid:n". Two summaries describe the same
  /// live document iff their lines match — zero-count nodes (paths that
  /// existed once) are deliberately excluded, so an incrementally
  /// maintained summary compares equal to a freshly built one. Used by
  /// the I-SUMMARY scrubber and the property tests.
  std::vector<std::string> CanonicalLines() const;

 private:
  /// An EdgeState cell. Copies (snapshot views, vector growth under the
  /// exclusive lock) read it once.
  struct EdgeCell : std::atomic<uint8_t> {
    EdgeCell() : std::atomic<uint8_t>(0) {}
    EdgeCell(const EdgeCell& o)
        : std::atomic<uint8_t>(o.load(std::memory_order_relaxed)) {}
    EdgeCell& operator=(const EdgeCell& o) {
      store(o.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };

  struct Node {
    TagId tag = kInvalidTagId;
    uint32_t parent = kNoNode;
    uint32_t depth = 0;
    /// State of the edge parent -> this node (EdgeState).
    mutable EdgeCell edge;
    uint64_t count = 0;
    std::vector<uint32_t> children;
    std::map<SegmentId, uint64_t> seg_counts;
  };

  std::vector<Node> nodes_;
  /// tid -> summary nodes with that tag.
  std::vector<std::vector<uint32_t>> postings_;
  /// sid -> splice-point context node.
  std::unordered_map<SegmentId, uint32_t> segment_ctx_;
  uint64_t total_count_ = 0;
  /// NoteInsertedFragment's scratch: per node, the stamp of the last new
  /// element seen with a child on it.
  std::vector<uint64_t> marks_;
  uint64_t next_mark_ = 1;
};

}  // namespace lazyxml

#endif  // LAZYXML_CORE_PATH_SUMMARY_H_
