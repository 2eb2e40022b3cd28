#pragma once
// k-lane recursive graphs (Section 5.2-5.4): the five node types
// (V, E, P, B, T), Bridge-merge / Tree-merge, and the hierarchical
// decomposition of Proposition 5.6 with the depth bound of Observation 5.5.
//
// `buildHierarchy` consumes a construction sequence (Definition 5.1) and
// produces the T-node decomposition exactly as in the proof of Prop 5.6:
//   * V-insert(i) adds an E-node below the lowest tree node owning lane i;
//   * E-insert(i, j) creates a B-node whose two parts are V-nodes (when the
//     lane owners coincide with their LCA) or T-nodes wrapping the subtrees
//     hanging below the LCA (Cases 2.1-2.3);
//   * the final graph is one T-node over the remaining tree.
//
// Every root-to-leaf path of the result has at most 2w nodes, where w is
// the number of lanes (Observation 5.5); tests assert this bound.

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "lanewidth/lanewidth.hpp"

namespace lanecert {

/// A sparse lane -> vertex mapping for in-/out-terminals.
class TerminalMap {
 public:
  using Entry = std::pair<int, VertexId>;

  /// Vertex of `lane`, or kNoVertex.
  [[nodiscard]] VertexId at(int lane) const;
  /// Sets (or overwrites) the terminal of `lane`.
  void set(int lane, VertexId v);
  /// Bulk construction from entries ALREADY sorted ascending by lane with
  /// distinct lanes — the exact shape entries() returns.  The snapshot
  /// loader rebuilds 10^5 maps per plan; adopting the validated entries
  /// skips set()'s per-insert scan-and-sort.
  [[nodiscard]] static TerminalMap fromSortedEntries(std::vector<Entry> entries);
  /// All (lane, vertex) entries, sorted by lane.
  [[nodiscard]] std::span<const Entry> entries() const {
    if (!heap_.empty()) return heap_;
    return {inline_.data(), inlineSize_};
  }
  friend bool operator==(const TerminalMap& a, const TerminalMap& b) {
    return std::ranges::equal(a.entries(), b.entries());
  }

 private:
  /// Most hierarchy nodes span few lanes (96 % of the 19k nodes of an
  /// rbpw2(4096) plan span at most four), so up to kInline entries live in
  /// the map itself.  Each such node then allocates, and on destruction
  /// frees, two heap blocks fewer, which keeps dropping a plan cheap next to
  /// building it.
  static constexpr std::size_t kInline = 4;
  std::array<Entry, kInline> inline_{};
  std::size_t inlineSize_ = 0;
  std::vector<Entry> heap_;  ///< every entry, once there are > kInline
};

/// One node of a hierarchical decomposition.
struct HierNode {
  enum class Type { kV, kE, kP, kB, kT };
  Type type = Type::kV;
  std::vector<int> lanes;  ///< T(G), sorted lane indices
  TerminalMap inTerm;      ///< τ_in per lane
  TerminalMap outTerm;     ///< τ_out per lane

  int parent = -1;            ///< parent node in the hierarchy H (-1 for root)
  std::vector<int> children;  ///< children in H

  // --- type-specific payload ---
  /// V-node: {u}. E-node: edge u(in-side) -- v(out-side). B-node: bridge
  /// edge u -- v where u is in children[0] and v in children[1].
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
  int laneI = -1;  ///< E-node: its lane. B-node: lane of u's side.
  int laneJ = -1;  ///< B-node: lane of v's side.
  /// P-node: the path vertices in lane order (vertex t is lane t's terminal).
  std::vector<VertexId> pathVertices;
  /// T-node: Tree-merge structure over `children`: treeParentPos[c] is the
  /// position (in `children`) of child c's Tree-merge parent, or -1 for the
  /// tree root (which is children[rootChildPos]).
  std::vector<int> treeParentPos;
  int rootChildPos = -1;
};

/// An immutable hierarchical decomposition (tree of HierNodes).
class Hierarchy {
 public:
  /// Empty decomposition (root() == -1); assignable, so plan structs that
  /// are filled stage-by-stage can default-construct one.
  Hierarchy() = default;
  Hierarchy(std::vector<HierNode> nodes, int root)
      : nodes_(std::move(nodes)), root_(root) {}

  [[nodiscard]] int root() const { return root_; }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const HierNode& node(int id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  /// All nodes, indexed by id (children precede parents).
  [[nodiscard]] std::span<const HierNode> nodes() const { return nodes_; }

  /// Maximum number of nodes on a root-to-leaf path (Observation 5.5
  /// bounds this by 2w).
  [[nodiscard]] int depth() const;

  /// All vertices of the subgraph associated with node `id` (sorted).
  [[nodiscard]] std::vector<VertexId> materializeVertices(int id) const;
  /// All edges (as endpoint pairs, u<v) owned by `id`'s subtree (sorted).
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> materializeEdges(
      int id) const;

  /// Human-readable tree dump (one line per node) for debugging/examples.
  [[nodiscard]] std::string toString() const;

 private:
  std::vector<HierNode> nodes_;
  int root_ = -1;
};

/// Output of Proposition 5.6: the decomposition, the replayed completion
/// graph, and the owner node of every edge (the E/P/B-node that introduced
/// it).
struct HierarchyResult {
  Hierarchy hierarchy;
  Graph graph;                    ///< replayed completion graph
  std::vector<int> edgeOwner;     ///< per EdgeId: owning node id
  std::vector<VertexId> designated;  ///< final designated vertex per lane
};

/// Builds the Prop 5.6 hierarchical decomposition of a construction
/// sequence.  Throws std::invalid_argument on malformed sequences (same
/// validation as replayConstruction).
[[nodiscard]] HierarchyResult buildHierarchy(const ConstructionSequence& seq);

}  // namespace lanecert
