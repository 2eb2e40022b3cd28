#pragma once
// The "pointing to v" scheme of Proposition 2.2: O(log n)-bit edge labels
// certifying that a vertex with a given identifier exists, via a spanning
// tree rooted at it.
//
// Robustness note.  The paper's sketch labels each edge with
// min(dist(root,u), dist(root,w)); as literally stated, a non-tree edge
// between adjacent BFS levels makes an honest vertex see two edges with its
// parent's label.  We implement the standard robust variant: each TREE edge
// additionally names its child endpoint, so the parent pointer is
// unambiguous and the "depth decreases along parent pointers" soundness
// argument goes through locally.  Labels remain O(log n) bits.

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "pls/codec.hpp"

namespace lanecert {

/// Per-edge record of the pointer scheme.
struct PointerRecord {
  std::uint64_t rootId = 0;   ///< identifier of the target vertex
  bool treeEdge = false;      ///< whether this edge is in the spanning tree
  std::uint64_t childDepth = 0;  ///< tree edges: depth of the child endpoint
  std::uint64_t childId = 0;     ///< tree edges: identifier of the child

  void encodeTo(Encoder& enc) const;
  static PointerRecord decodeFrom(Decoder& dec);
  friend bool operator==(const PointerRecord&, const PointerRecord&) = default;
};

/// Honest prover: BFS spanning tree rooted at `target`; one record per edge.
/// Precondition: g connected.
[[nodiscard]] std::vector<PointerRecord> provePointer(const Graph& g,
                                                      const IdAssignment& ids,
                                                      VertexId target);

/// Local check at one vertex.  `expectedRoot`, when set, additionally pins
/// the root identifier (used when the surrounding certificate names it).
/// With no incident records the check degenerates to selfId == expectedRoot.
[[nodiscard]] bool checkPointerAt(std::uint64_t selfId,
                                  const std::vector<PointerRecord>& incident,
                                  std::optional<std::uint64_t> expectedRoot);

}  // namespace lanecert
