#pragma once
// Structural validation of hierarchical decompositions: checks every
// invariant claimed in Section 5 (node-type shapes, Bridge-merge lane
// disjointness, Tree-merge gluing and lane-nesting conditions, terminal
// consistency, per-node connectivity, edge ownership, and the depth bound
// of Observation 5.5).  Returns human-readable violations; empty == valid.

#include <string>
#include <vector>

#include "klane/hierarchy.hpp"

namespace lanecert {

/// Full structural audit of a decomposition against its graph.
/// `numLanes` is the w used to check depth() <= 2w.  Per-node violations
/// are listed in node order.
[[nodiscard]] std::vector<std::string> validateHierarchy(
    const HierarchyResult& result, int numLanes);

/// For a T-node, the out-terminals of Tree-merge(T_{child}) for every child
/// position: lane -> out-terminal of the lowest lane-owning node in the
/// child's Tree-merge subtree.  (The in-terminals and lane set of
/// Tree-merge(T_{child}) equal the child's own; see Lemma 6.5.)
[[nodiscard]] std::vector<TerminalMap> subtreeOutTerminals(
    const Hierarchy& h, int tNodeId);

}  // namespace lanecert
