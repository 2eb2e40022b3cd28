#pragma once
// Tree decompositions — the substrate of the paper's comparison point
// ([FMR+24] works on bounded TREEwidth) and of its §7 future-work
// direction (extending the O(log n) scheme from pathwidth to treewidth).
//
// Provides the rooted tree-decomposition structure with validation, width,
// conversion from path decompositions, and the Bodlaender-style balancing
// transformation: any depth-d decomposition of width w can be rebalanced to
// depth O(log n) at width <= 3w + 2 — the step that forces the Ω(log n)
// recursion depth (and hence the O(log² n) labels) in the prior scheme,
// and that the paper's bounded-DEPTH hierarchical decompositions avoid.

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "interval/interval.hpp"

namespace lanecert {

/// A rooted tree decomposition: bag per node, parent pointers (-1 = root).
class TreeDecomposition {
 public:
  TreeDecomposition() = default;
  TreeDecomposition(std::vector<std::vector<VertexId>> bags,
                    std::vector<int> parent)
      : bags_(std::move(bags)), parent_(std::move(parent)) {}

  [[nodiscard]] std::size_t numNodes() const { return bags_.size(); }
  [[nodiscard]] const std::vector<VertexId>& bag(std::size_t i) const {
    return bags_[i];
  }
  [[nodiscard]] int parent(std::size_t i) const { return parent_[i]; }

  /// max |bag| - 1 (-1 when empty).
  [[nodiscard]] int width() const;
  /// Number of nodes on the longest root-to-leaf path.
  [[nodiscard]] int depth() const;

  /// Checks the three tree-decomposition conditions against `g`:
  /// every vertex appears, every edge is inside some bag, and each vertex's
  /// occurrence set is connected in the tree.
  [[nodiscard]] bool isValidFor(const Graph& g) const;

  [[nodiscard]] std::string toString() const;

 private:
  std::vector<std::vector<VertexId>> bags_;
  std::vector<int> parent_;
};

/// A path decomposition, viewed as a path-shaped tree decomposition.
[[nodiscard]] TreeDecomposition fromPathDecomposition(const PathDecomposition& pd);

/// Balanced binary decomposition over a path decomposition's bag sequence:
/// node over bags [lo, hi] gets bag X_lo ∪ X_mid ∪ X_hi.  Depth
/// ceil(log2 s) + 1, width <= 3(w+1) - 1 (the [Bod89] bound specialized to
/// paths — exactly the transformation the prior O(log² n) scheme rests on).
[[nodiscard]] TreeDecomposition balancedFromPath(const PathDecomposition& pd);

/// A (non-optimal) tree decomposition of any graph: the path decomposition
/// of bestIntervalRepresentation(g, 18), viewed as a path-shaped tree
/// (treewidth <= pathwidth always).
[[nodiscard]] TreeDecomposition treeDecompositionOf(const Graph& g);

}  // namespace lanecert
