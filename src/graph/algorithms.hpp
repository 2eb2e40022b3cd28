#pragma once
// Classic graph algorithms needed by the certification pipeline:
// traversal, connectivity, spanning trees, shortest paths, bipartiteness,
// degeneracy orientations (Prop 2.1), and small helpers used in tests.

#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace lanecert {

/// BFS distances from `source`; unreachable vertices get -1.
[[nodiscard]] std::vector<int> bfsDistances(const Graph& g, VertexId source);

/// Connected-component labels in [0, numComponents); also returns the count.
struct Components {
  std::vector<int> label;  ///< component index per vertex
  int count = 0;           ///< number of components
};
[[nodiscard]] Components connectedComponents(const Graph& g);

/// True if the graph is connected (the empty graph counts as connected).
[[nodiscard]] bool isConnected(const Graph& g);

/// A rooted spanning tree given by parent pointers.
/// parentVertex[root] == kNoVertex and parentEdge[root] == kNoEdge.
struct SpanningTree {
  VertexId root = kNoVertex;
  std::vector<VertexId> parentVertex;
  std::vector<EdgeId> parentEdge;
  std::vector<int> depth;  ///< distance to root along tree edges
};

/// BFS spanning tree rooted at `root`. Precondition: g is connected.
[[nodiscard]] SpanningTree bfsTree(const Graph& g, VertexId root);

/// Any simple path from `s` to `t` as a vertex sequence (BFS, so in fact a
/// shortest path). Empty if unreachable; {s} if s == t.
[[nodiscard]] std::vector<VertexId> shortestPath(const Graph& g, VertexId s,
                                                 VertexId t);

/// Edge ids along a vertex path; precondition: consecutive vertices adjacent.
[[nodiscard]] std::vector<EdgeId> pathEdges(const Graph& g,
                                            const std::vector<VertexId>& path);

/// Proper 2-coloring if one exists (graph bipartite), else nullopt.
[[nodiscard]] std::optional<std::vector<int>> bipartition(const Graph& g);

/// A d-degenerate edge orientation: `headOf[e]` is the endpoint the edge
/// points TO, chosen so that every vertex has outdegree <= degeneracy.
/// Computed by repeatedly removing a minimum-degree vertex; edges incident
/// to the removed vertex are oriented OUT of it. Returns the degeneracy d.
struct DegeneracyOrientation {
  int degeneracy = 0;
  std::vector<VertexId> headOf;  ///< per edge: the endpoint it points to
  std::vector<VertexId> removalOrder;
};
[[nodiscard]] DegeneracyOrientation degeneracyOrient(const Graph& g);

/// True if the graph contains no cycle.
[[nodiscard]] bool isForest(const Graph& g);

/// Number of triangles (3-cliques); brute force over edges, for tests.
[[nodiscard]] long long countTriangles(const Graph& g);

/// Maximum degree (0 for the empty graph).
[[nodiscard]] int maxDegree(const Graph& g);

/// True if the graph is a simple path on all its vertices (n>=1).
[[nodiscard]] bool isPathGraph(const Graph& g);

/// True if the graph is a single simple cycle on all its vertices (n>=3).
[[nodiscard]] bool isCycleGraph(const Graph& g);

}  // namespace lanecert
