#pragma once
// Pathwidth computation.
//
// We use the classical identity pathwidth(G) = vertex separation number
// vsn(G): the minimum over vertex orderings of the maximum, over prefixes,
// of the number of prefix vertices with a neighbor outside the prefix.
// An optimal ordering converts directly into an interval representation of
// width vsn+1 (and hence a path decomposition of width vsn).
//
// - `exactVertexSeparation`: exponential subset DP, exact for n <= ~22.
// - `greedyVertexSeparation`: O((n+m) log n) heuristic for larger graphs.
//
// (The calibration notes mention PACE pathwidth solvers; those are
// competition-scale branch-and-bound engines.  The subset DP is exact and
// sufficient for validating the certification pipeline; large benchmark
// instances come from generators with known decompositions instead.)

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "interval/interval.hpp"

namespace lanecert {

class ParallelExecutor;

/// A vertex ordering together with its vertex-separation cost.
struct Layout {
  std::vector<VertexId> order;  ///< permutation of 0..n-1
  int cost = 0;                 ///< vertex separation = pathwidth achieved
};

/// Exact vertex separation (= pathwidth) by DP over vertex subsets.
/// Returns nullopt if numVertices() > maxN (cost 2^n memory/time).
[[nodiscard]] std::optional<Layout> exactVertexSeparation(const Graph& g,
                                                          int maxN = 22);

/// Greedy heuristic: repeatedly append the vertex minimizing the boundary
/// of the extended prefix (ties: smaller id).  Upper-bounds pathwidth.
///
/// The argmin is incremental: each vertex's boundary delta sits in a lazy
/// min-heap keyed (delta, id), and placing a vertex re-scores only vertices
/// within distance two of it.  That is O((n+m) log n) in all, and it picks
/// exactly the vertex a full first-minimum scan over ascending ids picks.
[[nodiscard]] Layout greedyVertexSeparation(const Graph& g);

/// The vertex-separation cost of a given ordering (max boundary size).
[[nodiscard]] int layoutCost(const Graph& g, const std::vector<VertexId>& order);

/// Converts a vertex ordering into an interval representation of G with
/// width == layoutCost + 1: L_v = position of v, R_v = max position over
/// {v} ∪ N(v).
[[nodiscard]] IntervalRepresentation layoutToIntervalRep(
    const Graph& g, const std::vector<VertexId>& order);

/// Exact pathwidth for small graphs (nullopt if too large).
[[nodiscard]] std::optional<int> exactPathwidth(const Graph& g, int maxN = 22);

/// Best interval representation we can compute: exact for small graphs,
/// greedy otherwise.  Always valid for g; width <= returned rep's width().
/// `exec` is unused: the greedy is serial.  The parameter stays only so
/// that existing callers keep compiling.
[[nodiscard]] IntervalRepresentation bestIntervalRepresentation(
    const Graph& g, int exactMaxN = 18, ParallelExecutor* exec = nullptr);

}  // namespace lanecert
