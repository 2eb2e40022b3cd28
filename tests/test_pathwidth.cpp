// Tests for the exact and heuristic pathwidth solvers, validated against
// known pathwidth values of classic families.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "pathwidth/pathwidth.hpp"

namespace lanecert {
namespace {

TEST(ExactPathwidth, KnownFamilies) {
  EXPECT_EQ(exactPathwidth(pathGraph(1)).value(), 0);
  EXPECT_EQ(exactPathwidth(pathGraph(8)).value(), 1);
  EXPECT_EQ(exactPathwidth(cycleGraph(8)).value(), 2);
  EXPECT_EQ(exactPathwidth(starGraph(5)).value(), 1);
  EXPECT_EQ(exactPathwidth(caterpillar(4, 2)).value(), 1);
  EXPECT_EQ(exactPathwidth(completeGraph(5)).value(), 4);
  EXPECT_EQ(exactPathwidth(gridGraph(3, 5)).value(), 3);
  // The 3-level complete binary tree is a caterpillar: pathwidth 1.
  EXPECT_EQ(exactPathwidth(completeBinaryTree(3)).value(), 1);
  // The 4-level one (height 3) has pathwidth ceil(3/2) = 2.
  EXPECT_EQ(exactPathwidth(completeBinaryTree(4)).value(), 2);
}

TEST(ExactPathwidth, RefusesLargeGraphs) {
  EXPECT_FALSE(exactPathwidth(pathGraph(30), 22).has_value());
}

TEST(ExactPathwidth, LayoutCostMatchesReported) {
  const Graph g = gridGraph(3, 4);
  const auto layout = exactVertexSeparation(g);
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layoutCost(g, layout->order), layout->cost);
  EXPECT_EQ(layout->cost, 3);
}

TEST(ExactPathwidth, LayoutIsPermutation) {
  const Graph g = cycleGraph(9);
  const auto layout = exactVertexSeparation(g);
  ASSERT_TRUE(layout.has_value());
  std::vector<char> seen(9, 0);
  for (VertexId v : layout->order) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 9);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = 1;
  }
}

TEST(LayoutToIntervalRep, ProducesValidRepOfMatchingWidth) {
  const Graph g = cycleGraph(10);
  const auto layout = exactVertexSeparation(g);
  ASSERT_TRUE(layout.has_value());
  const auto rep = layoutToIntervalRep(g, layout->order);
  EXPECT_TRUE(rep.isValidFor(g));
  EXPECT_EQ(rep.width(), layout->cost + 1);
}

TEST(GreedyVertexSeparation, UpperBoundsExact) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed);
    const Graph g = randomConnected(12, 0.25, rng);
    const auto exact = exactVertexSeparation(g);
    ASSERT_TRUE(exact.has_value());
    const Layout greedy = greedyVertexSeparation(g);
    EXPECT_GE(greedy.cost, exact->cost) << "seed " << seed;
    const auto rep = layoutToIntervalRep(g, greedy.order);
    EXPECT_TRUE(rep.isValidFor(g));
  }
}

TEST(GreedyVertexSeparation, ExactOnPaths) {
  const Graph g = pathGraph(40);
  const Layout greedy = greedyVertexSeparation(g);
  EXPECT_EQ(greedy.cost, 1);
}

TEST(ExactPathwidth, MatchesGeneratorBound) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const int k = 1 + static_cast<int>(seed % 3);
    const auto bp = randomBoundedPathwidth(14, k, 0.6, rng);
    const auto pw = exactPathwidth(bp.graph);
    ASSERT_TRUE(pw.has_value());
    EXPECT_LE(*pw, k) << "seed " << seed;
  }
}

TEST(BestIntervalRepresentation, AlwaysValid) {
  Rng rng(21);
  const Graph small = randomConnected(10, 0.3, rng);
  EXPECT_TRUE(bestIntervalRepresentation(small).isValidFor(small));
  const Graph big = caterpillar(30, 3);
  const auto rep = bestIntervalRepresentation(big);
  EXPECT_TRUE(rep.isValidFor(big));
  // Caterpillars have pathwidth 1; even the greedy should stay small.
  EXPECT_LE(rep.width(), 4);
}

TEST(LayoutCost, RejectsNonPermutation) {
  const Graph g = pathGraph(3);
  EXPECT_THROW((void)layoutCost(g, {0, 1}), std::invalid_argument);
}

// --- the ordering, pinned to the full scan --------------------------------
// greedyVertexSeparation keeps an incremental argmin.  At every step it must
// pick the vertex that a full scan over all outside vertices picks: the
// first (smallest-id) minimum of the extended prefix's boundary.  The scan
// below is that reference, kept in the test as an oracle; equal orders keep
// every downstream plan, snapshot and certificate byte-identical.

std::vector<VertexId> scanGreedyOrder(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.numVertices());
  auto at = [](VertexId v) { return static_cast<std::size_t>(v); };
  std::vector<char> inPrefix(n, 0);
  std::vector<int> outNbrs(n);
  for (VertexId v = 0; v < g.numVertices(); ++v) outNbrs[at(v)] = g.degree(v);
  int boundary = 0;
  std::vector<VertexId> order;
  while (order.size() < n) {
    VertexId best = kNoVertex;
    int bestCost = std::numeric_limits<int>::max();
    for (VertexId v = 0; v < g.numVertices(); ++v) {
      if (inPrefix[at(v)]) continue;
      int cost = boundary + (outNbrs[at(v)] > 0 ? 1 : 0);
      for (const Arc& a : g.arcs(v)) {
        if (inPrefix[at(a.to)] && outNbrs[at(a.to)] == 1) --cost;
      }
      if (cost < bestCost) {
        bestCost = cost;
        best = v;
      }
    }
    inPrefix[at(best)] = 1;
    for (const Arc& a : g.arcs(best)) {
      --outNbrs[at(a.to)];
      if (inPrefix[at(a.to)] && outNbrs[at(a.to)] == 0) --boundary;
    }
    if (outNbrs[at(best)] > 0) ++boundary;
    order.push_back(best);
  }
  return order;
}

void expectMatchesScan(const Graph& g) {
  const std::vector<VertexId> scan = scanGreedyOrder(g);
  const Layout greedy = greedyVertexSeparation(g);
  EXPECT_EQ(greedy.order, scan) << g.summary();
  EXPECT_EQ(greedy.cost, layoutCost(g, scan)) << g.summary();
  // exactMaxN = 0 sends every non-empty graph down the greedy path.
  EXPECT_EQ(bestIntervalRepresentation(g, 0).intervals(),
            layoutToIntervalRep(g, scan).intervals())
      << g.summary();
}

TEST(GreedyOrder, MatchesScanOnRandomBoundedPathwidth) {
  for (std::uint64_t seed : {7u, 19u, 43u}) {
    for (int k = 1; k <= 5; ++k) {
      Rng rng(seed);
      expectMatchesScan(randomBoundedPathwidth(300, k, 0.5, rng).graph);
    }
  }
}

TEST(GreedyOrder, MatchesScanOnPathAndCycle) {
  // Maximal ties: every path vertex looks alike to the greedy scorer, so
  // the smallest-id tie-break is exercised at every single step.
  expectMatchesScan(pathGraph(400));
  expectMatchesScan(cycleGraph(400));
}

TEST(GreedyOrder, MatchesScanOnDenseAndStarShapes) {
  // Clique: all-equal scores again, but with dense boundaries.
  expectMatchesScan(completeGraph(320));
  // Star: placing the hub first or last changes every leaf's score.
  expectMatchesScan(starGraph(399));
}

TEST(GreedyOrder, MatchesScanOnRandomConnected) {
  Rng rng(5);
  expectMatchesScan(randomConnected(280, 0.02, rng));
}

TEST(GreedyOrder, MatchesScanOnSmallGraphs) {
  Rng rng(11);
  expectMatchesScan(randomBoundedPathwidth(24, 3, 0.5, rng).graph);
  expectMatchesScan(Graph(0));
  expectMatchesScan(Graph(1));
}

TEST(GreedyOrder, MatchesScanOnComponentsAndIsolatedVertices) {
  // A path 0..14, a star centred on 20, and isolated vertices in between
  // and after: delta-0 candidates compete with the components' vertices.
  Graph g(40);
  for (VertexId v = 0; v + 1 < 15; ++v) g.addEdge(v, v + 1);
  for (VertexId v = 21; v < 36; ++v) g.addEdge(20, v);
  expectMatchesScan(g);
}

TEST(GreedyOrder, MatchesScanOnTreesGridsAndCaterpillars) {
  Rng rng(1000);
  expectMatchesScan(randomTree(1000, rng));
  expectMatchesScan(gridGraph(20, 20));
  expectMatchesScan(caterpillar(200, 3));
}

TEST(GreedyOrder, GoldenOrderOnBulkGraph) {
  // lcbench's bulk graph.  The hash was taken from the full-scan greedy; a
  // different order would change plans without changing the snapshot
  // params fingerprint, so this value must never be re-banked silently.
  Rng rng(4096);
  const Graph g = randomBoundedPathwidth(4096, 2, 0.4, rng).graph;
  // 64-bit FNV-1a over each VertexId as 4 little-endian bytes.
  std::uint64_t h = 14695981039346656037ULL;
  for (VertexId v : greedyVertexSeparation(g).order) {
    const auto u = static_cast<std::uint32_t>(v);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  EXPECT_EQ(h, 0x06a8d8bf1127c11dULL);
}

}  // namespace
}  // namespace lanecert
