// Tests for Section 5: hierarchical decompositions (Prop 5.6), node-type
// invariants, the Observation 5.5 depth bound, and per-node connectivity.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "klane/hierarchy.hpp"
#include "klane/validate.hpp"
#include "lane/embedding.hpp"
#include "lanewidth/lanewidth.hpp"
#include "pathwidth/pathwidth.hpp"

namespace lanecert {
namespace {

/// Full pipeline up to the hierarchy for an arbitrary connected graph.
HierarchyResult hierarchyOf(const Graph& g) {
  const auto rep = bestIntervalRepresentation(g);
  const LanePlan plan = buildLanePlan(g, rep);
  const ConstructionSequence seq = buildConstruction(g, rep, plan.lanes);
  return buildHierarchy(seq);
}

void expectValid(const HierarchyResult& r, int numLanes, const char* what) {
  const auto errs = validateHierarchy(r, numLanes);
  EXPECT_TRUE(errs.empty()) << what << ": " << (errs.empty() ? "" : errs[0])
                            << " (" << errs.size() << " violations)";
}

TEST(TerminalMap, SetAndGet) {
  TerminalMap tm;
  EXPECT_EQ(tm.at(3), kNoVertex);
  tm.set(3, 7);
  tm.set(1, 5);
  EXPECT_EQ(tm.at(3), 7);
  EXPECT_EQ(tm.at(1), 5);
  tm.set(3, 9);
  EXPECT_EQ(tm.at(3), 9);
  EXPECT_EQ(tm.entries().size(), 2u);
  EXPECT_EQ(tm.entries()[0].first, 1);  // sorted by lane
}

TEST(TerminalMap, SmallAndLargeMapsAgreeWithSortedBuild) {
  // Small maps keep their entries inline and larger ones on the heap; the
  // two must read the same, whichever way a map was built.
  const std::vector<int> order = {7, 2, 9, 0, 4, 11, 1, 5, 3, 10, 6, 8};
  for (std::size_t count = 0; count <= order.size(); ++count) {
    TerminalMap bySet;
    std::vector<TerminalMap::Entry> sorted;
    for (std::size_t i = 0; i < count; ++i) {
      bySet.set(order[i], 100 + order[i]);
      sorted.emplace_back(order[i], 100 + order[i]);
    }
    std::sort(sorted.begin(), sorted.end());
    const TerminalMap bulk = TerminalMap::fromSortedEntries(sorted);
    EXPECT_EQ(bySet, bulk) << count;
    EXPECT_TRUE(std::ranges::equal(bySet.entries(), sorted)) << count;
    for (const auto& [lane, v] : sorted) EXPECT_EQ(bulk.at(lane), v);
    if (count > 0) {
      bySet.set(order[0], 1);  // overwrite, whichever storage holds it
      EXPECT_EQ(bySet.at(order[0]), 1) << count;
      EXPECT_EQ(bySet.entries().size(), count);
      EXPECT_FALSE(bySet == bulk) << count;
    }
  }
}

TEST(Hierarchy, InitialPathOnly) {
  ConstructionSequence seq;
  seq.numVertices = 3;
  seq.initialPath = {0, 1, 2};
  const HierarchyResult r = buildHierarchy(seq);
  // One P-node wrapped in one T-node.
  EXPECT_EQ(r.hierarchy.size(), 2);
  EXPECT_EQ(r.hierarchy.node(r.hierarchy.root()).type, HierNode::Type::kT);
  EXPECT_EQ(r.hierarchy.depth(), 2);
  expectValid(r, 3, "initial path");
}

TEST(Hierarchy, SingleVInsert) {
  ConstructionSequence seq;
  seq.numVertices = 3;
  seq.initialPath = {0, 1};
  seq.ops = {{ConstructionOp::Kind::kVInsert, 0, -1, 2}};
  const HierarchyResult r = buildHierarchy(seq);
  expectValid(r, 2, "single V-insert");
  // P-node, E-node, outer T-node.
  EXPECT_EQ(r.hierarchy.size(), 3);
  const HierNode& root = r.hierarchy.node(r.hierarchy.root());
  EXPECT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.outTerm.at(0), 2);  // designated moved to the new vertex
  EXPECT_EQ(root.outTerm.at(1), 1);
}

TEST(Hierarchy, EInsertCase21TwoVNodes) {
  // E-insert directly between two initial-path vertices: Case 2.1.
  ConstructionSequence seq;
  seq.numVertices = 3;
  seq.initialPath = {0, 1, 2};
  seq.ops = {{ConstructionOp::Kind::kEInsert, 0, 2, kNoVertex}};
  const HierarchyResult r = buildHierarchy(seq);
  expectValid(r, 3, "case 2.1");
  // P-node + 2 V-nodes + B-node + outer T-node = 5.
  EXPECT_EQ(r.hierarchy.size(), 5);
  int bCount = 0;
  int vCount = 0;
  for (int i = 0; i < r.hierarchy.size(); ++i) {
    bCount += r.hierarchy.node(i).type == HierNode::Type::kB;
    vCount += r.hierarchy.node(i).type == HierNode::Type::kV;
  }
  EXPECT_EQ(bCount, 1);
  EXPECT_EQ(vCount, 2);
}

TEST(Hierarchy, EInsertCase23Mixed) {
  // Lane 0 grows one E-node, then E-insert(0, 1): owner(0) is the E-node,
  // owner(1) is the P-node = LCA: Case 2.3 (one V-node, one T-node).
  ConstructionSequence seq;
  seq.numVertices = 3;
  seq.initialPath = {0, 1};
  seq.ops = {
      {ConstructionOp::Kind::kVInsert, 0, -1, 2},
      {ConstructionOp::Kind::kEInsert, 0, 1, kNoVertex},
  };
  const HierarchyResult r = buildHierarchy(seq);
  expectValid(r, 2, "case 2.3");
  int tCount = 0;
  for (int i = 0; i < r.hierarchy.size(); ++i) {
    tCount += r.hierarchy.node(i).type == HierNode::Type::kT;
  }
  EXPECT_EQ(tCount, 2);  // the wrap + the outer T-node
}

TEST(Hierarchy, EInsertCase22TwoSubtrees) {
  // Both lanes grow below the P-node before the E-insert: Case 2.2.
  ConstructionSequence seq;
  seq.numVertices = 4;
  seq.initialPath = {0, 1};
  seq.ops = {
      {ConstructionOp::Kind::kVInsert, 0, -1, 2},
      {ConstructionOp::Kind::kVInsert, 1, -1, 3},
      {ConstructionOp::Kind::kEInsert, 0, 1, kNoVertex},
  };
  const HierarchyResult r = buildHierarchy(seq);
  expectValid(r, 2, "case 2.2");
  // The B-node has two T-node children.
  for (int i = 0; i < r.hierarchy.size(); ++i) {
    const HierNode& n = r.hierarchy.node(i);
    if (n.type == HierNode::Type::kB) {
      EXPECT_EQ(r.hierarchy.node(n.children[0]).type, HierNode::Type::kT);
      EXPECT_EQ(r.hierarchy.node(n.children[1]).type, HierNode::Type::kT);
    }
  }
}

TEST(Hierarchy, DepthBoundHoldsOnFamilies) {
  for (const Graph& g : {pathGraph(30), cycleGraph(18), caterpillar(8, 2),
                         starGraph(12), gridGraph(3, 5), completeGraph(6)}) {
    const auto rep = bestIntervalRepresentation(g);
    const LanePlan plan = buildLanePlan(g, rep);
    const ConstructionSequence seq = buildConstruction(g, rep, plan.lanes);
    const HierarchyResult r = buildHierarchy(seq);
    expectValid(r, seq.numLanes(), g.summary().c_str());
    EXPECT_LE(r.hierarchy.depth(), 2 * seq.numLanes()) << g.summary();
  }
}

TEST(Hierarchy, DepthIndependentOfN) {
  // The depth bound is 2w, a constant in n: the same pathwidth-1 family
  // gets the same depth at 32 times the size.
  const auto depth = [](int spine) {
    return hierarchyOf(caterpillar(spine, 1)).hierarchy.depth();
  };
  EXPECT_EQ(depth(16), depth(512));
}

TEST(Hierarchy, RandomSweepAllValid) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    const int k = 1 + static_cast<int>(seed % 4);
    const auto bp = randomBoundedPathwidth(50, k, 0.5, rng);
    const auto rep = IntervalRepresentation::fromPairs(bp.intervals);
    const LanePlan plan = buildLanePlan(bp.graph, rep);
    const ConstructionSequence seq = buildConstruction(bp.graph, rep, plan.lanes);
    const HierarchyResult r = buildHierarchy(seq);
    expectValid(r, seq.numLanes(), ("seed " + std::to_string(seed)).c_str());
  }
}

TEST(Hierarchy, MaterializedRootMatchesCompletion) {
  Rng rng(7);
  const auto bp = randomBoundedPathwidth(40, 2, 0.5, rng);
  const auto rep = IntervalRepresentation::fromPairs(bp.intervals);
  const LanePlan plan = buildLanePlan(bp.graph, rep);
  const auto comp = buildCompletion(bp.graph, plan.lanes, /*withInit=*/true);
  const ConstructionSequence seq = buildConstruction(bp.graph, rep, plan.lanes);
  const HierarchyResult r = buildHierarchy(seq);
  EXPECT_TRUE(r.graph.sameEdgeSet(comp.graph));
  EXPECT_EQ(r.hierarchy.materializeEdges(r.hierarchy.root()).size(),
            static_cast<std::size_t>(comp.graph.numEdges()));
}

TEST(Hierarchy, SubtreeOutTerminalsOfOuterTNode) {
  ConstructionSequence seq;
  seq.numVertices = 4;
  seq.initialPath = {0, 1};
  seq.ops = {
      {ConstructionOp::Kind::kVInsert, 0, -1, 2},
      {ConstructionOp::Kind::kVInsert, 0, -1, 3},
  };
  const HierarchyResult r = buildHierarchy(seq);
  expectValid(r, 2, "chain");
  const int root = r.hierarchy.root();
  const auto subOut = subtreeOutTerminals(r.hierarchy, root);
  const HierNode& t = r.hierarchy.node(root);
  // The root child (P-node)'s subtree covers everything: out = {2->3? lane0
  // ends at vertex 3, lane1 stays at 1}.
  const TerminalMap& rootOut = subOut[static_cast<std::size_t>(t.rootChildPos)];
  EXPECT_EQ(rootOut.at(0), 3);
  EXPECT_EQ(rootOut.at(1), 1);
}

TEST(Hierarchy, ToStringShowsTree) {
  const HierarchyResult r = hierarchyOf(cycleGraph(6));
  const std::string s = r.hierarchy.toString();
  EXPECT_NE(s.find("T#"), std::string::npos);
  EXPECT_NE(s.find("P#"), std::string::npos);
}

TEST(Hierarchy, EveryEdgeOwnedByEPOrB) {
  const HierarchyResult r = hierarchyOf(gridGraph(2, 6));
  for (EdgeId e = 0; e < r.graph.numEdges(); ++e) {
    const auto type = r.hierarchy.node(r.edgeOwner[static_cast<std::size_t>(e)]).type;
    EXPECT_TRUE(type == HierNode::Type::kE || type == HierNode::Type::kP ||
                type == HierNode::Type::kB);
  }
}

}  // namespace
}  // namespace lanecert
