// Tests connecting the MSO2 formula library to (a) known graph families,
// (b) the compositional property algebra, (c) brute-force algorithms and
// (d) the prove + verify pipeline — documenting that the bundled
// properties realize their MSO2 definitions.

#include <gtest/gtest.h>

#include "core/scheme.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "mso/bruteforce.hpp"
#include "mso/formula.hpp"
#include "mso/properties.hpp"
#include "mso/property.hpp"

namespace lanecert {
namespace {

Graph randomSmall(std::uint64_t seed, VertexId n, double p) {
  Rng rng(seed);
  Graph g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.flip(p)) g.addEdge(u, v);
    }
  }
  return g;
}

TEST(MsoFormula, BipartiteOnKnownFamilies) {
  EXPECT_TRUE(msoEvaluate(msoBipartite(), cycleGraph(6)));
  EXPECT_FALSE(msoEvaluate(msoBipartite(), cycleGraph(5)));
  EXPECT_TRUE(msoEvaluate(msoBipartite(), pathGraph(5)));
  EXPECT_FALSE(msoEvaluate(msoBipartite(), completeGraph(3)));
}

TEST(MsoFormula, ForestOnKnownFamilies) {
  EXPECT_TRUE(msoEvaluate(msoForest(), pathGraph(6)));
  EXPECT_TRUE(msoEvaluate(msoForest(), starGraph(4)));
  EXPECT_FALSE(msoEvaluate(msoForest(), cycleGraph(4)));
}

TEST(MsoFormula, ConnectedOnKnownFamilies) {
  EXPECT_TRUE(msoEvaluate(msoConnected(), cycleGraph(5)));
  Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(2, 3);
  EXPECT_FALSE(msoEvaluate(msoConnected(), g));
}

TEST(MsoFormula, PerfectMatchingOnKnownFamilies) {
  EXPECT_TRUE(msoEvaluate(msoPerfectMatching(), pathGraph(4)));
  EXPECT_FALSE(msoEvaluate(msoPerfectMatching(), pathGraph(5)));
  EXPECT_TRUE(msoEvaluate(msoPerfectMatching(), cycleGraph(6)));
}

TEST(MsoFormula, HamiltonianCycleOnKnownFamilies) {
  EXPECT_TRUE(msoEvaluate(msoHamiltonianCycle(), cycleGraph(5)));
  EXPECT_TRUE(msoEvaluate(msoHamiltonianCycle(), completeGraph(4)));
  EXPECT_FALSE(msoEvaluate(msoHamiltonianCycle(), pathGraph(4)));
  EXPECT_FALSE(msoEvaluate(msoHamiltonianCycle(), starGraph(3)));
}

TEST(MsoFormula, TriangleFreeOnKnownFamilies) {
  EXPECT_TRUE(msoEvaluate(msoTriangleFree(), cycleGraph(5)));
  EXPECT_FALSE(msoEvaluate(msoTriangleFree(), completeGraph(3)));
}

TEST(MsoFormula, AgreesWithPropertyAlgebraOnRandomGraphs) {
  struct Case {
    MsoPtr formula;
    PropertyPtr prop;
    const char* name;
  };
  const std::vector<Case> cases = {
      {msoBipartite(), makeColorability(2), "bipartite"},
      {msoForest(), makeForest(), "forest"},
      {msoConnected(), makeConnectivity(), "connected"},
      {msoPerfectMatching(), makePerfectMatching(), "matching"},
      {msoTriangleFree(), makeTriangleFree(), "triangle-free"},
  };
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const VertexId n = 3 + static_cast<VertexId>(seed % 4);
    const Graph g = randomSmall(seed * 31 + 7, n, 0.35);
    if (g.numEdges() > 10) continue;  // keep set quantifiers cheap
    for (const Case& c : cases) {
      EXPECT_EQ(msoEvaluate(c.formula, g), evaluateOnGraph(*c.prop, g))
          << c.name << " seed " << seed;
    }
  }
}

TEST(MsoFormula, AgreesWithProveAndVerifyOnKnownFamilies) {
  // The logic and the certification pipeline reach the same verdict, and
  // whenever the property holds its certificates verify everywhere.
  struct Case {
    MsoPtr formula;
    PropertyPtr prop;
    Graph g;
    const char* what;
  };
  const std::vector<Case> cases = {
      {msoBipartite(), makeColorability(2), cycleGraph(6), "bipartite C6"},
      {msoBipartite(), makeColorability(2), cycleGraph(5), "bipartite C5"},
      {msoForest(), makeForest(), starGraph(4), "forest star4"},
      {msoForest(), makeForest(), cycleGraph(4), "forest C4"},
      {msoPerfectMatching(), makePerfectMatching(), pathGraph(6), "matching P6"},
      {msoPerfectMatching(), makePerfectMatching(), pathGraph(5), "matching P5"},
      {msoHamiltonianCycle(), makeHamiltonianCycle(), cycleGraph(5),
       "hamiltonian C5"},
      {msoHamiltonianCycle(), makeHamiltonianCycle(), pathGraph(5),
       "hamiltonian P5"},
      {msoTriangleFree(), makeTriangleFree(), completeGraph(3),
       "triangle-free K3"},
  };
  for (const Case& c : cases) {
    const IdAssignment ids = IdAssignment::random(c.g.numVertices(), 3);
    const CoreRunResult run = proveAndVerifyEdges(c.g, ids, c.prop);
    EXPECT_EQ(msoEvaluate(c.formula, c.g), run.propertyHolds) << c.what;
    if (run.propertyHolds) EXPECT_TRUE(run.sim.allAccept) << c.what;
  }
}

TEST(MsoFormula, HamiltonianAgreesWithBruteForce) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const Graph g = randomSmall(seed * 13 + 3, 5, 0.5);
    if (g.numEdges() > 9) continue;
    EXPECT_EQ(msoEvaluate(msoHamiltonianCycle(), g), hasHamiltonianCycleBrute(g))
        << "seed " << seed;
  }
}

TEST(MsoFormula, PrettyPrinter) {
  const std::string s = msoToString(msoBipartite());
  EXPECT_NE(s.find("∃U"), std::string::npos);
  EXPECT_NE(s.find("adj(u,v)"), std::string::npos);
}

TEST(MsoFormula, RejectsFreeVariables) {
  const auto bad = mso::adjacent("u", "v");  // u, v never bound
  EXPECT_THROW((void)msoEvaluate(bad, pathGraph(2)), std::invalid_argument);
}

TEST(MsoFormula, RejectsHugeGraphs) {
  EXPECT_THROW((void)msoEvaluate(msoBipartite(), pathGraph(80)),
               std::invalid_argument);
}

}  // namespace
}  // namespace lanecert
