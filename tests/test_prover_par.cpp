// Thread-invariance property tests for the wave-parallel prover: the full
// CoreProveResult — every label byte, every stat — must be bit-identical
// for every numThreads, on random bounded-pathwidth graphs, paths, cliques,
// and the degenerate single-vertex / empty inputs.  The wave schedule only
// reorders work that is independent by construction, so any divergence
// here is a real determinism bug (shared scratch, wrong wave assignment,
// or a fold order that leaked thread timing).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/prover.hpp"
#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "interval/interval.hpp"
#include "mso/properties.hpp"

namespace lanecert {
namespace {

void expectSameProveResult(const CoreProveResult& a, const CoreProveResult& b) {
  EXPECT_EQ(a.propertyHolds, b.propertyHolds);
  ASSERT_EQ(a.labels.size(), b.labels.size());
  EXPECT_EQ(a.labels, b.labels);  // byte-identical certificates
  EXPECT_EQ(a.stats.width, b.stats.width);
  EXPECT_EQ(a.stats.numLanes, b.stats.numLanes);
  EXPECT_EQ(a.stats.hierarchyDepth, b.stats.hierarchyDepth);
  EXPECT_EQ(a.stats.maxCongestion, b.stats.maxCongestion);
  EXPECT_EQ(a.stats.maxLabelBits, b.stats.maxLabelBits);
  EXPECT_EQ(a.stats.totalLabelBits, b.stats.totalLabelBits);
}

void expectThreadInvariant(const Graph& g, const IdAssignment& ids,
                           const Property& prop,
                           const IntervalRepresentation* rep) {
  const CoreProveResult seq = proveCore(g, ids, prop, rep, 1);
  for (int threads : {2, 4, 8}) {
    expectSameProveResult(seq, proveCore(g, ids, prop, rep, threads));
  }
}

TEST(ProverParallel, RandomBoundedPathwidthBitIdentical) {
  Rng rng(515);
  for (int trial = 0; trial < 3; ++trial) {
    auto bp = randomBoundedPathwidth(60 + 40 * trial, 2 + trial % 2, 0.4, rng);
    const auto rep = IntervalRepresentation::fromPairs(bp.intervals);
    const auto ids = IdAssignment::random(bp.graph.numVertices(),
                                          900 + static_cast<unsigned>(trial));
    expectThreadInvariant(bp.graph, ids, *makeConnectivity(), &rep);
  }
}

TEST(ProverParallel, PathGraphBitIdentical) {
  const Graph g = pathGraph(80);
  const auto ids = IdAssignment::random(80, 3);
  expectThreadInvariant(g, ids, *makePathProperty(), nullptr);
  expectThreadInvariant(g, ids, *makeForest(), nullptr);
}

TEST(ProverParallel, CliqueBitIdentical) {
  // Cliques maximize completion-edge density and bridge chains.
  for (int n : {4, 6, 8}) {
    const Graph g = completeGraph(n);
    const auto ids = IdAssignment::random(n, 17 + static_cast<unsigned>(n));
    expectThreadInvariant(g, ids, *makeConnectivity(), nullptr);
  }
}

TEST(ProverParallel, DegenerateInputsBitIdentical) {
  // Single vertex: no edges, no labels — every thread count must agree on
  // the bare verdict.
  const Graph single(1);
  const auto ids1 = IdAssignment::identity(1);
  expectThreadInvariant(single, ids1, *makeConnectivity(), nullptr);
  // Two vertices, one edge: smallest non-degenerate pipeline.
  Graph pair(2);
  pair.addEdge(0, 1);
  const auto ids2 = IdAssignment::random(2, 9);
  expectThreadInvariant(pair, ids2, *makeConnectivity(), nullptr);
}

TEST(ProverParallel, RejectedPropertyBitIdentical) {
  // propertyHolds == false must also be thread-invariant (the wave phase
  // runs; certificate encoding is skipped).
  const Graph g = cycleGraph(12);
  const auto ids = IdAssignment::random(12, 4);
  expectThreadInvariant(g, ids, *makeForest(), nullptr);
}

TEST(ProverParallel, NonPositiveThreadCountResolvesToHardware) {
  const Graph g = pathGraph(20);
  const auto ids = IdAssignment::random(20, 8);
  const auto seq = proveCore(g, ids, *makeConnectivity(), nullptr, 1);
  expectSameProveResult(seq, proveCore(g, ids, *makeConnectivity(), nullptr, 0));
  expectSameProveResult(seq,
                        proveCore(g, ids, *makeConnectivity(), nullptr, -1));
}

TEST(ProverParallel, ParallelProofVerifiesEndToEnd) {
  // The parallel prover's labels must satisfy the (parallel) verifier.
  const Graph g = gridGraph(5, 4);
  const auto ids = IdAssignment::random(g.numVertices(), 23);
  const auto run = proveAndVerifyEdges(g, ids, makeConnectivity(), nullptr, {},
                                       SimulationOptions{4});
  ASSERT_TRUE(run.propertyHolds);
  EXPECT_TRUE(run.sim.allAccept);
}

}  // namespace
}  // namespace lanecert
