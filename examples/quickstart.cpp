// Quickstart: certify an MSO2 property on a bounded-pathwidth network with
// O(log n)-bit labels, then watch a corrupted certificate get caught.
//
//   $ ./quickstart
//
// Walks through the library's three-step API:
//   1. build a graph (here: a caterpillar — pathwidth 1),
//   2. run the centralized prover for a property (here: acyclicity),
//   3. run the strictly-local verifier at every vertex.

#include <cstdio>

#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"

using namespace lanecert;

int main() {
  // 1. The network: a caterpillar with 30 spine vertices and 2 legs each
  //    (90 vertices, pathwidth 1), with random distinct O(log n)-bit ids.
  const Graph g = caterpillar(30, 2);
  const IdAssignment ids = IdAssignment::random(g.numVertices(), /*seed=*/42);
  std::printf("network: %s (pathwidth 1)\n", g.summary().c_str());

  // 2+3. Prove and locally verify "G is a forest" (== K3-minor-free).
  const PropertyPtr prop = makeForest();
  const CoreRunResult run = proveAndVerifyEdges(g, ids, prop);
  if (!run.propertyHolds) {
    std::printf("prover: property does not hold — nothing to certify\n");
    return 1;
  }
  std::printf("prover: property '%s' holds; labels assigned to %d edges\n",
              prop->name().c_str(), g.numEdges());
  std::printf("verifier: %s (max label %zu bits, lanes=%d, depth=%d)\n",
              run.sim.allAccept ? "all vertices ACCEPT" : "REJECTED?!",
              run.sim.maxLabelBits, run.stats.numLanes,
              run.stats.hierarchyDepth);

  // Fault detection: flip one certificate bit and re-run the verifier.
  CoreProveResult labels = proveCore(g, ids, *prop);
  labels.labels[0][3] = static_cast<char>(labels.labels[0][3] ^ 0x10);
  const SimulationResult after =
      simulateEdgeScheme(g, ids, labels.labels, makeCoreVerifier(prop));
  std::printf("after 1-bit corruption: %zu vertex(es) raise an alarm\n",
              after.rejecting.size());
  return run.sim.allAccept && !after.rejecting.empty() ? 0 : 1;
}
