// Self-stabilization scenario (the original motivation for proof labeling
// schemes, Section 1): a token-ring deployment must verify that its
// physical topology really is one simple cycle.  Certificates are installed
// once by a deployment tool (the prover); afterwards every processor
// re-checks its O(log n)-bit neighborhood forever.  We simulate three
// fault events and show that in each one at least one processor raises an
// alarm — locally, with no global coordination.  Exits 1 unless the steady
// state raises no alarm and every fault raises at least one.

#include <cstdio>

#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"

using namespace lanecert;

namespace {

int alarms(const Graph& g, const IdAssignment& ids,
           const std::vector<std::string>& labels) {
  const auto res =
      simulateEdgeScheme(g, ids, labels, makeCoreVerifier(makeCycleProperty()));
  return static_cast<int>(res.rejecting.size());
}

}  // namespace

int main() {
  const int n = 24;
  const Graph ring = cycleGraph(n);
  const IdAssignment ids = IdAssignment::random(n, 7);

  std::printf("deploying a %d-node token ring; property: 'is a simple cycle'\n", n);
  const CoreProveResult honest = proveCore(ring, ids, *makeCycleProperty());
  if (!honest.propertyHolds) return 1;
  std::printf("installed certificates: max %zu bits per link\n",
              honest.stats.maxLabelBits);
  const int steady = alarms(ring, ids, honest.labels);
  std::printf("steady state: %d alarms (expected 0)\n\n", steady);
  bool everyFaultCaught = true;

  // Fault 1: a link dies (the ring degenerates to a path) — certificates
  // are stale, some processor must notice.
  {
    Graph broken(n);
    for (EdgeId e = 0; e + 1 < ring.numEdges(); ++e) {
      broken.addEdge(ring.edge(e).u, ring.edge(e).v);
    }
    auto labels = honest.labels;
    labels.pop_back();
    const int raised = alarms(broken, ids, labels);
    std::printf("fault 1 (link failure, ring -> path): %d alarms\n", raised);
    everyFaultCaught = everyFaultCaught && raised > 0;
  }

  // Fault 2: memory corruption flips bits in one processor's certificate.
  {
    auto labels = honest.labels;
    Rng rng(5);
    (void)mutateLabels(labels, Mutation::kScramble, rng);
    const int raised = alarms(ring, ids, labels);
    std::printf("fault 2 (certificate corruption):       %d alarms\n", raised);
    everyFaultCaught = everyFaultCaught && raised > 0;
  }

  // Fault 3: a rogue link is patched in (a chord), making the topology a
  // non-cycle while every old certificate is still intact; the chord gets a
  // replayed certificate from another link.
  {
    Graph chorded = cycleGraph(n);
    chorded.addEdge(0, n / 2);
    auto labels = honest.labels;
    labels.push_back(labels[0]);
    const int raised = alarms(chorded, ids, labels);
    std::printf("fault 3 (rogue chord added):            %d alarms\n", raised);
    everyFaultCaught = everyFaultCaught && raised > 0;
  }

  if (steady != 0 || !everyFaultCaught) {
    std::printf("\nFAILED: expected 0 steady-state alarms and >= 1 per fault\n");
    return 1;
  }
  std::printf("\nevery fault was detected by at least one processor.\n");
  return 0;
}
