// Sweep-cache safety net for the parallel verifier, plus the machine-facts
// probe:
//
//  1. Whole verification sweeps are byte-identical across thread counts
//     {1, 2, 4, 8}, on honest AND corrupted labelings over a spread of
//     graph families.
//  2. The sweep cache counts exactly the work it serves and saves, two
//     engines sharing one scratch never share validations, and a cache
//     capped far below a graph's entries still keeps every verdict.
//  3. NUMA node detection never throws and reports at least one node.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/prover.hpp"
#include "core/verifier.hpp"
#include "core/verify_session.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "pls/scheme.hpp"
#include "runtime/executor.hpp"
#include "runtime/label_index.hpp"
#include "runtime/topology.hpp"

namespace lanecert {
namespace {

// --- 1. Sweep-level identity across threads ------------------------------

struct SweepFamily {
  std::string name;
  Graph g;
};

std::vector<SweepFamily> sweepFamilies() {
  std::vector<SweepFamily> fams;
  {
    Rng rng(41);
    fams.push_back({"pw2rand", randomBoundedPathwidth(40, 2, 0.5, rng).graph});
  }
  fams.push_back({"clique6", completeGraph(6)});
  {
    Rng rng(77);
    fams.push_back({"tree24", randomTree(24, rng)});
  }
  fams.push_back({"path2", pathGraph(2)});   // degenerate: one edge
  fams.push_back({"star12", starGraph(12)});
  return fams;
}

void expectSameResult(const SimulationResult& got, const SimulationResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.allAccept, want.allAccept) << what;
  EXPECT_EQ(got.rejecting, want.rejecting) << what;
  EXPECT_EQ(got.maxLabelBits, want.maxLabelBits) << what;
  EXPECT_EQ(got.totalLabelBits, want.totalLabelBits) << what;
}

TEST(SweepCache, VerdictsIdenticalAcrossThreads) {
  for (SweepFamily& fam : sweepFamilies()) {
    const IdAssignment ids = IdAssignment::random(fam.g.numVertices(), 1234);
    const auto proved = proveCore(fam.g, ids, *makeConnectivity(), nullptr);

    // Honest labels plus one corrupted variant (flip a byte mid-label):
    // identity must hold for rejecting sweeps too, where cache hit rates
    // differ the most between configurations.
    std::vector<std::vector<std::string>> labelings = {proved.labels};
    if (!proved.labels.empty() && proved.labels[0].size() > 4) {
      auto corrupted = proved.labels;
      corrupted[0][corrupted[0].size() / 2] ^= 0x20;
      labelings.push_back(std::move(corrupted));
    }

    for (const auto& labels : labelings) {
      SimulationResult baseline;
      for (const int threads : {1, 2, 4, 8}) {
        const auto verifier = makeCoreVerifier(makeConnectivity());
        const auto res = simulateEdgeScheme(fam.g, ids, labels, verifier,
                                            SimulationOptions{threads});
        if (threads == 1) {
          baseline = res;
        } else {
          expectSameResult(res, baseline,
                           fam.name + " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

// --- 2. Cache accounting --------------------------------------------------

TEST(SweepCache, CacheStatsCountHitsMissesAndMemoHits) {
  Rng rng(41);
  auto bp = randomBoundedPathwidth(48, 2, 0.5, rng);
  const IdAssignment ids = IdAssignment::random(bp.graph.numVertices(), 99);
  const auto proved = proveCore(bp.graph, ids, *makeConnectivity(), nullptr);

  // One thread, so no two probes race on the same entry: the counters are
  // exact work counts.
  VerifySession session(bp.graph, ids, proved.labels, makeConnectivity());
  EXPECT_TRUE(session.verifyAll(1).allAccept);

  const SweepCacheStats s1 = session.cacheStats();
  // Cold: every distinct entry missed exactly once, was replayed and
  // inserted; every other probe hit.
  EXPECT_GT(s1.entries, 0u);
  EXPECT_EQ(s1.misses, s1.entries);
  EXPECT_GT(s1.hits, 0u);
  EXPECT_EQ(s1.entries, session.sweepCacheSize());
  EXPECT_EQ(s1.memoHits, 0u);
  EXPECT_EQ(s1.evictions, 0u);

  // Warm: the repeat sweep makes the same probes, and every one hits.
  EXPECT_TRUE(session.verifyAll(1).allAccept);
  const SweepCacheStats s2 = session.cacheStats();
  EXPECT_EQ(s2.misses, s1.misses);
  EXPECT_EQ(s2.hits - s1.hits, s1.hits + s1.misses);
  EXPECT_EQ(s2.entries, s1.entries);
  EXPECT_EQ(s2.memoHits, 0u);
}

TEST(SweepCache, EnginesSharingScratchNeverShareValidations) {
  // makeCoreVerifier's thread_local scratch is shared by EVERY engine that
  // checks on a thread (per-job closures multiplexed over one worker pool).
  // Entries validated under engine A's algebra/params say nothing about
  // engine B's, so B must replay every entry itself.
  Rng rng(41);
  auto bp = randomBoundedPathwidth(32, 2, 0.5, rng);
  const Graph& g = bp.graph;
  const IdAssignment ids = IdAssignment::random(g.numVertices(), 7);
  const auto proved = proveCore(g, ids, *makeConnectivity(), nullptr);

  ParallelExecutor exec(1);
  const VertexLabelIndex index = buildIncidentEdgeIndex(g, proved.labels, exec);

  CoreVerifierEngine a(makeConnectivity());
  CoreVerifierEngine b(makeConnectivity());
  CoreVerifierEngine::ThreadState shared;  // plays the thread_local's role

  const auto sweep = [&](const CoreVerifierEngine& engine) {
    for (VertexId v = 0; v < g.numVertices(); ++v) {
      EdgeView view;
      view.selfId = ids.id(v);
      view.incidentLabels = index.row(v);
      EXPECT_TRUE(engine.check(view, shared)) << "vertex " << v;
    }
  };

  sweep(a);
  const SweepCacheStats aCold = a.cacheStats();
  ASSERT_GT(aCold.entries, 0u);

  // B reuses A's scratch but has a cold cache: its first sweep does
  // exactly the work A's did, replaying every distinct entry.
  sweep(b);
  const SweepCacheStats bCold = b.cacheStats();
  EXPECT_EQ(bCold.misses, aCold.misses);
  EXPECT_EQ(bCold.hits, aCold.hits);
  EXPECT_EQ(bCold.entries, aCold.entries);

  // Back on A, the warm repeat replays nothing.
  sweep(a);
  const SweepCacheStats aWarm = a.cacheStats();
  EXPECT_EQ(aWarm.misses, aCold.misses);
  EXPECT_EQ(aWarm.hits - aCold.hits, aCold.hits + aCold.misses);
}

TEST(SweepCache, SmallCapEngineMatchesFreshSweep) {
  // A cap far below the graph's distinct entries makes stripes clear
  // mid-sweep, on four threads at once.  Clearing only costs replays, so
  // every sweep must reproduce a fresh simulateEdgeScheme verdict for
  // verdict.
  Rng rng(41);
  auto bp = randomBoundedPathwidth(48, 2, 0.5, rng);
  const Graph& g = bp.graph;
  const IdAssignment ids = IdAssignment::random(g.numVertices(), 99);
  const auto proved = proveCore(g, ids, *makeConnectivity(), nullptr);
  auto corrupted = proved.labels;
  corrupted[3][corrupted[3].size() / 2] ^= 0x20;

  constexpr int kThreads = 4;
  ParallelExecutor exec(kThreads);
  CoreVerifierEngine engine(makeConnectivity(), {}, 64);
  std::vector<CoreVerifierEngine::ThreadState> states(kThreads);
  const std::vector<std::string>* labelings[] = {&proved.labels, &corrupted,
                                                 &proved.labels};
  for (const auto* labels : labelings) {
    const VertexLabelIndex index = buildIncidentEdgeIndex(g, *labels, exec);
    std::vector<VertexId> rejecting(static_cast<std::size_t>(g.numVertices()),
                                    kNoVertex);
    exec.forShards(rejecting.size(), [&](std::size_t shard, std::size_t begin,
                                         std::size_t end) {
      for (std::size_t vi = begin; vi < end; ++vi) {
        const auto v = static_cast<VertexId>(vi);
        EdgeView view;
        view.selfId = ids.id(v);
        view.incidentLabels = index.row(v);
        if (!engine.check(view, states[shard])) rejecting[vi] = v;
      }
    });
    std::erase(rejecting, kNoVertex);
    const auto fresh = simulateEdgeScheme(g, ids, *labels,
                                          makeCoreVerifier(makeConnectivity()));
    EXPECT_EQ(rejecting, fresh.rejecting);
  }
  const SweepCacheStats s = engine.cacheStats();
  EXPECT_GT(s.evictions, 0u) << "cap never engaged";
  EXPECT_LE(s.entries, 64u);
}

// --- 3. Topology detection ------------------------------------------------

TEST(Topology, DetectNeverThrows) {
  EXPECT_GE(NumaTopology::detect().nodeCount(), 1u);
}

}  // namespace
}  // namespace lanecert
