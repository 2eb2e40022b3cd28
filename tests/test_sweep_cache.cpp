// Sweep-cache safety net for the parallel verifier, plus the machine-facts
// probe:
//
//  1. Whole verification sweeps are byte-identical across thread counts
//     {1, 2, 4, 8}, on honest AND corrupted labelings over a spread of
//     graph families.
//  2. The sweep cache and the per-thread read memo count what they serve,
//     and a memo filled against one engine never answers for another.
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
#include "runtime/label_store.hpp"
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

// --- 2. Cache and memo accounting -----------------------------------------

TEST(SweepCache, CacheStatsCountHitsMissesAndMemoHits) {
  Rng rng(41);
  auto bp = randomBoundedPathwidth(48, 2, 0.5, rng);
  const IdAssignment ids = IdAssignment::random(bp.graph.numVertices(), 99);
  const auto proved = proveCore(bp.graph, ids, *makeConnectivity(), nullptr);

  VerifySession session(bp.graph, ids, proved.labels, makeConnectivity());
  EXPECT_TRUE(session.verifyAll(2).allAccept);

  const SweepCacheStats s1 = session.cacheStats();
  // Every distinct entry missed once before its first insert; shared upper
  // entries then hit (memo or striped cache).
  EXPECT_GT(s1.misses, 0u);
  EXPECT_GT(s1.hits + s1.memoHits, 0u);
  EXPECT_GT(s1.entries, 0u);
  EXPECT_EQ(s1.entries, session.sweepCacheSize());

  // A warm repeat sweep revalidates nothing: every probe lands in the
  // per-thread memo or the shared cache, and the entry count is unchanged.
  EXPECT_TRUE(session.verifyAll(2).allAccept);
  const SweepCacheStats s2 = session.cacheStats();
  EXPECT_EQ(s2.entries, s1.entries);
  EXPECT_GT(s2.hits + s2.memoHits, s1.hits + s1.memoHits);
}

TEST(SweepCache, ReadMemoNeverLeaksAcrossEngines) {
  // The per-thread read memo lives in scratch shared by EVERY engine that
  // checks on a thread (makeCoreVerifier's thread_local state; per-job
  // closures multiplexed over one worker pool).  A memo filled against
  // engine A must never answer probes for engine B — B's entries have to be
  // validated under B's own algebra/params.  Regression: the memo used to
  // sync on epoch NUMBER alone, so two engines both at epoch 0 shared
  // entries; B's cold sweep "hit" the stale memo for every shared entry,
  // skipped validateEntryPure, and left B's own cache empty.
  Rng rng(41);
  auto bp = randomBoundedPathwidth(32, 2, 0.5, rng);
  const Graph& g = bp.graph;
  const IdAssignment ids = IdAssignment::random(g.numVertices(), 7);
  const auto proved = proveCore(g, ids, *makeConnectivity(), nullptr);

  const LabelStore store(proved.labels);
  ParallelExecutor exec(1);
  const VertexLabelIndex index = buildIncidentEdgeIndex(g, store, exec);

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
  ASSERT_GT(a.sweepCacheSize(), 0u);

  // B reuses A's scratch (and thus its memo) but is a distinct engine with
  // a cold cache: its first sweep must validate every entry itself, so its
  // cache ends up exactly as full as A's and its probes actually reached it
  // (with the leak, every probe "hit" A's leftover memo instead — B's cache
  // stayed empty and its miss counter stayed zero).  Memo hits B earns
  // against entries it validated itself during this sweep are fine.
  sweep(b);
  EXPECT_EQ(b.sweepCacheSize(), a.sweepCacheSize());
  EXPECT_GT(b.cacheStats().misses, 0u);

  // Back on the same engine the memo is legitimate again: a warm repeat
  // sweep serves shared upper entries without re-validating them.
  const SweepCacheStats before = a.cacheStats();
  sweep(a);
  const SweepCacheStats after = a.cacheStats();
  EXPECT_GT(after.hits + after.memoHits, before.hits + before.memoHits);
  EXPECT_EQ(a.sweepCacheSize(), before.entries);
}

// --- 3. Topology detection ------------------------------------------------

TEST(Topology, DetectNeverThrows) {
  EXPECT_GE(NumaTopology::detect().nodeCount(), 1u);
}

}  // namespace
}  // namespace lanecert
