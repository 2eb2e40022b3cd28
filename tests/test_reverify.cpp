// Incremental re-verification: the per-vertex label index and the
// resumable VerifySession, which owns its labels and overwrites them.
//
// The invariant under test is the session's core promise: after ANY
// sequence of edit batches — byte flips, grown/shrunk labels, restored
// honest labels, self-loop certificates — `reverify` (which re-checks only
// the dirty vertices) returns a SimulationResult byte-identical to a fresh
// simulateEdgeScheme sweep over the current labels, for every executor
// thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/prover.hpp"
#include "core/records.hpp"
#include "core/verify_session.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "pls/scheme.hpp"
#include "runtime/executor.hpp"
#include "runtime/label_index.hpp"

namespace lanecert {
namespace {

void expectSameResult(const SimulationResult& got,
                      const SimulationResult& want) {
  EXPECT_EQ(got.allAccept, want.allAccept);
  EXPECT_EQ(got.rejecting, want.rejecting);
  EXPECT_EQ(got.maxLabelBits, want.maxLabelBits);
  EXPECT_EQ(got.totalLabelBits, want.totalLabelBits);
}

// --- Label index and VerifySession::applyEdits ----------------------------

TEST(VerifySession, ApplyEditsVersionsDirtySetAndBitStats) {
  const Graph g = pathGraph(4);  // edges 0:{0,1} 1:{1,2} 2:{2,3}
  const auto ids = IdAssignment::identity(4);
  const std::vector<std::string> labels = {"aa", "bb", "cc"};
  VerifySession session(g, ids, labels, makeConnectivity());
  EXPECT_EQ(session.storeVersion(), 0u);
  ParallelExecutor exec(1);
  SimulationResult r = session.verifyAll(exec);
  EXPECT_EQ(r.maxLabelBits, 16u);
  EXPECT_EQ(r.totalLabelBits, 48u);

  // Grow one label, shrink another: dirty set = endpoints, ascending and
  // deduplicated (vertex 2 touches both edits once).
  const std::vector<EdgeLabelEdit> batch1 = {{1, "dddd"}, {2, "e"}};
  const std::vector<VertexId> dirty = session.applyEdits(batch1);
  EXPECT_EQ(dirty, (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(session.storeVersion(), 1u);
  EXPECT_EQ(session.label(1), "dddd");
  EXPECT_EQ(session.label(2), "e");
  r = session.reverify(dirty, exec);
  EXPECT_EQ(r.maxLabelBits, 32u);
  EXPECT_EQ(r.totalLabelBits, (2 + 4 + 1) * 8u);

  // A later edit of the same edge wins; the version bumps once per batch.
  const std::vector<EdgeLabelEdit> batch2 = {{1, "x"}, {0, "a"}, {1, "yyy"}};
  EXPECT_EQ(session.applyEdits(batch2), (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(session.label(1), "yyy");
  EXPECT_EQ(session.storeVersion(), 2u);
  r = session.reverifyEdits({}, exec);
  EXPECT_EQ(r.maxLabelBits, 24u);
  EXPECT_EQ(r.totalLabelBits, (1 + 3 + 1) * 8u);

  // Empty batches are no-ops; out-of-range batches apply NOTHING.
  EXPECT_TRUE(session.applyEdits({}).empty());
  EXPECT_EQ(session.storeVersion(), 2u);
  const std::vector<EdgeLabelEdit> bad = {{0, "zz"}, {7, "x"}};
  EXPECT_THROW((void)session.applyEdits(bad), std::out_of_range);
  const std::vector<EdgeLabelEdit> negative = {{0, "zz"}, {-1, "x"}};
  EXPECT_THROW((void)session.applyEdits(negative), std::out_of_range);
  EXPECT_EQ(session.label(0), "a");
  EXPECT_EQ(session.storeVersion(), 2u);
  r = session.reverifyEdits({}, exec);
  EXPECT_EQ(r.totalLabelBits, (1 + 3 + 1) * 8u);
}

TEST(LabelIndex, RefreshedIndexRowsMatchFreshRebuild) {
  Rng rng(7);
  auto bp = randomBoundedPathwidth(24, 2, 0.4, rng);
  std::vector<std::string> labels;
  for (EdgeId e = 0; e < bp.graph.numEdges(); ++e) {
    labels.push_back("label-" + std::to_string(e));
  }
  ParallelExecutor exec(2);
  VertexLabelIndex idx = buildIncidentEdgeIndex(bp.graph, labels, exec);

  // Rewrites that move a label's bytes (it outgrows its capacity) and
  // re-sort its rows; the refresh re-points exactly the endpoints' rows.
  labels[0] = "zzz-resorts-last" + std::string(256, 'z');
  labels[3] = "AAA";
  labels[0] = "000-resorts-first" + std::string(512, '0');
  std::vector<VertexId> dirty;
  for (const EdgeId e : {0, 3}) {
    dirty.push_back(bp.graph.edge(e).u);
    dirty.push_back(bp.graph.edge(e).v);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  refreshIncidentEdgeRows(idx, bp.graph, labels, dirty);

  const VertexLabelIndex fresh = buildIncidentEdgeIndex(bp.graph, labels, exec);
  ASSERT_EQ(idx.rowPtr, fresh.rowPtr);
  for (VertexId v = 0; v < bp.graph.numVertices(); ++v) {
    const auto a = idx.row(v);
    const auto b = fresh.row(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]);
      EXPECT_EQ(a[i].data(), b[i].data());  // both alias the live strings
    }
  }
}

// --- VerifySession: API contracts -----------------------------------------

TEST(VerifySession, ApiContracts) {
  const Graph g = pathGraph(5);
  const auto ids = IdAssignment::identity(5);
  const auto prop = makeConnectivity();
  EXPECT_THROW(VerifySession(g, ids, {"only-one"}, prop),
               std::invalid_argument);

  const auto proved = proveCore(g, ids, *prop, nullptr, 1);
  ASSERT_TRUE(proved.propertyHolds);
  VerifySession session(g, ids, proved.labels, prop);
  EXPECT_FALSE(session.swept());
  EXPECT_EQ(session.storeVersion(), 0u);

  // reverify before any sweep is a contract violation...
  ParallelExecutor exec(1);
  const std::vector<VertexId> dirty = {0};
  EXPECT_THROW((void)session.reverify(dirty, exec), std::logic_error);
  // ...but reverifyEdits falls back to the initial full sweep.
  EXPECT_TRUE(session.reverifyEdits({}, 1).allAccept);
  EXPECT_TRUE(session.swept());
  EXPECT_GT(session.sweepCacheSize(), 0u);

  const std::vector<VertexId> outOfRange = {99};
  EXPECT_THROW((void)session.reverify(outOfRange, exec), std::out_of_range);
  const std::vector<EdgeLabelEdit> badEdit = {{99, "x"}};
  EXPECT_THROW((void)session.applyEdits(badEdit), std::out_of_range);

  const std::vector<EdgeLabelEdit> edit = {{0, "garbage"}};
  const SimulationResult r = session.reverifyEdits(edit, 1);
  EXPECT_EQ(session.storeVersion(), 1u);
  EXPECT_FALSE(r.allAccept);
  EXPECT_EQ(session.label(0), "garbage");
  EXPECT_EQ(session.verdicts().size(), static_cast<std::size_t>(5));
}

// --- VerifySession: equivalence with fresh sweeps -------------------------

TEST(VerifySession, RandomEditSequencesMatchFreshSweepsAllThreadCounts) {
  Rng rng(515);
  auto bp = randomBoundedPathwidth(48, 2, 0.4, rng);
  const auto ids = IdAssignment::random(48, 9);
  const auto prop = makeConnectivity();
  const auto proved = proveCore(bp.graph, ids, *prop, nullptr, 1);
  ASSERT_TRUE(proved.propertyHolds);
  const auto verifier = makeCoreVerifier(prop);

  // One session per thread count, run in lockstep through the same batches;
  // each step compares every session against ONE fresh reference sweep
  // (fresh sweeps are thread-invariant, asserted by test_runtime.cpp).
  const std::vector<int> threadCounts = {1, 2, 4, 8};
  std::vector<std::unique_ptr<VerifySession>> sessions;
  for (std::size_t i = 0; i < threadCounts.size(); ++i) {
    sessions.push_back(std::make_unique<VerifySession>(bp.graph, ids,
                                                       proved.labels, prop));
  }
  std::vector<std::string> labels = proved.labels;  // mirror of the truth
  {
    const auto want = simulateEdgeScheme(bp.graph, ids, labels, verifier);
    ASSERT_TRUE(want.allAccept);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      expectSameResult(sessions[i]->verifyAll(threadCounts[i]), want);
    }
  }

  const int m = bp.graph.numEdges();
  for (int step = 0; step < 24; ++step) {
    std::vector<EdgeLabelEdit> batch;
    const int count = rng.uniformInt(1, 4);
    for (int j = 0; j < count; ++j) {
      const auto e = static_cast<EdgeId>(rng.uniformInt(0, m - 1));
      std::string bytes = labels[static_cast<std::size_t>(e)];
      switch (bytes.empty() ? 3 : rng.uniformInt(0, 4)) {
        case 0: {  // flip one byte: size-preserving, the in-place path
          const auto at = static_cast<std::size_t>(
              rng.uniformInt(0, static_cast<int>(bytes.size()) - 1));
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniformInt(0, 7)));
          break;
        }
        case 1:  // grow: trailing junk must reject, never crash
          bytes += "junk";
          break;
        case 2:  // shrink: truncated certificates
          bytes.resize(bytes.size() / 2);
          break;
        case 3:  // restore the honest label (verdicts flip back to accept)
          bytes = proved.labels[static_cast<std::size_t>(e)];
          break;
        case 4: {  // a certificate claiming a self-loop (endA == endB)
          EdgeLabel tampered =
              EdgeLabel::decode(proved.labels[static_cast<std::size_t>(e)]);
          tampered.own.endB = tampered.own.endA;
          bytes = tampered.encoded();
          break;
        }
      }
      batch.push_back(EdgeLabelEdit{e, std::move(bytes)});
    }
    // Mirror in submission order: later edits to the same edge win.
    for (const EdgeLabelEdit& ed : batch) {
      labels[static_cast<std::size_t>(ed.edge)] = ed.bytes;
    }
    const auto want = simulateEdgeScheme(bp.graph, ids, labels, verifier);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      expectSameResult(sessions[i]->reverifyEdits(batch, threadCounts[i]),
                       want);
    }
  }
}

TEST(VerifySession, DegenerateGraphs) {
  const auto prop = makeConnectivity();

  // Single vertex, no edges: the empty batch runs the initial sweep.
  {
    const Graph g(1);
    const auto ids = IdAssignment::identity(1);
    const auto want = simulateEdgeScheme(g, ids, {}, makeCoreVerifier(prop));
    VerifySession session(g, ids, {}, prop);
    expectSameResult(session.reverifyEdits({}, 1), want);
    expectSameResult(session.reverifyEdits({}, 4), want);  // idempotent
  }

  // Two vertices, one edge: corrupt, then restore; both endpoints dirty.
  {
    Graph g(2);
    g.addEdge(0, 1);
    const auto ids = IdAssignment::random(2, 3);
    const auto proved = proveCore(g, ids, *prop, nullptr, 1);
    ASSERT_TRUE(proved.propertyHolds);
    const auto verifier = makeCoreVerifier(prop);
    VerifySession session(g, ids, proved.labels, prop);
    expectSameResult(session.verifyAll(2),
                     simulateEdgeScheme(g, ids, proved.labels, verifier));

    std::vector<std::string> labels = proved.labels;
    labels[0] = std::string("\x01\x02", 2);
    const std::vector<EdgeLabelEdit> corrupt = {{0, labels[0]}};
    expectSameResult(session.reverifyEdits(corrupt, 4),
                     simulateEdgeScheme(g, ids, labels, verifier));

    const std::vector<EdgeLabelEdit> restore = {{0, proved.labels[0]}};
    expectSameResult(
        session.reverifyEdits(restore, 1),
        simulateEdgeScheme(g, ids, proved.labels, verifier));
  }

  // Star: the hub is dirty under every edit, leaves only for their own edge.
  {
    const Graph g = caterpillar(1, 6);
    const auto ids = IdAssignment::random(g.numVertices(), 11);
    const auto proved = proveCore(g, ids, *prop, nullptr, 1);
    ASSERT_TRUE(proved.propertyHolds);
    const auto verifier = makeCoreVerifier(prop);
    VerifySession session(g, ids, proved.labels, prop);
    session.verifyAll(1);
    std::vector<std::string> labels = proved.labels;
    for (EdgeId e = 0; e < g.numEdges(); e += 2) {
      labels[static_cast<std::size_t>(e)].resize(1);
      const std::vector<EdgeLabelEdit> batch = {
          {e, labels[static_cast<std::size_t>(e)]}};
      expectSameResult(session.reverifyEdits(batch, 2),
                       simulateEdgeScheme(g, ids, labels, verifier));
    }
  }
}

TEST(VerifySession, SharedExecutorAndDirectDirtyListMatchFreshSweeps) {
  // The issue-facing signature: reverify(dirtyVertices, executor) with an
  // explicitly borrowed executor (the serving layer's calling convention).
  Rng rng(99);
  auto bp = randomBoundedPathwidth(32, 2, 0.4, rng);
  const auto ids = IdAssignment::random(32, 4);
  const auto prop = makeConnectivity();
  const auto proved = proveCore(bp.graph, ids, *prop, nullptr, 1);
  ASSERT_TRUE(proved.propertyHolds);
  const auto verifier = makeCoreVerifier(prop);

  WorkerPool pool(3);
  ParallelExecutor exec(pool);
  VerifySession session(bp.graph, ids, proved.labels, prop);
  session.verifyAll(exec);

  std::vector<std::string> labels = proved.labels;
  labels[5][0] = static_cast<char>(labels[5][0] ^ 0x40);
  const std::vector<EdgeLabelEdit> batch = {{5, labels[5]}};
  const std::vector<VertexId> dirty = session.applyEdits(batch);
  const Edge& edited = bp.graph.edge(5);
  EXPECT_EQ(dirty, (std::vector<VertexId>{
                       std::min(edited.u, edited.v),
                       std::max(edited.u, edited.v)}));
  expectSameResult(session.reverify(dirty, exec),
                   simulateEdgeScheme(bp.graph, ids, labels, verifier));
  EXPECT_EQ(session.storeVersion(), 1u);
}

// --- Sustained edits -------------------------------------------------------

TEST(VerifySession, SustainedEditsStayExact) {
  // A long alternating-size edit stream (the soak workload in miniature).
  // Each grow step appends 4 KiB, so the grown label outruns its capacity
  // and its bytes move; each restore shrinks it in place.  Either way the
  // CSR rows of the edited edges' endpoints must be re-pointed before the
  // next sweep, so every batch is compared with a fresh sweep.
  Rng rng(21);
  auto bp = randomBoundedPathwidth(32, 2, 0.4, rng);
  const Graph& g = bp.graph;
  const auto ids = IdAssignment::random(g.numVertices(), 9);
  const auto prop = makeConnectivity();
  const auto proved = proveCore(g, ids, *prop, nullptr, 1);
  ASSERT_TRUE(proved.propertyHolds);
  const auto verifier = makeCoreVerifier(prop);

  VerifySession session(g, ids, proved.labels, prop);
  session.verifyAll(2);

  std::vector<std::string> labels = proved.labels;
  const std::vector<EdgeId> edited = {1, 4, 7};
  const std::string garbage(4096, 'g');
  for (int round = 0; round < 120; ++round) {
    std::vector<EdgeLabelEdit> batch;
    for (const EdgeId e : edited) {
      // Grow on even rounds, restore the honest bytes on odd rounds.
      labels[static_cast<std::size_t>(e)] =
          (round % 2 == 0)
              ? proved.labels[static_cast<std::size_t>(e)] + garbage
              : proved.labels[static_cast<std::size_t>(e)];
      batch.push_back({e, labels[static_cast<std::size_t>(e)]});
    }
    const SimulationResult got = session.reverifyEdits(batch, 2);
    EXPECT_EQ(got.allAccept, round % 2 == 1) << "round " << round;
    expectSameResult(got, simulateEdgeScheme(g, ids, labels, verifier));
  }
  EXPECT_EQ(session.storeVersion(), 120u);
}

}  // namespace
}  // namespace lanecert
