// Tests for the runtime subsystem: the deterministic shard executor, the
// zero-copy label store, degenerate simulator inputs (empty graphs, label
// count mismatches, self-loop certificates), and the central property of
// the parallel sweep — numThreads never changes the SimulationResult.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/records.hpp"
#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "interval/interval.hpp"
#include "mso/properties.hpp"
#include "pls/classic.hpp"
#include "pls/scheme.hpp"
#include "runtime/arena.hpp"
#include "runtime/executor.hpp"
#include "runtime/flat_map.hpp"
#include "runtime/label_index.hpp"

namespace lanecert {
namespace {

// --- Executor ---

TEST(Executor, ShardRangesPartitionTheIndexSpace) {
  for (std::size_t n : {0u, 1u, 5u, 8u, 17u, 1000u}) {
    for (std::size_t shards : {1u, 2u, 3u, 8u, 13u}) {
      std::size_t expectedBegin = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto [begin, end] = ParallelExecutor::shardRange(n, shards, s);
        EXPECT_EQ(begin, expectedBegin);
        EXPECT_LE(begin, end);
        expectedBegin = end;
      }
      EXPECT_EQ(expectedBegin, n);  // shards cover [0, n) exactly
    }
  }
}

TEST(Executor, ForShardsVisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ParallelExecutor exec(threads);
    EXPECT_EQ(exec.numThreads(), threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> visits(kN);
    exec.forShards(kN, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
  }
}

TEST(Executor, ForShardsIsReusableAndPropagatesExceptions) {
  ParallelExecutor exec(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        exec.forShards(100,
                       [](std::size_t, std::size_t begin, std::size_t) {
                         if (begin == 0) throw std::runtime_error("boom");
                       }),
        std::runtime_error);
    std::atomic<int> total{0};
    exec.forShards(100, [&](std::size_t, std::size_t begin, std::size_t end) {
      total += static_cast<int>(end - begin);
    });
    EXPECT_EQ(total.load(), 100);
  }
}

// --- WorkerPool / borrowed executors ---

TEST(WorkerPool, RunsPostedTasksAndUrgentTasksJumpTheQueue) {
  // One worker, gated by a start latch: everything posted before the gate
  // opens executes in a deterministic order — urgent tasks from the front,
  // normal tasks from the back.
  WorkerPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool gateOpen = false;
  std::vector<int> order;
  bool done = false;
  pool.post([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gateOpen; });
  });
  pool.post([&] { order.push_back(1); });
  pool.post([&] { order.push_back(2); });
  pool.postUrgentCopies(1, [&] { order.push_back(0); });
  pool.post([&] {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  {
    std::lock_guard<std::mutex> lock(mu);
    gateOpen = true;
  }
  cv.notify_all();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(WorkerPool, BorrowedExecutorMatchesOwnedExecutor) {
  WorkerPool pool(3);
  ParallelExecutor borrowed(pool);
  EXPECT_EQ(borrowed.numThreads(), 4);  // workers + the calling thread
  constexpr std::size_t kN = 777;
  std::vector<std::atomic<int>> visits(kN);
  borrowed.forShards(kN, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(WorkerPool, ConcurrentForShardsOverOneSharedPool) {
  // Many fork-join calls multiplexed over one pool — the serving layer's
  // exact usage.  Every call must still visit its own index space exactly
  // once, regardless of interleaving.
  WorkerPool pool(4);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&pool, &failures, c] {
      ParallelExecutor exec(pool);
      const std::size_t n = 200 + static_cast<std::size_t>(c) * 37;
      for (int round = 0; round < 5; ++round) {
        std::vector<std::atomic<int>> visits(n);
        exec.forShards(n, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < n; ++i) {
          if (visits[i].load() != 1) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(WorkerPool, NestedForShardsFromAPoolTaskDoesNotDeadlock) {
  // A pool task that itself forks over the same pool (a serving driver
  // running its job's shard waves) must make progress even when every
  // worker is busy: the caller claims all unclaimed shards itself.
  WorkerPool pool(2);
  std::promise<int> result;
  pool.post([&pool, &result] {
    ParallelExecutor exec(pool);
    std::atomic<int> total{0};
    exec.forShards(100, [&](std::size_t, std::size_t begin, std::size_t end) {
      total += static_cast<int>(end - begin);
    });
    result.set_value(total.load());
  });
  EXPECT_EQ(result.get_future().get(), 100);
}

// --- Arena ---

TEST(Arena, AllocationsAreDisjointAndAligned) {
  Arena arena(64);
  const auto a = arena.allocSpan<std::uint64_t>(10);
  const auto b = arena.allocSpan<std::uint8_t>(3);
  const auto c = arena.allocSpan<std::uint64_t>(5);
  ASSERT_EQ(a.size(), 10u);
  ASSERT_EQ(b.size(), 3u);
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % alignof(std::uint64_t),
            0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % alignof(std::uint64_t),
            0u);
  // Value-initialized, and writes to one span never alias another.
  for (std::uint64_t v : a) EXPECT_EQ(v, 0u);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 1000 + i;
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = 2000 + i;
  b[0] = 0xff;
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], 1000 + i);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], 2000 + i);
}

TEST(Arena, ResetReusesCapacity) {
  Arena arena(128);
  std::size_t warmCapacity = 0;
  for (int round = 0; round < 4; ++round) {
    arena.reset();
    for (int i = 0; i < 50; ++i) {
      const auto s = arena.allocSpan<std::uint64_t>(7);
      ASSERT_EQ(s.size(), 7u);
      s[0] = static_cast<std::uint64_t>(i);
    }
    if (round == 0) {
      warmCapacity = arena.capacityBytes();
      continue;
    }
    // Steady state: no new blocks after the first round's warm-up.
    EXPECT_EQ(arena.capacityBytes(), warmCapacity);
  }
}

TEST(Arena, ZeroSizedSpanIsEmpty) {
  Arena arena;
  EXPECT_TRUE(arena.allocSpan<int>(0).empty());
}

TEST(Arena, GrowsBeyondFirstBlock) {
  Arena arena(16);  // tiny first block forces growth
  const auto big = arena.allocSpan<std::uint64_t>(1000);
  ASSERT_EQ(big.size(), 1000u);
  big[999] = 42;
  EXPECT_EQ(big[999], 42u);
  EXPECT_GE(arena.capacityBytes(), 8000u);
}

// --- Label index ---

TEST(LabelIndex, ViewsMatchLabelsAndBitsAreTallied) {
  // Path 0-1-2-3-4: edge e = {e, e+1}, so edge labels and vertex labels
  // both index the same four-plus-one strings.
  const Graph g = pathGraph(5);
  const std::vector<std::string> labels = {"abcd", "", "x", std::string("\0z", 2),
                                           "vertex-4"};
  ParallelExecutor exec(2);
  const std::span<const std::string> edgeLabels(labels.data(), 4);
  const VertexLabelIndex incident = buildIncidentEdgeIndex(g, edgeLabels, exec);
  const VertexLabelIndex neighbor = buildNeighborIndex(g, labels, exec);
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    std::vector<std::string_view> wantIncident, wantNeighbor;
    for (const Arc& a : g.arcs(v)) {
      wantIncident.emplace_back(labels[static_cast<std::size_t>(a.edge)]);
      wantNeighbor.emplace_back(labels[static_cast<std::size_t>(a.to)]);
    }
    std::sort(wantIncident.begin(), wantIncident.end());
    std::sort(wantNeighbor.begin(), wantNeighbor.end());
    const auto gotIncident = incident.row(v);
    const auto gotNeighbor = neighbor.row(v);
    ASSERT_EQ(gotIncident.size(), wantIncident.size());
    ASSERT_EQ(gotNeighbor.size(), wantNeighbor.size());
    for (std::size_t i = 0; i < wantIncident.size(); ++i) {
      EXPECT_EQ(gotIncident[i], wantIncident[i]);
      // Zero-copy: every view aliases the caller's string.
      EXPECT_EQ(gotIncident[i].data(), wantIncident[i].data());
    }
    for (std::size_t i = 0; i < wantNeighbor.size(); ++i) {
      EXPECT_EQ(gotNeighbor[i], wantNeighbor[i]);
      EXPECT_EQ(gotNeighbor[i].data(), wantNeighbor[i].data());
    }
  }
  const LabelBits bits = labelBits(edgeLabels);
  EXPECT_EQ(bits.maxBits, 32u);
  EXPECT_EQ(bits.totalBits, (4u + 0u + 1u + 2u) * 8u);
  EXPECT_EQ(labelBits({}).maxBits, 0u);
}

TEST(FlatMapTest, InsertFindOverwrite) {
  FlatMap<int, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_TRUE(m.tryEmplace(3, 30).second);
  EXPECT_TRUE(m.tryEmplace(1, 10).second);
  EXPECT_FALSE(m.tryEmplace(3, 99).second);
  ASSERT_NE(m.find(3), nullptr);
  EXPECT_EQ(*m.find(3), 30);
  m.insertOrAssign(3, 99);
  EXPECT_EQ(*m.find(3), 99);
  // Iteration is sorted by key.
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{1, 3}));
}

// --- Degenerate simulator inputs ---

TEST(Simulation, EmptyGraphAcceptsVacuously) {
  const Graph g(0);
  const auto ids = IdAssignment::identity(0);
  const std::vector<std::string> noLabels;
  const auto edge = simulateEdgeScheme(
      g, ids, noLabels, [](const EdgeView&) { return false; });
  EXPECT_TRUE(edge.allAccept);
  EXPECT_TRUE(edge.rejecting.empty());
  EXPECT_EQ(edge.maxLabelBits, 0u);
  EXPECT_EQ(edge.totalLabelBits, 0u);
  const auto vertex = simulateVertexScheme(
      g, ids, noLabels, [](const VertexView&) { return false; });
  EXPECT_TRUE(vertex.allAccept);
}

TEST(Simulation, EdgelessGraphPresentsEmptyViews) {
  const Graph g(4);  // 4 isolated vertices, 0 edges
  const auto ids = IdAssignment::identity(4);
  int calls = 0;
  const auto res = simulateEdgeScheme(
      g, ids, {}, [&calls](const EdgeView& view) {
        ++calls;
        return view.incidentLabels.empty();
      });
  EXPECT_TRUE(res.allAccept);
  EXPECT_EQ(calls, 4);
}

TEST(Simulation, LabelCountMismatchThrows) {
  const Graph g = pathGraph(3);  // 3 vertices, 2 edges
  const auto ids = IdAssignment::identity(3);
  const std::vector<std::string> labels(3, "x");  // 3 labels != 2 edges
  EXPECT_THROW(
      (void)simulateEdgeScheme(g, ids, labels,
                               [](const EdgeView&) { return true; }),
      std::invalid_argument);
  const std::vector<std::string> vlabels(2, "x");  // 2 labels != 3 vertices
  EXPECT_THROW(
      (void)simulateVertexScheme(g, ids, vlabels,
                                 [](const VertexView&) { return true; }),
      std::invalid_argument);
}

TEST(Simulation, SelfLoopCertificateRejectedEndToEnd) {
  // Tamper an honest core-scheme label so one edge's certificate claims a
  // self-loop (endA == endB); the verifier must reject some vertex, never
  // crash.
  const Graph g = caterpillar(6, 1);
  const auto ids = IdAssignment::random(g.numVertices(), 21);
  const auto proved = proveCore(g, ids, *makeForest(), nullptr);
  ASSERT_TRUE(proved.propertyHolds);
  const auto verifier = makeCoreVerifier(makeForest());
  ASSERT_TRUE(simulateEdgeScheme(g, ids, proved.labels, verifier).allAccept);

  auto labels = proved.labels;
  EdgeLabel tampered = EdgeLabel::decode(labels[0]);
  tampered.own.endB = tampered.own.endA;
  labels[0] = tampered.encoded();
  EXPECT_FALSE(simulateEdgeScheme(g, ids, labels, verifier).allAccept);
}

// --- Thread-count invariance of the parallel sweep ---

void expectSameResult(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.allAccept, b.allAccept);
  EXPECT_EQ(a.rejecting, b.rejecting);
  EXPECT_EQ(a.maxLabelBits, b.maxLabelBits);
  EXPECT_EQ(a.totalLabelBits, b.totalLabelBits);
}

TEST(ParallelSweep, CoreSchemeIdenticalAcrossThreadCounts) {
  Rng rng(2026);
  for (int trial = 0; trial < 3; ++trial) {
    auto bp = randomBoundedPathwidth(40 + 20 * trial, 2, 0.4, rng);
    const auto rep = IntervalRepresentation::fromPairs(bp.intervals);
    const auto ids = IdAssignment::random(bp.graph.numVertices(),
                                          1000 + static_cast<unsigned>(trial));
    const auto proved =
        proveCore(bp.graph, ids, *makeConnectivity(), &rep);
    ASSERT_TRUE(proved.propertyHolds);
    const auto verifier = makeCoreVerifier(makeConnectivity());

    // Honest labels and several adversarial mutations of them.
    std::vector<std::vector<std::string>> corpora{proved.labels};
    for (int m = 0; m < 10; ++m) {
      auto mutated = proved.labels;
      if (mutateLabels(mutated, static_cast<Mutation>(m % 5), rng)) {
        corpora.push_back(std::move(mutated));
      }
    }
    for (const auto& labels : corpora) {
      const auto seq = simulateEdgeScheme(bp.graph, ids, labels, verifier,
                                          SimulationOptions{1});
      for (int threads : {2, 8}) {
        const auto par = simulateEdgeScheme(bp.graph, ids, labels, verifier,
                                            SimulationOptions{threads});
        expectSameResult(seq, par);
      }
    }
  }
}

TEST(ParallelSweep, VertexSchemeIdenticalAcrossThreadCounts) {
  Rng rng(7);
  const Graph g = randomConnected(60, 0.08, rng);
  const auto ids = IdAssignment::random(60, 77);
  // Bipartite verifier over random (mostly wrong) labelings: a rich mix of
  // accepting and rejecting vertices to exercise the merge.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::string> labels;
    for (int v = 0; v < 60; ++v) {
      labels.push_back(rng.flip(0.5) ? std::string("\1", 1)
                                     : std::string("\0", 1));
    }
    const auto seq = simulateVertexScheme(g, ids, labels, bipartiteVerifier(),
                                          SimulationOptions{1});
    const auto par = simulateVertexScheme(g, ids, labels, bipartiteVerifier(),
                                          SimulationOptions{8});
    expectSameResult(seq, par);
  }
}

TEST(ParallelSweep, ProveAndVerifyAcceptsWithManyThreads) {
  const Graph g = gridGraph(4, 5);
  const auto ids = IdAssignment::random(g.numVertices(), 5);
  const auto seq = proveAndVerifyEdges(g, ids, makeConnectivity(), nullptr, {},
                                       SimulationOptions{1});
  const auto par = proveAndVerifyEdges(g, ids, makeConnectivity(), nullptr, {},
                                       SimulationOptions{8});
  ASSERT_TRUE(seq.propertyHolds);
  ASSERT_TRUE(par.propertyHolds);
  expectSameResult(seq.sim, par.sim);
  EXPECT_TRUE(par.sim.allAccept);
}

}  // namespace
}  // namespace lanecert
