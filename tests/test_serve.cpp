// Batched serving pipeline: determinism (byte-identical certificates for
// every pool size, submission order, and interleaving), cache correctness,
// shutdown-with-pending-jobs, and the zero-job edge cases.
//
// The invariant under test is the serving layer's core promise: pushing a
// job through LaneCertService — whatever else is in flight — returns
// exactly the bytes the standalone proveCore / simulateEdgeScheme path
// produces with numThreads = 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/prover.hpp"
#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "interval/interval.hpp"
#include "mso/properties.hpp"
#include "runtime/executor.hpp"
#include "runtime/label_store.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/service.hpp"

namespace lanecert {
namespace {

using serve::BatchScheduler;
using serve::CancelledError;
using serve::LaneCertService;
using serve::ProveJob;
using serve::ReverifyJob;
using serve::ServiceOptions;
using serve::VerifyJob;

struct Fixture {
  Graph graph;
  IdAssignment ids;
  PropertyPtr property;
  std::optional<IntervalRepresentation> rep;
  CoreProveResult expected;  ///< standalone single-thread reference
};

Fixture makeFixture(Graph g, IdAssignment ids, PropertyPtr prop,
                    std::optional<IntervalRepresentation> rep = {}) {
  Fixture f{std::move(g), std::move(ids), std::move(prop), std::move(rep), {}};
  f.expected = proveCore(f.graph, f.ids, *f.property,
                         f.rep ? &*f.rep : nullptr, 1);
  return f;
}

std::vector<Fixture> mixedFixtures() {
  std::vector<Fixture> out;
  Rng rng(77);
  auto bp = randomBoundedPathwidth(40, 2, 0.4, rng);
  auto rep = IntervalRepresentation::fromPairs(bp.intervals);
  out.push_back(makeFixture(bp.graph, IdAssignment::random(40, 5),
                            makeConnectivity(), rep));
  out.push_back(makeFixture(bp.graph, IdAssignment::random(40, 6),
                            makeForest(), rep));
  out.push_back(makeFixture(pathGraph(30), IdAssignment::random(30, 7),
                            makePathProperty()));
  out.push_back(makeFixture(cycleGraph(16), IdAssignment::random(16, 8),
                            makeConnectivity()));
  out.push_back(makeFixture(completeGraph(6), IdAssignment::random(6, 9),
                            makeConnectivity()));
  out.push_back(
      makeFixture(Graph(1), IdAssignment::identity(1), makeConnectivity()));
  return out;
}

ProveJob toJob(const Fixture& f) {
  return ProveJob{f.graph, f.ids, f.property, f.rep};
}

void expectMatches(const CoreProveResult& got, const Fixture& f) {
  EXPECT_EQ(got.propertyHolds, f.expected.propertyHolds);
  EXPECT_EQ(got.labels, f.expected.labels);  // byte-identical certificates
  EXPECT_EQ(got.stats.width, f.expected.stats.width);
  EXPECT_EQ(got.stats.numLanes, f.expected.stats.numLanes);
  EXPECT_EQ(got.stats.hierarchyDepth, f.expected.stats.hierarchyDepth);
  EXPECT_EQ(got.stats.maxCongestion, f.expected.stats.maxCongestion);
  EXPECT_EQ(got.stats.maxLabelBits, f.expected.stats.maxLabelBits);
  EXPECT_EQ(got.stats.totalLabelBits, f.expected.stats.totalLabelBits);
}

TEST(Serve, BatchedProveBitIdenticalAcrossPoolSizes) {
  const std::vector<Fixture> fixtures = mixedFixtures();
  for (int poolSize : {1, 2, 4, 8}) {
    LaneCertService service(ServiceOptions{.numThreads = poolSize});
    std::vector<std::shared_future<CoreProveResult>> futures;
    for (const Fixture& f : fixtures) {
      futures.push_back(service.submitProve(toJob(f)));
    }
    for (std::size_t i = 0; i < fixtures.size(); ++i) {
      expectMatches(futures[i].get(), fixtures[i]);
    }
  }
}

TEST(Serve, SubmissionOrderAndInterleavingInvariant) {
  const std::vector<Fixture> fixtures = mixedFixtures();
  LaneCertService service(ServiceOptions{.numThreads = 4});
  // Reverse order on the main thread, forward order from three concurrent
  // client threads — every future must still match the standalone bytes.
  std::vector<std::shared_future<CoreProveResult>> reversed;
  for (auto it = fixtures.rbegin(); it != fixtures.rend(); ++it) {
    reversed.push_back(service.submitProve(toJob(*it)));
  }
  std::vector<std::vector<std::shared_future<CoreProveResult>>> perThread(3);
  std::vector<std::thread> clients;
  for (auto& slot : perThread) {
    clients.emplace_back([&service, &fixtures, &slot] {
      for (const Fixture& f : fixtures) {
        slot.push_back(service.submitProve(toJob(f)));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    expectMatches(reversed[i].get(), fixtures[fixtures.size() - 1 - i]);
    for (const auto& slot : perThread) {
      expectMatches(slot[i].get(), fixtures[i]);
    }
  }
}

TEST(Serve, VerifyJobsMatchStandalone) {
  Rng rng(31);
  auto bp = randomBoundedPathwidth(36, 2, 0.4, rng);
  const auto rep = IntervalRepresentation::fromPairs(bp.intervals);
  const auto ids = IdAssignment::random(36, 11);
  const auto prop = makeConnectivity();
  const auto proved = proveCore(bp.graph, ids, *prop, &rep, 1);
  ASSERT_TRUE(proved.propertyHolds);
  const auto reference =
      simulateEdgeScheme(bp.graph, ids, proved.labels, makeCoreVerifier(prop));
  ASSERT_TRUE(reference.allAccept);

  // A corrupted labeling must reject identically through the service.
  auto corrupted =
      std::make_shared<std::vector<std::string>>(proved.labels);
  (*corrupted)[0][(*corrupted)[0].size() / 2] ^= 0x10;
  const auto referenceBad =
      simulateEdgeScheme(bp.graph, ids, *corrupted, makeCoreVerifier(prop));
  ASSERT_FALSE(referenceBad.allAccept);

  const auto goodLabels =
      std::make_shared<const std::vector<std::string>>(proved.labels);
  for (int poolSize : {1, 4}) {
    LaneCertService service(ServiceOptions{.numThreads = poolSize});
    auto good =
        service.submitVerify(VerifyJob{bp.graph, ids, goodLabels, prop, {}});
    auto bad =
        service.submitVerify(VerifyJob{bp.graph, ids, corrupted, prop, {}});
    const SimulationResult g = good.get();
    EXPECT_TRUE(g.allAccept);
    EXPECT_EQ(g.rejecting, reference.rejecting);
    EXPECT_EQ(g.maxLabelBits, reference.maxLabelBits);
    EXPECT_EQ(g.totalLabelBits, reference.totalLabelBits);
    const SimulationResult b = bad.get();
    EXPECT_FALSE(b.allAccept);
    EXPECT_EQ(b.rejecting, referenceBad.rejecting);
    // Resubmitting the same payload coalesces by identity.
    auto again =
        service.submitVerify(VerifyJob{bp.graph, ids, goodLabels, prop, {}});
    EXPECT_EQ(again.get().rejecting, reference.rejecting);
    service.drain();
    EXPECT_EQ(service.stats().verifyJobsCompleted, 2u);  // good + bad only
  }
}

TEST(Serve, PlanCacheAmortizesAcrossPropertiesAndIds) {
  Rng rng(99);
  auto bp = randomBoundedPathwidth(32, 2, 0.4, rng);
  const auto idsA = IdAssignment::random(32, 1);
  const auto idsB = IdAssignment::random(32, 2);

  // One job slot: jobs run serially, so after the first builds the plan
  // the other three MUST hit (two concurrent jobs may legitimately race
  // the cold cache and both build — the count would then be timing-
  // dependent, which the TSan job's slowdown makes a real flake).
  LaneCertService service(
      ServiceOptions{.numThreads = 2, .maxConcurrentJobs = 1});
  // Same graph, no supplied representation: four jobs, one plan.
  auto f1 = service.submitProve(ProveJob{bp.graph, idsA, makeConnectivity(), {}});
  auto f2 = service.submitProve(ProveJob{bp.graph, idsA, makeForest(), {}});
  auto f3 = service.submitProve(ProveJob{bp.graph, idsB, makeConnectivity(), {}});
  auto f4 = service.submitProve(ProveJob{bp.graph, idsB, makeForest(), {}});
  const auto r1 = f1.get();
  const auto r2 = f2.get();
  const auto r3 = f3.get();
  const auto r4 = f4.get();
  service.drain();
  EXPECT_EQ(service.stats().planCacheHits, 3u);

  // Cached-plan results must equal the standalone cold path bit-for-bit.
  EXPECT_EQ(r1.labels, proveCore(bp.graph, idsA, *makeConnectivity(), nullptr, 1).labels);
  EXPECT_EQ(r2.labels, proveCore(bp.graph, idsA, *makeForest(), nullptr, 1).labels);
  EXPECT_EQ(r3.labels, proveCore(bp.graph, idsB, *makeConnectivity(), nullptr, 1).labels);
  EXPECT_EQ(r4.labels, proveCore(bp.graph, idsB, *makeForest(), nullptr, 1).labels);
}

TEST(Serve, PlanCacheMissStormCoalescesToOneHeadBuild) {
  // A burst of CONCURRENT cache-miss jobs on one graph (distinct ids and
  // properties, so nothing result-coalesces) must run exactly ONE plan
  // build: whichever job wins the in-flight slot builds, every other
  // job either joins that build (planBuildsCoalesced) or arrives after it
  // completed (planCacheHits) — timing decides the split, never the sum,
  // and never the results.
  Rng rng(41);
  auto bp = randomBoundedPathwidth(40, 2, 0.4, rng);
  const int kJobs = 8;
  LaneCertService service(
      ServiceOptions{.numThreads = 4, .maxConcurrentJobs = 4});
  std::vector<std::shared_future<CoreProveResult>> futures;
  std::vector<IdAssignment> ids;
  std::vector<PropertyPtr> props;
  for (int i = 0; i < kJobs; ++i) {
    ids.push_back(IdAssignment::random(40, 100 + static_cast<unsigned>(i)));
    props.push_back(i % 2 == 0 ? makeConnectivity() : makeForest());
    futures.push_back(
        service.submitProve(ProveJob{bp.graph, ids.back(), props.back(), {}}));
  }
  std::vector<CoreProveResult> results;
  for (auto& f : futures) results.push_back(f.get());
  service.drain();

  const auto stats = service.stats();
  EXPECT_EQ(stats.planBuilds, 1u);
  EXPECT_EQ(stats.planCacheHits + stats.planBuildsCoalesced,
            static_cast<std::uint64_t>(kJobs - 1));
  // Every storm participant's output is byte-identical to the standalone
  // single-thread prover.
  for (int i = 0; i < kJobs; ++i) {
    const auto expected =
        proveCore(bp.graph, ids[static_cast<std::size_t>(i)],
                  *props[static_cast<std::size_t>(i)], nullptr, 1);
    EXPECT_EQ(results[static_cast<std::size_t>(i)].labels, expected.labels);
    EXPECT_EQ(results[static_cast<std::size_t>(i)].propertyHolds,
              expected.propertyHolds);
  }
}

TEST(Serve, ResultCacheCoalescesDuplicateRequests) {
  const Graph g = pathGraph(24);
  const auto ids = IdAssignment::random(24, 3);
  LaneCertService service(ServiceOptions{.numThreads = 2});
  std::vector<std::shared_future<CoreProveResult>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(
        service.submitProve(ProveJob{g, ids, makeConnectivity(), {}}));
  }
  const auto expected = proveCore(g, ids, *makeConnectivity(), nullptr, 1);
  for (auto& f : futures) EXPECT_EQ(f.get().labels, expected.labels);
  service.drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.proveJobsCompleted, 1u);  // one computation, five answers
  EXPECT_EQ(stats.resultCacheHits, 4u);
}

TEST(Serve, ShutdownDrainsPendingJobs) {
  const std::vector<Fixture> fixtures = mixedFixtures();
  std::vector<std::shared_future<CoreProveResult>> futures;
  {
    LaneCertService service(ServiceOptions{.numThreads = 1});
    for (const Fixture& f : fixtures) {
      futures.push_back(service.submitProve(toJob(f)));
    }
    // Destructor runs with jobs pending: it must complete them all.
  }
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    expectMatches(futures[i].get(), fixtures[i]);
  }
}

TEST(Serve, CancelPendingFailsUnstartedFutures) {
  Rng rng(13);
  auto big = randomBoundedPathwidth(600, 2, 0.4, rng);
  const auto bigIds = IdAssignment::random(600, 21);
  LaneCertService service(
      ServiceOptions{.numThreads = 1, .maxConcurrentJobs = 1});
  std::vector<std::shared_future<CoreProveResult>> futures;
  // The big job occupies the single slot; the small ones queue behind it.
  futures.push_back(
      service.submitProve(ProveJob{big.graph, bigIds, makeConnectivity(), {}}));
  for (int seed = 0; seed < 4; ++seed) {
    futures.push_back(service.submitProve(ProveJob{
        pathGraph(20), IdAssignment::random(20, 40 + seed),
        makeConnectivity(), {}}));
  }
  const std::size_t cancelled = service.cancelPending();
  EXPECT_GE(cancelled, 1u);
  service.drain();
  EXPECT_EQ(service.stats().cancelledJobs, cancelled);
  std::size_t threw = 0;
  for (auto& f : futures) {
    try {
      const auto r = f.get();
      EXPECT_TRUE(r.propertyHolds);  // completed jobs completed correctly
    } catch (const CancelledError&) {
      ++threw;
    }
  }
  EXPECT_EQ(threw, cancelled);
}

TEST(Serve, ZeroJobsAndIdleDrain) {
  LaneCertService service;
  service.drain();  // idle drain returns immediately
  EXPECT_EQ(service.cancelPending(), 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.proveJobsCompleted, 0u);
  EXPECT_EQ(stats.verifyJobsCompleted, 0u);
  EXPECT_EQ(stats.cancelledJobs, 0u);
}

void expectSameSim(const SimulationResult& got, const SimulationResult& want) {
  EXPECT_EQ(got.allAccept, want.allAccept);
  EXPECT_EQ(got.rejecting, want.rejecting);
  EXPECT_EQ(got.maxLabelBits, want.maxLabelBits);
  EXPECT_EQ(got.totalLabelBits, want.totalLabelBits);
}

TEST(Serve, VerifySessionReverifyMatchesStandalone) {
  Rng rng(57);
  auto bp = randomBoundedPathwidth(40, 2, 0.4, rng);
  const auto ids = IdAssignment::random(40, 15);
  const auto prop = makeConnectivity();
  const auto proved = proveCore(bp.graph, ids, *prop, nullptr, 1);
  ASSERT_TRUE(proved.propertyHolds);
  const auto verifier = makeCoreVerifier(prop);
  const auto payload =
      std::make_shared<const std::vector<std::string>>(proved.labels);

  auto corrupted = proved.labels;
  corrupted[3][corrupted[3].size() / 2] ^= 0x20;
  const auto wantClean = simulateEdgeScheme(bp.graph, ids, proved.labels,
                                            verifier);
  const auto wantCorrupt =
      simulateEdgeScheme(bp.graph, ids, corrupted, verifier);
  ASSERT_TRUE(wantClean.allAccept);
  ASSERT_FALSE(wantCorrupt.allAccept);

  for (int poolSize : {1, 4}) {
    LaneCertService service(ServiceOptions{.numThreads = poolSize});
    const std::uint64_t sid = service.openVerifySession(
        VerifyJob{bp.graph, ids, payload, prop, {}});
    // The empty batch runs the initial full sweep (version untouched).
    expectSameSim(service.submitReverify(ReverifyJob{sid, {}}).get(),
                  wantClean);
    EXPECT_EQ(service.sessionStoreVersion(sid), 0u);
    // Corrupt one edge: only its endpoints are re-checked, the verdicts
    // still cover the whole graph.
    expectSameSim(
        service.submitReverify(ReverifyJob{sid, {{3, corrupted[3]}}}).get(),
        wantCorrupt);
    EXPECT_EQ(service.sessionStoreVersion(sid), 1u);
    // Restore: back to the clean verdicts, version advances again.
    expectSameSim(
        service
            .submitReverify(ReverifyJob{sid, {{3, proved.labels[3]}}})
            .get(),
        wantClean);
    EXPECT_EQ(service.sessionStoreVersion(sid), 2u);
    // Session edits never touch the caller's payload.
    EXPECT_EQ(*payload, proved.labels);

    service.closeVerifySession(sid);
    EXPECT_THROW((void)service.submitReverify(ReverifyJob{sid, {}}),
                 std::invalid_argument);
    EXPECT_THROW((void)service.sessionStoreVersion(sid),
                 std::invalid_argument);
    service.closeVerifySession(sid);  // idempotent

    EXPECT_THROW(
        (void)service.openVerifySession(VerifyJob{bp.graph, ids, {}, prop, {}}),
        std::invalid_argument);
    service.drain();
    EXPECT_EQ(service.stats().sessionsOpened, 1u);
    EXPECT_EQ(service.stats().reverifyBatchesCompleted, 3u);
  }
}

TEST(Serve, SessionSweepCacheStatsSurfaced) {
  Rng rng(57);
  auto bp = randomBoundedPathwidth(40, 2, 0.4, rng);
  const auto ids = IdAssignment::random(40, 15);
  const auto prop = makeConnectivity();
  const auto proved = proveCore(bp.graph, ids, *prop, nullptr, 1);
  const auto payload =
      std::make_shared<const std::vector<std::string>>(proved.labels);

  LaneCertService service(ServiceOptions{.numThreads = 2});
  const std::uint64_t sid =
      service.openVerifySession(VerifyJob{bp.graph, ids, payload, prop, {}});
  // Before any sweep the session's engine has seen nothing.
  EXPECT_EQ(service.sessionCacheStats(sid).entries, 0u);

  (void)service.submitReverify(ReverifyJob{sid, {}}).get();  // full sweep
  const SweepCacheStats after = service.sessionCacheStats(sid);
  EXPECT_GT(after.entries, 0u);
  EXPECT_GT(after.misses, 0u);       // first validation of each entry
  EXPECT_GT(after.hits + after.memoHits, 0u);  // shared upper entries reused

  // The aggregate counters mirror the (single) open session's numbers.
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sweepCacheHits, after.hits);
  EXPECT_EQ(stats.sweepCacheMisses, after.misses);
  EXPECT_EQ(stats.sweepCacheMemoHits, after.memoHits);
  EXPECT_EQ(stats.sweepCacheStripeContention, after.stripeContention);

  // Closing the session drops its contribution and invalidates the handle.
  service.closeVerifySession(sid);
  EXPECT_THROW((void)service.sessionCacheStats(sid), std::invalid_argument);
  service.drain();
  EXPECT_EQ(service.stats().sweepCacheMisses, 0u);
}

TEST(Serve, ReverifyBatchesRunInSubmissionOrder) {
  // Fire a pipeline of batches without waiting on any future; every future
  // must match the fresh sweep of its PREFIX state — smallest-first
  // admission of other jobs must never reorder one session's batches.
  Rng rng(77);
  auto bp = randomBoundedPathwidth(36, 2, 0.4, rng);
  const auto ids = IdAssignment::random(36, 21);
  const auto prop = makeConnectivity();
  const auto proved = proveCore(bp.graph, ids, *prop, nullptr, 1);
  ASSERT_TRUE(proved.propertyHolds);
  const auto verifier = makeCoreVerifier(prop);

  LaneCertService service(ServiceOptions{.numThreads = 2});
  const auto payload =
      std::make_shared<const std::vector<std::string>>(proved.labels);
  const std::uint64_t sid =
      service.openVerifySession(VerifyJob{bp.graph, ids, payload, prop, {}});

  std::vector<std::string> labels = proved.labels;
  std::vector<std::shared_future<SimulationResult>> futures;
  std::vector<SimulationResult> wants;
  futures.push_back(service.submitReverify(ReverifyJob{sid, {}}));
  wants.push_back(simulateEdgeScheme(bp.graph, ids, labels, verifier));
  for (int step = 0; step < 6; ++step) {
    const auto e = static_cast<EdgeId>((step * 5) % bp.graph.numEdges());
    std::string bytes = labels[static_cast<std::size_t>(e)];
    if (step % 2 == 0) {
      bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 1);
    } else {
      bytes = proved.labels[static_cast<std::size_t>(e)];  // restore
    }
    labels[static_cast<std::size_t>(e)] = bytes;
    futures.push_back(
        service.submitReverify(ReverifyJob{sid, {{e, std::move(bytes)}}}));
    wants.push_back(simulateEdgeScheme(bp.graph, ids, labels, verifier));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expectSameSim(futures[i].get(), wants[i]);
  }
}

TEST(Serve, ReverifyDuplicateTailSubmissionsCoalesce) {
  Rng rng(13);
  auto bp = randomBoundedPathwidth(30, 2, 0.4, rng);
  const auto ids = IdAssignment::random(30, 8);
  const auto prop = makeConnectivity();
  const auto proved = proveCore(bp.graph, ids, *prop, nullptr, 1);
  ASSERT_TRUE(proved.propertyHolds);

  // One slot, occupied by a prove job: both duplicate submissions land in
  // the session queue before its driver can start, so the retry MUST
  // coalesce instead of applying the edits twice.
  auto big = randomBoundedPathwidth(400, 2, 0.4, rng);
  LaneCertService service(
      ServiceOptions{.numThreads = 1, .maxConcurrentJobs = 1});
  auto blocker = service.submitProve(
      ProveJob{big.graph, IdAssignment::random(400, 5), makeConnectivity(), {}});
  const std::uint64_t sid =
      service.openVerifySession(VerifyJob{
          bp.graph, ids,
          std::make_shared<const std::vector<std::string>>(proved.labels),
          prop, {}});
  std::string bytes = proved.labels[0];
  bytes[0] = static_cast<char>(bytes[0] ^ 2);
  const ReverifyJob batch{sid, {{0, bytes}}};
  auto first = service.submitReverify(batch);
  auto second = service.submitReverify(batch);
  (void)blocker.get();
  service.drain();
  expectSameSim(first.get(), second.get());
  const auto stats = service.stats();
  EXPECT_EQ(stats.reverifyBatchesCompleted, 1u);
  EXPECT_GE(stats.resultCacheHits, 1u);
  EXPECT_EQ(service.sessionStoreVersion(sid), 1u);  // edits applied ONCE
}

TEST(Serve, VerifyResultCacheCarriesPayloadVersion) {
  // Regression for the staleness hazard: verifyJobKey pins payload
  // IDENTITY, so an in-place rewrite of the buffer used to replay the old
  // verdict forever.  The key now carries the payload's content version —
  // mutate + bump must recompute, equal versions still coalesce.
  Rng rng(31);
  auto bp = randomBoundedPathwidth(30, 2, 0.4, rng);
  const auto ids = IdAssignment::random(30, 11);
  const auto prop = makeConnectivity();
  const auto proved = proveCore(bp.graph, ids, *prop, nullptr, 1);
  ASSERT_TRUE(proved.propertyHolds);

  auto payload = std::make_shared<std::vector<std::string>>(proved.labels);
  LaneCertService service(ServiceOptions{.numThreads = 2});
  auto clean = service.submitVerify(VerifyJob{bp.graph, ids, payload, prop, {}});
  EXPECT_TRUE(clean.get().allAccept);
  service.drain();

  // Rewrite the payload in place (same buffer, new bytes, bumped version).
  (*payload)[0][(*payload)[0].size() / 2] ^= 0x10;
  const VerifyJob bumped{bp.graph, ids, payload, prop, {}, /*labelsVersion=*/1};
  auto recomputed = service.submitVerify(bumped);
  EXPECT_FALSE(recomputed.get().allAccept);
  service.drain();
  EXPECT_EQ(service.stats().verifyJobsCompleted, 2u);
  EXPECT_EQ(service.stats().resultCacheHits, 0u);

  // Identical (identity, version) pairs still deduplicate.
  auto coalesced = service.submitVerify(bumped);
  EXPECT_FALSE(coalesced.get().allAccept);
  service.drain();
  EXPECT_EQ(service.stats().verifyJobsCompleted, 2u);
  EXPECT_EQ(service.stats().resultCacheHits, 1u);
}

TEST(BatchScheduler, AgingPreventsLargeJobStarvation) {
  // A large job against a self-replenishing stream of small ones: pure
  // smallest-first would dispatch every small job first (each newcomer
  // overtakes the large one); the aging credit must force the large job in
  // after at most kMaxBypass bypasses.
  WorkerPool pool(1);
  BatchScheduler sched(pool, 1);
  std::mutex mu;
  std::condition_variable cv;
  bool gateOpen = false;
  std::vector<std::string> order;

  // Occupy the single slot while the queue is primed.
  sched.submit(
      0,
      [&] {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return gateOpen; });
      },
      {});
  sched.submit(
      1000,
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back("big");
      },
      {});
  constexpr int kSmallJobs = 12;
  std::function<void(int)> submitSmall = [&](int i) {
    sched.submit(
        1,
        [&, i] {
          {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back("s" + std::to_string(i));
          }
          if (i + 1 < kSmallJobs) submitSmall(i + 1);  // keep the stream up
        },
        {});
  };
  submitSmall(0);
  {
    std::lock_guard<std::mutex> lock(mu);
    gateOpen = true;
  }
  cv.notify_all();
  sched.drain();

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kSmallJobs) + 1);
  const auto at = std::find(order.begin(), order.end(), "big");
  ASSERT_NE(at, order.end());
  // Exactly kMaxBypass smalls may run first; the stream never starves it.
  EXPECT_LE(static_cast<std::size_t>(at - order.begin()),
            BatchScheduler::kMaxBypass);
}

TEST(Serve, JobErrorsPropagateThroughFutures) {
  Graph disconnected(4);
  disconnected.addEdge(0, 1);  // vertices 2, 3 unreachable
  LaneCertService service(ServiceOptions{.numThreads = 2});
  auto fut = service.submitProve(ProveJob{
      disconnected, IdAssignment::identity(4), makeConnectivity(), {}});
  EXPECT_THROW(fut.get(), std::invalid_argument);
  // The failure is not cached: a retry recomputes (and fails afresh).
  auto again = service.submitProve(ProveJob{
      disconnected, IdAssignment::identity(4), makeConnectivity(), {}});
  EXPECT_THROW(again.get(), std::invalid_argument);
}

}  // namespace
}  // namespace lanecert
