// Serve-layer fault tolerance: deadlines, admission control, bounded
// retry, and graceful degradation under injected faults.
//
// The invariant every test here circles back to: a future the service ever
// RETURNED resolves — with a value or a typed error from serve/errors.hpp —
// no matter what faults fire, what deadlines expire, or when the caller
// cancels.  Nothing hangs, and a poisoned job never takes the pool or a
// session down with it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/prover.hpp"
#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "serve/errors.hpp"
#include "serve/fault.hpp"
#include "serve/service.hpp"

namespace lanecert {
namespace {

using namespace std::chrono_literals;
using serve::CancelledError;
using serve::DeadlineExceededError;
using serve::FaultInjector;
using serve::FaultScope;
using serve::FaultSite;
using serve::JobOptions;
using serve::LaneCertService;
using serve::ProveJob;
using serve::RejectedError;
using serve::ReverifyJob;
using serve::ServiceOptions;
using serve::TransientError;
using serve::VerifyJob;

struct Fixture {
  Graph graph;
  IdAssignment ids;
  PropertyPtr property;
  CoreProveResult expected;
  std::shared_ptr<const std::vector<std::string>> payload;
};

Fixture cycleFixture(int n = 12, int seed = 5) {
  Fixture f{cycleGraph(n), IdAssignment::random(n, seed), makeConnectivity(),
            {}, nullptr};
  f.expected = proveCore(f.graph, f.ids, *f.property, nullptr, 1);
  f.payload =
      std::make_shared<const std::vector<std::string>>(f.expected.labels);
  return f;
}

JobOptions expiredDeadline() {
  JobOptions o;
  o.deadline = std::chrono::steady_clock::now() - 1h;
  return o;
}

JobOptions futureDeadline() {
  JobOptions o;
  o.deadline = std::chrono::steady_clock::now() + 1h;
  return o;
}

TEST(ServeDeadline, ExpiredJobFailsTypedWithoutRunning) {
  const Fixture f = cycleFixture();
  LaneCertService service(ServiceOptions{});
  auto fut =
      service.submitProve(ProveJob{f.graph, f.ids, f.property, {},
                                   expiredDeadline()});
  EXPECT_THROW((void)fut.get(), DeadlineExceededError);
  service.drain();
  const auto s = service.stats();
  EXPECT_EQ(s.deadlineExpiredJobs, 1u);
  EXPECT_EQ(s.proveJobsCompleted, 0u);  // the work never ran
}

TEST(ServeDeadline, FutureDeadlineCompletesNormally) {
  const Fixture f = cycleFixture();
  LaneCertService service(ServiceOptions{});
  auto fut = service.submitProve(
      ProveJob{f.graph, f.ids, f.property, {}, futureDeadline()});
  EXPECT_EQ(fut.get().labels, f.expected.labels);
  EXPECT_EQ(service.stats().deadlineExpiredJobs, 0u);
}

TEST(ServeDeadline, DeadlineJobsNeverShareResults) {
  // A deadline-carrying job must not coalesce onto (or seed) the result
  // cache: both submissions compute.
  const Fixture f = cycleFixture();
  LaneCertService service(ServiceOptions{});
  auto a = service.submitProve(ProveJob{f.graph, f.ids, f.property, {}});
  auto b = service.submitProve(
      ProveJob{f.graph, f.ids, f.property, {}, futureDeadline()});
  EXPECT_EQ(a.get().labels, f.expected.labels);
  EXPECT_EQ(b.get().labels, f.expected.labels);
  service.drain();
  const auto s = service.stats();
  EXPECT_EQ(s.resultCacheHits, 0u);
  EXPECT_EQ(s.proveJobsCompleted, 2u);
}

TEST(ServeDeadline, ExpiredReverifyBatchFailsAndSessionSurvives) {
  const Fixture f = cycleFixture();
  LaneCertService service(ServiceOptions{});
  const std::uint64_t sid = service.openVerifySession(
      VerifyJob{f.graph, f.ids, f.payload, f.property, {}});
  auto dead = service.submitReverify(ReverifyJob{sid, {}, expiredDeadline()});
  EXPECT_THROW((void)dead.get(), DeadlineExceededError);
  // The driver moves on: the next batch on the same session completes.
  auto ok = service.submitReverify(ReverifyJob{sid, {}});
  EXPECT_TRUE(ok.get().allAccept);
  EXPECT_EQ(service.stats().deadlineExpiredJobs, 1u);
}

TEST(ServeBackpressure, SaturatedQueueRejectsWithRetryAfter) {
  const Fixture f = cycleFixture();
  // One worker, one slot, depth 1: job A runs (held inside a fault hook),
  // job B waits in the backlog, job C must be turned away synchronously.
  ServiceOptions opts;
  opts.numThreads = 1;
  opts.maxConcurrentJobs = 1;
  opts.maxQueueDepth = 1;
  opts.enableResultCache = false;  // B must queue, not coalesce with A
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  FaultScope scope([&](FaultSite site) {
    if (site != FaultSite::kSweep) return;
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    LaneCertService service(opts);
    auto a = service.submitVerify(
        VerifyJob{f.graph, f.ids, f.payload, f.property, {}});
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return started; });  // A is RUNNING, not pending
    }
    auto b = service.submitVerify(
        VerifyJob{f.graph, f.ids, f.payload, f.property, {}});
    try {
      (void)service.submitVerify(
          VerifyJob{f.graph, f.ids, f.payload, f.property, {}});
      FAIL() << "expected RejectedError";
    } catch (const RejectedError& e) {
      EXPECT_GE(e.retryAfter().count(), 1);
    }
    EXPECT_EQ(service.stats().rejectedJobs, 1u);
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    EXPECT_TRUE(a.get().allAccept);
    EXPECT_TRUE(b.get().allAccept);
  }
}

TEST(ServeFault, PoisonedProveFailsItsFutureOnly) {
  const Fixture f = cycleFixture();
  LaneCertService service(ServiceOptions{});
  {
    FaultScope scope([](FaultSite site) {
      if (site == FaultSite::kPlanBuild) throw TransientError{};
    });
    auto poisoned =
        service.submitProve(ProveJob{f.graph, f.ids, f.property, {}});
    EXPECT_THROW((void)poisoned.get(), TransientError);
    service.drain();
  }
  // Failed results are evicted, the pool survived: the retry computes.
  auto retry = service.submitProve(ProveJob{f.graph, f.ids, f.property, {}});
  EXPECT_EQ(retry.get().labels, f.expected.labels);
}

TEST(ServeFault, FailedPlanBuildFailsItsCoalescedWaiters) {
  // The waiter side of a failed plan build: the builder is held inside the
  // kPlanBuild hook until a second cache miss on the same graph has joined
  // its in-flight build (a different property, so the RESULTS do not
  // coalesce), then the build throws.  Both futures fail typed, the
  // in-flight slot is gone, and a retry builds afresh.
  const Fixture f = cycleFixture();
  ServiceOptions opts;
  opts.numThreads = 2;
  opts.maxConcurrentJobs = 2;  // the waiter runs while the builder is held
  LaneCertService service(opts);
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool release = false;
  {
    FaultScope scope([&](FaultSite site) {
      if (site != FaultSite::kPlanBuild) return;
      std::unique_lock<std::mutex> lock(mu);
      held = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      throw TransientError{};
    });
    auto builder =
        service.submitProve(ProveJob{f.graph, f.ids, f.property, {}});
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return held; });
    }
    auto waiter =
        service.submitProve(ProveJob{f.graph, f.ids, makeForest(), {}});
    // The coalesced counter is bumped just before the waiter blocks on the
    // in-flight future, so from here on it can only see the build's fate.
    while (service.stats().planBuildsCoalesced < 1) {
      std::this_thread::sleep_for(1ms);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    EXPECT_THROW((void)builder.get(), TransientError);
    EXPECT_THROW((void)waiter.get(), TransientError);
    service.drain();
  }
  EXPECT_EQ(service.stats().planBuilds, 1u);
  auto retry = service.submitProve(ProveJob{f.graph, f.ids, f.property, {}});
  EXPECT_EQ(retry.get().labels, f.expected.labels);
  EXPECT_EQ(service.stats().planBuilds, 2u);
}

TEST(ServeFault, EverySiteFailsTyped) {
  const Fixture f = cycleFixture();
  for (const FaultSite site :
       {FaultSite::kDecode, FaultSite::kPlanBuild, FaultSite::kSweep}) {
    LaneCertService service(ServiceOptions{});
    FaultScope scope([site](FaultSite fired) {
      if (fired == site) throw TransientError{};
    });
    auto prove = service.submitProve(ProveJob{f.graph, f.ids, f.property, {}});
    auto verify = service.submitVerify(
        VerifyJob{f.graph, f.ids, f.payload, f.property, {}});
    if (site == FaultSite::kPlanBuild) {
      EXPECT_THROW((void)prove.get(), TransientError)
          << serve::faultSiteName(site);
    } else {
      EXPECT_EQ(prove.get().labels, f.expected.labels);
    }
    if (site == FaultSite::kDecode || site == FaultSite::kSweep) {
      EXPECT_THROW((void)verify.get(), TransientError)
          << serve::faultSiteName(site);
    } else {
      EXPECT_TRUE(verify.get().allAccept);
    }
    if (site == FaultSite::kDecode) {
      EXPECT_THROW((void)service.openVerifySession(VerifyJob{
                       f.graph, f.ids, f.payload, f.property, {}}),
                   TransientError);
    }
    service.drain();
  }
}

TEST(ServeFault, ReverifyRetriesTransientThenSucceeds) {
  const Fixture f = cycleFixture();
  LaneCertService service(ServiceOptions{});
  const std::uint64_t sid = service.openVerifySession(
      VerifyJob{f.graph, f.ids, f.payload, f.property, {}});
  std::atomic<int> sweepFires{0};
  FaultScope scope([&](FaultSite site) {
    if (site == FaultSite::kSweep && ++sweepFires <= 2) throw TransientError{};
  });
  JobOptions retrying;
  retrying.maxAttempts = 3;
  retrying.retryBackoff = 1ms;
  auto fut = service.submitReverify(ReverifyJob{sid, {}, retrying});
  EXPECT_TRUE(fut.get().allAccept);
  service.drain();
  EXPECT_EQ(service.stats().transientRetries, 2u);
}

TEST(ServeFault, ReverifyExhaustsRetriesThenSessionSurvives) {
  const Fixture f = cycleFixture();
  LaneCertService service(ServiceOptions{});
  const std::uint64_t sid = service.openVerifySession(
      VerifyJob{f.graph, f.ids, f.payload, f.property, {}});
  {
    FaultScope scope([](FaultSite site) {
      if (site == FaultSite::kSweep) throw TransientError{};
    });
    JobOptions retrying;
    retrying.maxAttempts = 2;
    retrying.retryBackoff = 1ms;
    auto fut = service.submitReverify(ReverifyJob{sid, {}, retrying});
    EXPECT_THROW((void)fut.get(), TransientError);
    service.drain();
    EXPECT_EQ(service.stats().transientRetries, 1u);
  }
  // The exhausted batch poisoned nothing: the session still serves.
  auto fut = service.submitReverify(ReverifyJob{sid, {}});
  EXPECT_TRUE(fut.get().allAccept);
}

TEST(ServeFault, NonFaultedPathBitIdenticalAcrossThreadCounts) {
  // The fault seams, deadline checks, and admission control sit OUTSIDE the
  // deterministic compute path: with no fault armed, results stay
  // bit-identical to the single-thread standalone reference at every pool
  // size (admission knobs on or off).
  const Fixture f = cycleFixture(20, 9);
  for (const int threads : {1, 2, 4}) {
    ServiceOptions opts;
    opts.numThreads = threads;
    opts.maxQueueDepth = 64;  // on, but never reached
    LaneCertService service(opts);
    auto prove = service.submitProve(ProveJob{f.graph, f.ids, f.property, {}});
    auto verify = service.submitVerify(
        VerifyJob{f.graph, f.ids, f.payload, f.property, {}});
    EXPECT_EQ(prove.get().labels, f.expected.labels) << threads;
    EXPECT_TRUE(verify.get().allAccept) << threads;
  }
}

TEST(ServeFault, EveryFutureResolvesUnderChaos) {
  // The headline property test: a storm of jobs under randomly-firing
  // transient faults, expired deadlines, and a mid-flight cancelPending().
  // Every future must come back READY with a value or a typed error.
  const Fixture f = cycleFixture();
  std::atomic<std::uint32_t> fires{0};
  FaultScope scope([&](FaultSite) {
    // Deterministic pseudo-random ~1/3 failure rate, any site.
    if ((fires.fetch_add(1, std::memory_order_relaxed) * 2654435761u) % 3 ==
        0) {
      throw TransientError{};
    }
  });
  ServiceOptions opts;
  opts.numThreads = 2;
  LaneCertService service(opts);
  std::vector<std::shared_future<CoreProveResult>> proves;
  std::vector<std::shared_future<SimulationResult>> sims;
  std::uint64_t sid = 0;
  EXPECT_NO_THROW(sid = [&] {
    // Session open may itself hit the decode fault; retry until it lands.
    while (true) {
      try {
        return service.openVerifySession(
            VerifyJob{f.graph, f.ids, f.payload, f.property, {}});
      } catch (const TransientError&) {
      }
    }
  }());
  for (int i = 0; i < 24; ++i) {
    // Vary the ids seed so requests do not all coalesce into one compute.
    const IdAssignment ids = IdAssignment::random(12, i);
    proves.push_back(
        service.submitProve(ProveJob{f.graph, ids, f.property, {},
                                     i % 5 == 0 ? expiredDeadline()
                                                : JobOptions{}}));
    sims.push_back(
        service.submitVerify(VerifyJob{f.graph, f.ids, f.payload, f.property,
                                       {}, static_cast<std::uint64_t>(i)}));
    JobOptions retrying;
    retrying.maxAttempts = 2;
    retrying.retryBackoff = 1ms;
    sims.push_back(service.submitReverify(ReverifyJob{sid, {}, retrying}));
    if (i == 12) (void)service.cancelPending();
  }
  service.drain();
  auto expectTyped = [](const auto& fut) {
    ASSERT_EQ(fut.wait_for(0s), std::future_status::ready);
    try {
      (void)fut.get();  // a value is fine
    } catch (const TransientError&) {
    } catch (const CancelledError&) {
    } catch (const DeadlineExceededError&) {
    } catch (...) {
      FAIL() << "future failed with an untyped error";
    }
  };
  for (const auto& fut : proves) expectTyped(fut);
  for (const auto& fut : sims) expectTyped(fut);
  service.drain();
}

}  // namespace
}  // namespace lanecert
