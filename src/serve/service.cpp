#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/verifier.hpp"
#include "serve/fault.hpp"
#include "snapshot/snapshot.hpp"

namespace lanecert::serve {

namespace {

/// Completed plans and completed results kept per cache (FIFO eviction).
constexpr std::size_t kMaxCachedPlans = 16;
constexpr std::size_t kMaxCachedResults = 64;

}  // namespace

LaneCertService::LaneCertService(ServiceOptions options)
    : options_(options),
      pool_(std::max(1, resolveThreadCount(options.numThreads))),
      snapshots_(options.snapshotDir.empty()
                     ? nullptr
                     : std::make_unique<snapshot::SnapshotStore>(
                           options.snapshotDir)),
      sched_(pool_) {}

LaneCertService::~LaneCertService() = default;  // sched_ drains first

void LaneCertService::drain() { sched_.drain(); }

void LaneCertService::flushSnapshotWrites() {
  if (snapshots_) snapshots_->flushWrites();
}

std::shared_ptr<const ProvePlan> LaneCertService::loadSnapshot(
    const Graph& g, const IntervalRepresentation* rep) {
  if (!snapshots_) return nullptr;
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const ProvePlan> plan;
  try {
    // Fired INSIDE the try: a snapshot fault (or any load error) must
    // degrade to a fresh build, never fail the prove.
    FaultInjector::fire(FaultSite::kSnapshotLoad);
    plan = snapshots_->tryLoad(g, rep);
  } catch (...) {
    plan = nullptr;
  }
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - t0;
  std::lock_guard<std::mutex> lock(statsMu_);
  stats_.snapshotLoadMs += elapsed.count();
  if (plan != nullptr) {
    ++stats_.snapshotHits;
  } else {
    ++stats_.snapshotMisses;
  }
  return plan;
}

std::size_t LaneCertService::cancelPending() { return sched_.cancelPending(); }

ServiceStats LaneCertService::stats() const {
  std::lock_guard<std::mutex> lock(statsMu_);
  return stats_;
}

void LaneCertService::bump(std::uint64_t ServiceStats::* counter) {
  std::lock_guard<std::mutex> lock(statsMu_);
  ++(stats_.*counter);
}

void LaneCertService::admitOrReject() {
  if (options_.maxQueueDepth == 0) return;
  const std::size_t backlog = sched_.pendingCount();
  if (backlog < options_.maxQueueDepth) return;
  bump(&ServiceStats::rejectedJobs);
  // Retry-after scales with how far past the limit the backlog is: a just-
  // saturated queue suggests an immediate retry, a deep one a longer pause.
  // A hint, not a reservation — the client may still be rejected again.
  const auto hint = std::chrono::milliseconds(
      1 + (backlog - options_.maxQueueDepth) * 2);
  throw RejectedError(hint);
}

void LaneCertService::publishPlan(
    const std::string& key,
    const std::shared_ptr<std::promise<std::shared_ptr<const ProvePlan>>>&
        promise,
    const std::shared_ptr<const ProvePlan>& plan) {
  {
    std::lock_guard<std::mutex> lock(planMu_);
    const auto [it, inserted] = plans_.try_emplace(key, plan);
    if (inserted) {
      planOrder_.push_back(key);
      while (planOrder_.size() > kMaxCachedPlans) {
        plans_.erase(planOrder_.front());
        planOrder_.pop_front();
      }
    }
    planInFlight_.erase(key);
  }
  promise->set_value(plan);
}

CoreProveResult LaneCertService::runProve(const ProveJob& job) {
  const IntervalRepresentation* rep = job.rep ? &*job.rep : nullptr;
  if (job.graph.numVertices() <= 1) {
    // Degenerate graphs never reach the plan stage; the standalone prover
    // short-circuits them identically.
    return proveCore(job.graph, job.ids, *job.property, rep, 1);
  }
  ParallelExecutor exec(pool_);
  const std::string key = planKey(job.graph, rep);
  std::shared_ptr<const ProvePlan> plan;
  std::shared_future<std::shared_ptr<const ProvePlan>> inFlight;
  std::shared_ptr<std::promise<std::shared_ptr<const ProvePlan>>> promise;
  {
    std::lock_guard<std::mutex> lock(planMu_);
    const auto it = plans_.find(key);
    if (it != plans_.end()) {
      plan = it->second;
    } else {
      const auto fit = planInFlight_.find(key);
      if (fit != planInFlight_.end()) {
        inFlight = fit->second;
      } else {
        promise =
            std::make_shared<std::promise<std::shared_ptr<const ProvePlan>>>();
        planInFlight_.emplace(key, promise->get_future().share());
      }
    }
  }
  if (plan) {
    bump(&ServiceStats::planCacheHits);
    return proveCore(job.graph, job.ids, *job.property, *plan, exec);
  }
  if (inFlight.valid()) {
    // Coalesce onto the running plan build.  The builder is an admitted job
    // that always makes progress even when every worker is blocked here —
    // its forShards degrade to caller-executed shards — so this wait cannot
    // deadlock.  A failed build rethrows the builder's error into every
    // coalesced job; retries start a fresh build.
    bump(&ServiceStats::planBuildsCoalesced);
    plan = inFlight.get();
    return proveCore(job.graph, job.ids, *job.property, *plan, exec);
  }
  // Builder role: answer from the snapshot store when a valid on-disk plan
  // exists (warm start: the whole plan stage — including the interval
  // decomposition — is skipped), otherwise build it.  Coalesced waiters get
  // the plan through the promise either way, before this job's own waves
  // start.
  if (auto snap = loadSnapshot(job.graph, rep)) {
    publishPlan(key, promise, snap);
    return proveCore(job.graph, job.ids, *job.property, *snap, exec);
  }
  bump(&ServiceStats::planBuilds);
  try {
    // Fired INSIDE the try: a fault here follows the failed-build path, so
    // coalesced waiters see the error and a retry starts a fresh build.
    FaultInjector::fire(FaultSite::kPlanBuild);
    plan = std::make_shared<const ProvePlan>(
        buildProvePlan(job.graph, rep, &exec));
    publishPlan(key, promise, plan);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(planMu_);
      planInFlight_.erase(key);
    }
    promise->set_exception(std::current_exception());
    throw;
  }
  // Write-behind: encode + write happen on the store's own writer thread,
  // off the serving path.
  if (snapshots_) {
    snapshots_->persistAsync(snapshot::planSnapshotKey(job.graph, rep), plan);
  }
  return proveCore(job.graph, job.ids, *job.property, *plan, exec);
}

SimulationResult LaneCertService::runVerify(const VerifyJob& job) {
  if (!job.labels) {
    throw std::invalid_argument("VerifyJob: null label payload");
  }
  FaultInjector::fire(FaultSite::kDecode);
  ParallelExecutor exec(pool_);
  FaultInjector::fire(FaultSite::kSweep);
  return simulateEdgeScheme(job.graph, job.ids, *job.labels,
                            makeCoreVerifier(job.property, job.params), exec);
}

template <typename T>
void LaneCertService::finishCacheEntry(ResultCache<T>& cache,
                                       const std::string& key, bool success) {
  if (key.empty()) return;
  std::lock_guard<std::mutex> lock(cache.mu);
  if (!success) {
    // Failed or cancelled: evict so a retry recomputes instead of replaying
    // the stored exception forever.
    cache.entries.erase(key);
    return;
  }
  cache.completed.push_back(key);
  if (cache.completed.size() > kMaxCachedResults) {
    cache.entries.erase(cache.completed.front());
    cache.completed.pop_front();
  }
}

template <typename T, typename Job, typename Run>
std::shared_future<T> LaneCertService::submitImpl(
    ResultCache<T>& cache, std::string key, std::shared_ptr<const void> pin,
    Job job, Run run) {
  auto prom = std::make_shared<std::promise<T>>();
  std::shared_future<T> fut = prom->get_future().share();
  if (!key.empty()) {
    std::lock_guard<std::mutex> lock(cache.mu);
    const auto [it, inserted] = cache.entries.try_emplace(
        key, typename ResultCache<T>::Slot{fut, std::move(pin)});
    if (!inserted) {
      // Identical request already cached or in flight: share its result.
      bump(&ServiceStats::resultCacheHits);
      return it->second.future;
    }
  }
  const std::size_t cost = estimatedCost(*job);
  auto keyPtr = std::make_shared<std::string>(std::move(key));
  sched_.submit(
      cost,
      /*run=*/
      [this, &cache, keyPtr, job = std::move(job), prom, run] {
        bool success = false;
        try {
          // Dispatch-time deadline: an expired job fails without running
          // (the work itself is the unit of interruption, never split).
          if (job->options.expired()) {
            bump(&ServiceStats::deadlineExpiredJobs);
            throw DeadlineExceededError{};
          }
          prom->set_value(run(*job));
          success = true;
        } catch (...) {
          prom->set_exception(std::current_exception());
        }
        finishCacheEntry(cache, *keyPtr, success);
      },
      /*cancel=*/
      [this, &cache, keyPtr, prom] {
        prom->set_exception(std::make_exception_ptr(CancelledError{}));
        finishCacheEntry(cache, *keyPtr, /*success=*/false);
        bump(&ServiceStats::cancelledJobs);
      });
  return fut;
}

std::shared_future<CoreProveResult> LaneCertService::submitProve(ProveJob job) {
  admitOrReject();
  // Deadline-carrying jobs never share results: one caller's deadline must
  // not fail a future another caller coalesced onto.
  std::string key = options_.enableResultCache && !job.options.deadline
                        ? proveJobKey(job)
                        : std::string{};
  auto jobPtr = std::make_shared<const ProveJob>(std::move(job));
  return submitImpl<CoreProveResult>(
      proveCache_, std::move(key), /*pin=*/nullptr, std::move(jobPtr),
      [this](const ProveJob& j) {
        auto result = runProve(j);
        bump(&ServiceStats::proveJobsCompleted);
        return result;
      });
}

std::uint64_t LaneCertService::openVerifySession(VerifyJob job) {
  if (!job.labels) {
    throw std::invalid_argument("VerifyJob: null label payload");
  }
  FaultInjector::fire(FaultSite::kDecode);
  auto entry = std::make_shared<VerifySessionEntry>();
  entry->fullSweepCost = estimatedCost(job);
  // The session copies the payload into its own store (the VerifySession
  // constructor takes the vector by value), so session edits never touch
  // the caller's buffer — payload-identity keys of plain verify jobs stay
  // valid.
  entry->session = std::make_unique<VerifySession>(
      std::move(job.graph), std::move(job.ids), *job.labels,
      std::move(job.property), job.params);
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(sessionsMu_);
    id = nextSessionId_++;
    sessions_.emplace(id, std::move(entry));
  }
  bump(&ServiceStats::sessionsOpened);
  return id;
}

std::shared_ptr<LaneCertService::VerifySessionEntry>
LaneCertService::findSession(std::uint64_t session) const {
  std::lock_guard<std::mutex> lock(sessionsMu_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    throw std::invalid_argument("serve: unknown or closed verify session");
  }
  return it->second;
}

std::uint64_t LaneCertService::sessionStoreVersion(
    std::uint64_t session) const {
  const std::shared_ptr<VerifySessionEntry> entry = findSession(session);
  std::lock_guard<std::mutex> lock(entry->mu);
  return entry->versionMirror;
}

SweepCacheStats LaneCertService::sessionCacheStats(
    std::uint64_t session) const {
  return findSession(session)->session->cacheStats();
}

void LaneCertService::closeVerifySession(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(sessionsMu_);
  sessions_.erase(session);  // drivers hold shared_ptrs; state stays valid
}

std::shared_future<SimulationResult> LaneCertService::submitReverify(
    ReverifyJob job) {
  admitOrReject();
  const std::shared_ptr<VerifySessionEntry> entry = findSession(job.session);
  std::lock_guard<std::mutex> lock(entry->mu);
  // Until the session has COMPLETED a full sweep (not merely had one
  // queued — a cancelled or failed first batch leaves it unswept), any
  // batch runs the initial whole-graph sweep regardless of its edit list,
  // and must be costed like one; afterwards a batch costs its dirty set.
  const std::size_t cost =
      entry->sweptMirror ? estimatedCost(job) : entry->fullSweepCost;
  auto prom = std::make_shared<std::promise<SimulationResult>>();
  std::shared_future<SimulationResult> fut = prom->get_future().share();
  entry->queue.push_back(VerifySessionEntry::PendingBatch{
      std::move(job.edits), job.options, std::move(prom)});
  if (!entry->running) {
    // One driver per session at a time keeps batches FIFO whatever the
    // scheduler's cost order does to OTHER jobs, and makes the "small
    // reverify waits on large reverify of the same session" case a queue
    // wait instead of a scheduler-slot deadlock.
    entry->running = true;
    sched_.submit(
        cost, [this, entry] { runSessionDriver(entry); },
        [this, entry] { cancelSessionQueue(entry); });
  }
  return fut;
}

void LaneCertService::runSessionDriver(
    const std::shared_ptr<VerifySessionEntry>& entry) {
  while (true) {
    VerifySessionEntry::PendingBatch batch;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      if (entry->queue.empty()) {
        entry->running = false;
        return;
      }
      batch = std::move(entry->queue.front());
      entry->queue.pop_front();
    }
    std::exception_ptr error;
    SimulationResult result;
    try {
      if (batch.options.expired()) {
        bump(&ServiceStats::deadlineExpiredJobs);
        throw DeadlineExceededError{};
      }
      FaultInjector::fire(FaultSite::kSweep);
      ParallelExecutor exec(pool_);
      result = entry->session->reverifyEdits(batch.edits, exec);
    } catch (...) {
      error = std::current_exception();
    }
    {
      // Mirror BEFORE resolving the promise, so a client that just
      // observed its future sees the matching version.
      std::lock_guard<std::mutex> lock(entry->mu);
      entry->versionMirror = entry->session->storeVersion();
      entry->sweptMirror = entry->session->swept();
    }
    if (error) {
      batch.promise->set_exception(error);
    } else {
      // Counted before resolving, like prove and verify jobs, so a client
      // that just observed its future sees its own batch in stats().
      bump(&ServiceStats::reverifyBatchesCompleted);
      batch.promise->set_value(std::move(result));
    }
  }
}

void LaneCertService::cancelSessionQueue(
    const std::shared_ptr<VerifySessionEntry>& entry) {
  std::deque<VerifySessionEntry::PendingBatch> dropped;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    dropped.swap(entry->queue);
    entry->running = false;
  }
  // Outside the lock, mirroring cancelPending(): promise observers may call
  // back into the service.
  for (VerifySessionEntry::PendingBatch& b : dropped) {
    b.promise->set_exception(std::make_exception_ptr(CancelledError{}));
    bump(&ServiceStats::cancelledJobs);
  }
}

std::shared_future<SimulationResult> LaneCertService::submitVerify(
    VerifyJob job) {
  admitOrReject();
  std::string key = options_.enableResultCache && !job.options.deadline
                        ? verifyJobKey(job)
                        : std::string{};
  auto jobPtr = std::make_shared<const VerifyJob>(std::move(job));
  // The label payload is identity-keyed, so the cache entry must keep it
  // alive for as long as the key exists.
  std::shared_ptr<const void> pin = jobPtr->labels;
  return submitImpl<SimulationResult>(
      verifyCache_, std::move(key), std::move(pin), std::move(jobPtr),
      [this](const VerifyJob& j) {
        auto result = runVerify(j);
        bump(&ServiceStats::verifyJobsCompleted);
        return result;
      });
}

}  // namespace lanecert::serve
