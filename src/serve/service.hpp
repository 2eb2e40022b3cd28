#pragma once
// LaneCertService — batched multi-graph serving on one shared worker pool.
//
// One service owns one persistent WorkerPool.  Clients submit any number of
// concurrent ProveJob / VerifyJob requests, each fully self-contained; the
// batch scheduler admits them smallest-first onto the pool, where every
// job's shard waves (hom-state levels, record encoding, label assembly,
// verification sweeps) run through a borrowed ParallelExecutor over the
// SAME pool — thread wake-ups are amortized across requests instead of
// paying a pool spin-up per call.
//
// Determinism: a job's result is BIT-IDENTICAL to the standalone
// proveCore / simulateEdgeScheme path for every pool size, submission
// order, and interleaving.  The executor's contiguous ordered shards make
// per-job output independent of thread count, jobs share no mutable state,
// and both caches only ever substitute values that are deterministic pure
// functions of the request content:
//
//  * plan cache — the property-independent prover head (interval
//    representation, lane plan, construction sequence, hierarchy) keyed by
//    exact graph + supplied-representation bytes; one graph served under
//    many properties or id assignments plans once.  Cache MISSES coalesce
//    too: the first job builds the plan and publishes it before starting
//    its own waves, so a concurrent miss storm on one graph performs
//    exactly one plan build and every waiter's waves run alongside the
//    builder's;
//  * result cache + request coalescing — identical requests (exact content
//    key, never hash-only) share one computation and one result, whether
//    they arrive concurrently (coalesced) or after completion (cache hit).
//    Failed or cancelled computations are evicted so retries recompute.
//    Verify keys carry the label payload's content VERSION alongside its
//    identity, so a payload edited in place invalidates its stale verify
//    hits instead of serving them.
//
// Verification sessions (incremental re-verification): openVerifySession
// turns a VerifyJob into a persistent VerifySession — the labels are copied
// into a session-owned versioned LabelStore, and subsequent ReverifyJobs
// apply edit batches and re-check only the dirty vertices, with verdicts
// byte-identical to a fresh full sweep over the current labels.  Batches on
// ONE session run strictly in submission order: the registry runs at most
// one scheduler-admitted driver per session at a time (so the smallest-
// first scheduler can never reorder a session's state mutations), while
// different sessions' drivers interleave freely with all other jobs.
// Duplicate submissions of the batch at the queue tail (front-end retries)
// coalesce onto one pending computation via reverifyJobKey.
//
// Shutdown: the destructor DRAINS — every submitted job completes and every
// future becomes ready.  cancelPending() instead discards jobs that have
// not started; their futures fail with CancelledError (for a discarded
// session driver, every batch queued on that session fails).
//
// Fault tolerance (see serve/errors.hpp for the taxonomy): per-job
// deadlines fail un-dispatched jobs with DeadlineExceededError; admission
// control (ServiceOptions::maxQueueDepth) turns submit* calls away with a
// synchronous RejectedError + retry-after hint; session drivers retry
// TransientError batch failures up to JobOptions::maxAttempts with doubling
// backoff (edit batches are absolute label rewrites, so re-running one is
// idempotent).  The invariant all of it preserves: every future the service
// ever RETURNED resolves — with a value or a typed error — even under
// injected faults (serve/fault.hpp) at every stage boundary.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/prover.hpp"
#include "core/verify_session.hpp"
#include "pls/scheme.hpp"
#include "runtime/executor.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/errors.hpp"
#include "serve/job.hpp"

namespace lanecert::snapshot {
class SnapshotStore;
}  // namespace lanecert::snapshot

namespace lanecert::serve {

struct ServiceOptions {
  /// Worker threads of the shared pool; <= 0 resolves to the hardware
  /// concurrency (at least 1 — jobs run on pool threads, never on the
  /// submitter's).
  int numThreads = 0;
  /// Max jobs in flight at once; <= 0 resolves to the pool size.
  int maxConcurrentJobs = 0;
  bool enableResultCache = true;
  /// Admission control: when > 0 and the scheduler backlog (admitted, not
  /// yet started jobs) has reached this depth, submit* throws RejectedError
  /// synchronously instead of queueing — with a retry-after hint scaled by
  /// the backlog.  0 = unlimited (the pre-backpressure behaviour).
  std::size_t maxQueueDepth = 0;
  /// Warm-start persistence (src/snapshot): non-empty enables a
  /// content-addressed plan snapshot store in this directory.  On a plan
  /// cache miss the service tries to mmap the plan from disk BEFORE
  /// building (stats: snapshotHits/snapshotMisses/snapshotLoadMs); after a
  /// fresh build it persists the plan write-behind on the store's own
  /// writer thread.  Corrupt, truncated, or stale files are rejected by
  /// the loader and degrade to a fresh build — never an error.
  std::string snapshotDir;
};

/// Monotonic service counters (snapshot via stats()).
struct ServiceStats {
  std::uint64_t proveJobsCompleted = 0;
  std::uint64_t verifyJobsCompleted = 0;
  std::uint64_t planCacheHits = 0;
  std::uint64_t resultCacheHits = 0;  ///< includes coalesced in-flight hits
  /// Prover plan builds actually RUN (on a cache miss).  A cache-miss
  /// storm on one graph bumps this exactly once.
  std::uint64_t planBuilds = 0;
  /// Cache-miss jobs that joined an IN-FLIGHT plan build instead of
  /// running their own (they receive the plan before the builder's waves
  /// start).
  std::uint64_t planBuildsCoalesced = 0;
  /// Cancelled requests: one per discarded prove/verify job, one per
  /// reverify batch failed by a discarded session driver.
  std::uint64_t cancelledJobs = 0;
  /// submit* calls turned away by admission control (RejectedError).
  std::uint64_t rejectedJobs = 0;
  /// Jobs/batches whose deadline passed before dispatch
  /// (DeadlineExceededError; the work never ran).
  std::uint64_t deadlineExpiredJobs = 0;
  /// TransientError retries performed by session drivers (attempts beyond
  /// each batch's first).
  std::uint64_t transientRetries = 0;
  std::uint64_t sessionsOpened = 0;
  std::uint64_t reverifyBatchesCompleted = 0;
  /// Sweep-entry-cache counters summed over the OPEN verification sessions
  /// at snapshot time (each session's engine keeps its own monotonic
  /// counters; closing a session drops its contribution).
  std::uint64_t sweepCacheHits = 0;
  std::uint64_t sweepCacheMisses = 0;
  /// Per-thread read-memo hits: validations skipped without touching the
  /// striped locks at all.
  std::uint64_t sweepCacheMemoHits = 0;
  /// Stripe-lock probes that found the lock held.
  std::uint64_t sweepCacheStripeContention = 0;
  /// Plan snapshot store (zero unless ServiceOptions::snapshotDir is set):
  /// plan-cache misses answered from a validated on-disk snapshot...
  std::uint64_t snapshotHits = 0;
  /// ...and misses that fell through to a fresh build (no file, or the
  /// loader rejected it).
  std::uint64_t snapshotMisses = 0;
  /// Cumulative wall-clock ms spent in snapshot load attempts (hits AND
  /// misses; divide by the counters for a mean).
  double snapshotLoadMs = 0;
};

class LaneCertService {
 public:
  explicit LaneCertService(ServiceOptions options = {});
  /// Drains: blocks until every submitted job has completed.
  ~LaneCertService();

  LaneCertService(const LaneCertService&) = delete;
  LaneCertService& operator=(const LaneCertService&) = delete;

  /// Queues a prove request; the future carries the full CoreProveResult
  /// (or the prover's exception).  Safe to call from any thread.  Throws
  /// RejectedError synchronously when admission control is on and the
  /// backlog is full.
  std::shared_future<CoreProveResult> submitProve(ProveJob job);
  /// Queues a verification request.  Throws RejectedError like submitProve.
  std::shared_future<SimulationResult> submitVerify(VerifyJob job);

  /// Opens a persistent verification session over the job's configuration;
  /// the label payload is COPIED into the session's own versioned store, so
  /// the caller's buffer is never touched by edits.  Cheap — no sweep runs
  /// until the first ReverifyJob.  Throws std::invalid_argument on a null
  /// payload or a label-count mismatch.
  std::uint64_t openVerifySession(VerifyJob job);
  /// Queues a re-verification batch on an open session (FIFO per session;
  /// an empty batch runs or refreshes the full sweep).  The future carries
  /// the whole-graph SimulationResult over the post-edit labels.  Throws
  /// std::invalid_argument for an unknown/closed session handle.
  std::shared_future<SimulationResult> submitReverify(ReverifyJob job);
  /// Current store version of an open session (0 = never edited).
  [[nodiscard]] std::uint64_t sessionStoreVersion(std::uint64_t session) const;
  /// Sweep-cache counters of ONE open session (throws std::invalid_argument
  /// for an unknown/closed handle).  Snapshot of relaxed atomics: exact
  /// once the session is quiescent, approximate while a sweep runs.
  [[nodiscard]] SweepCacheStats sessionCacheStats(std::uint64_t session) const;
  /// Epoch slots held by ONE open session's label store (soak memory
  /// metric; bounded by the session's auto-compaction).  Same handle and
  /// quiescence caveats as sessionCacheStats.
  [[nodiscard]] std::size_t sessionEpochSlots(std::uint64_t session) const;
  /// Closes a session: the handle becomes invalid for NEW submissions;
  /// batches already queued still complete.  Idempotent.
  void closeVerifySession(std::uint64_t session);

  /// Blocks until no job is pending or running.
  void drain();
  /// Blocks until every write-behind snapshot persist enqueued so far is on
  /// disk.  No-op without ServiceOptions::snapshotDir.  (The destructor
  /// flushes implicitly — the store drains its own writer thread.)
  void flushSnapshotWrites();
  /// Discards not-yet-started jobs (their futures throw CancelledError);
  /// returns how many were discarded.  Running jobs finish normally.
  std::size_t cancelPending();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] int poolWorkers() const { return pool_.workerCount(); }

 private:
  /// One open verification session.  `mu` guards the queue, the running
  /// flag, and the version mirror; the VerifySession itself is only ever
  /// touched by the (single) active driver, so it needs no lock of its
  /// own.  Kept alive by shared_ptr: a driver finishing after close still
  /// has valid state.
  struct VerifySessionEntry {
    struct PendingBatch {
      std::vector<EdgeLabelEdit> edits;
      std::string key;  ///< reverifyJobKey, empty when caching is off
      JobOptions options;
      std::shared_ptr<std::promise<SimulationResult>> promise;
      std::shared_future<SimulationResult> future;
    };
    std::mutex mu;
    std::unique_ptr<VerifySession> session;
    std::deque<PendingBatch> queue;
    bool running = false;           ///< a driver is admitted or active
    bool sweptMirror = false;       ///< session completed a full sweep
    std::uint64_t versionMirror = 0;  ///< store version, readable under mu
    /// Scheduling weight used while the session has not yet COMPLETED a
    /// full sweep: such batches run the initial whole-graph sweep whatever
    /// their edit lists say — costing them like the edits alone would
    /// admit a whole-graph sweep as the cheapest job in the system.
    /// Computed at open time from the payload, mirroring
    /// estimatedCost(VerifyJob).
    std::size_t fullSweepCost = 0;
  };

  template <typename T>
  struct ResultCache {
    struct Slot {
      std::shared_future<T> future;
      /// Keeps identity-keyed payloads (verify labels) alive while the
      /// entry exists, so a key can never alias a recycled address.
      std::shared_ptr<const void> pin;
    };
    std::mutex mu;
    std::unordered_map<std::string, Slot> entries;
    std::deque<std::string> completed;  ///< eviction order (done entries only)
  };

  CoreProveResult runProve(const ProveJob& job);
  SimulationResult runVerify(const VerifyJob& job);
  /// Plan-cache-miss snapshot probe: null when no store is configured, the
  /// file is absent, or validation rejects it.  Never throws (an injected
  /// kSnapshotLoad fault or I/O error degrades to a miss); accounts
  /// snapshotHits/snapshotMisses/snapshotLoadMs.
  [[nodiscard]] std::shared_ptr<const ProvePlan> loadSnapshot(
      const Graph& g, const IntervalRepresentation* rep);
  /// Completes an in-flight plan build: stores the plan in the completed
  /// cache (with eviction), drops the in-flight entry, and wakes waiters.
  void publishPlan(const std::string& key,
                   const std::shared_ptr<std::promise<
                       std::shared_ptr<const ProvePlan>>>& promise,
                   const std::shared_ptr<const ProvePlan>& plan);
  [[nodiscard]] std::shared_ptr<VerifySessionEntry> findSession(
      std::uint64_t session) const;
  void runSessionDriver(const std::shared_ptr<VerifySessionEntry>& entry);
  void cancelSessionQueue(const std::shared_ptr<VerifySessionEntry>& entry);

  template <typename T, typename Job, typename Run>
  std::shared_future<T> submitImpl(ResultCache<T>& cache, std::string key,
                                   std::shared_ptr<const void> pin, Job job,
                                   Run run);
  template <typename T>
  void finishCacheEntry(ResultCache<T>& cache, const std::string& key,
                        bool success);
  void bump(std::uint64_t ServiceStats::* counter);
  /// Admission control: throws RejectedError (and bumps rejectedJobs) when
  /// maxQueueDepth > 0 and the scheduler backlog has reached it.
  void admitOrReject();

  const ServiceOptions options_;
  WorkerPool pool_;
  /// Null unless options_.snapshotDir is set.  Owns its own writer thread
  /// (never the service pool); declared before sched_ so in-flight jobs can
  /// still persist while the scheduler drains during destruction.
  std::unique_ptr<snapshot::SnapshotStore> snapshots_;

  std::mutex planMu_;
  std::unordered_map<std::string, std::shared_ptr<const ProvePlan>> plans_;
  std::deque<std::string> planOrder_;
  /// Plan builds currently running: cache-miss storms on one graph
  /// coalesce onto the first job's build through these futures (fulfilled
  /// when the plan is built, not at job completion).
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const ProvePlan>>>
      planInFlight_;

  ResultCache<CoreProveResult> proveCache_;
  ResultCache<SimulationResult> verifyCache_;

  mutable std::mutex sessionsMu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<VerifySessionEntry>>
      sessions_;
  std::uint64_t nextSessionId_ = 1;

  mutable std::mutex statsMu_;
  ServiceStats stats_;

  BatchScheduler sched_;  ///< declared last: first to drain on destruction
};

}  // namespace lanecert::serve
