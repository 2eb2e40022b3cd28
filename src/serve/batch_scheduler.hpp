#pragma once
// Job admission for the serving pipeline.
//
// The scheduler sits between submit() and the shared WorkerPool: pending
// jobs wait in a smallest-estimated-cost-first queue (FIFO among equals),
// and at most one driver per pool worker runs at once.  Two rules
// make small jobs immune to convoy effects behind large ones:
//
//  * admission order — a cheap job submitted after an expensive one
//    overtakes it while both are still pending;
//  * wave priority — in-flight jobs' shard tasks enter the pool queue at
//    the FRONT (ParallelExecutor::forShards posts urgent), so started waves
//    finish before the pool picks up the next queued driver.
//
// Pure smallest-first starves: under a steady stream of small jobs a large
// one could wait forever (every newcomer overtakes it).  An aging credit
// bounds that — each dispatch that bypasses the OLDEST pending job bumps
// that job's credit, and once the credit reaches kMaxBypass the oldest job
// is dispatched next regardless of cost.  Any job therefore waits at most
// (kMaxBypass + 1) dispatches once it becomes the oldest, and queue
// positions only ever shrink, so every job eventually runs.
//
// Every submitted job is eventually resolved exactly once: `run` on a pool
// thread, or `cancel` inline from cancelPending() for jobs that never
// started.  drain() blocks until the scheduler is idle.

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <utility>

#include "runtime/executor.hpp"

namespace lanecert::serve {

class BatchScheduler {
 public:
  /// Runs at most pool.workerCount() jobs at once (never fewer than 1).
  explicit BatchScheduler(WorkerPool& pool);
  /// Drains; the pool must still be alive (the service owns both and
  /// declares the scheduler after the pool).
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Queues a job.  `run` executes on a pool thread and must not throw
  /// (wrap the real work and route errors into the job's promise);
  /// `cancel` is invoked instead — inline — if the job is discarded by
  /// cancelPending() before it started.
  void submit(std::size_t cost, std::function<void()> run,
              std::function<void()> cancel);

  /// Blocks until no job is pending or in flight.
  void drain();

  /// Discards every job that has not started, invoking its `cancel`
  /// callback; running jobs are unaffected.  Returns how many were
  /// cancelled.
  std::size_t cancelPending();

  /// Jobs admitted but not yet started (the backlog admission control in
  /// LaneCertService bounds).  Running jobs do not count.
  [[nodiscard]] std::size_t pendingCount();

  /// Dispatches that may bypass the oldest pending job before it is forced
  /// to the front of the queue.
  static constexpr std::size_t kMaxBypass = 4;

 private:
  struct Entry {
    std::function<void()> run;
    std::function<void()> cancel;
    std::size_t bypassed = 0;  ///< aging credit while this job is oldest
  };
  using Key = std::pair<std::size_t, std::uint64_t>;  ///< (cost, seq)

  /// Starts pending jobs while slots are free.  Requires mu_ held.
  void dispatchLocked();
  void onJobFinished();

  WorkerPool& pool_;
  const int maxConcurrent_;

  std::mutex mu_;
  std::condition_variable idle_;
  std::map<Key, Entry> pending_;
  std::map<std::uint64_t, Key> bySeq_;  ///< submission order -> queue key
  std::uint64_t nextSeq_ = 0;
  int inFlight_ = 0;
};

}  // namespace lanecert::serve
