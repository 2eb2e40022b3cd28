#pragma once
// Deterministic parallel execution for the prover/verifier hot paths, built
// in two layers:
//
//  * WorkerPool — a long-lived pool of parked worker threads draining a
//    two-priority task queue.  It knows nothing about shards or
//    determinism; it only runs closures.  One pool can be shared by many
//    concurrent pipelines (the batched serving layer multiplexes every
//    in-flight job's shard waves over a single pool, amortizing thread
//    wake-ups across requests).
//
//  * ParallelExecutor — the deterministic fork-join primitive the rest of
//    the codebase calls.  Work is split into CONTIGUOUS, ORDERED shards
//    whose per-shard outputs the caller merges by ascending shard index.
//    Shard boundaries depend only on (n, shardCount), never on thread
//    scheduling, so `numThreads = 1` and `numThreads = 8` produce the same
//    merged result on every input.  An executor either OWNS a private pool
//    (the classic `ParallelExecutor(numThreads)` used by standalone calls)
//    or BORROWS a shared WorkerPool (the serving path) — the fork-join
//    semantics are identical either way.
//
// Workers pull shard indices from an atomic counter and the calling thread
// participates, so requesting more shards than cores (or running on a
// single-core box) is safe — it only changes who executes a shard, not what
// the shard computes.  Because the caller always participates, a pool
// thread may itself issue forShards on the pool it runs on without
// deadlock: it claims every unclaimed shard itself if no other worker is
// free.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace lanecert {

/// Resolves a thread-count knob: values <= 0 mean "use the hardware".
[[nodiscard]] int resolveThreadCount(int requested);

/// Long-lived pool of parked worker threads over a two-priority FIFO queue.
///
/// `post` enqueues at the back; `postUrgentCopies` enqueues at the FRONT,
/// which forShards uses for shard helpers so in-flight fork-join waves
/// complete before queued coarse-grained tasks (e.g. new serving jobs) are
/// admitted.
/// Tasks must not block waiting for OTHER queued tasks except through the
/// forShards caller-participation protocol above.
///
/// The destructor stops the workers after their current task and DISCARDS
/// anything still queued; owners that queue meaningful work (the batch
/// scheduler) must drain before destruction.
class WorkerPool {
 public:
  /// Spawns exactly `workers` threads (0 is allowed: post() then only
  /// stores tasks for callers that execute them inline, which
  /// ParallelExecutor does).
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int workerCount() const {
    return static_cast<int>(workers_.size());
  }

  void post(std::function<void()> task);
  /// Posts `count` copies of `task` at the front under ONE lock acquisition
  /// and ONE wake broadcast (the fork-join fast path).
  void postUrgentCopies(std::size_t count, const std::function<void()>& task);

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

/// Deterministic fork-join over an owned or borrowed WorkerPool.
class ParallelExecutor {
 public:
  /// Owns a private pool of `numThreads - 1` workers; the calling thread is
  /// the remaining slot.  `numThreads <= 0` resolves to
  /// std::thread::hardware_concurrency().
  explicit ParallelExecutor(int numThreads = 0);
  /// Borrows `pool`; shards = pool.workerCount() + 1 (the caller
  /// participates).  The pool must outlive the executor.  Cheap to
  /// construct — the serving layer makes one per job.
  explicit ParallelExecutor(WorkerPool& pool);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  [[nodiscard]] int numThreads() const { return numThreads_; }

  /// fn(shard, begin, end): shard `s` covers the half-open index range
  /// [begin, end).  Shards partition [0, n) contiguously in order, one per
  /// thread slot; fn is invoked at most once per shard, possibly
  /// concurrently.  Exceptions thrown by fn are rethrown here (first one
  /// wins).  Blocks until every shard has finished.
  void forShards(
      std::size_t n,
      const std::function<void(std::size_t shard, std::size_t begin,
                               std::size_t end)>& fn);

  /// The half-open item range of `shard` out of `shards` over [0, n);
  /// deterministic in its arguments alone.  This is THE partition contract
  /// of the repository: in-process sweeps shard by it, and the dist layer
  /// uses the same function for its per-process vertex partitions
  /// (src/dist/dist_verifier.hpp) — so byte-identity across process counts
  /// rests on this mapping never depending on anything but (n, shards,
  /// shard).  Changing it is a cross-layer breaking change.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> shardRange(
      std::size_t n, std::size_t shards, std::size_t shard);

 private:
  struct Job;

  std::unique_ptr<WorkerPool> owned_;  ///< null when borrowing
  WorkerPool* pool_;                   ///< owned_.get() or the borrowed pool
  int numThreads_;
};

}  // namespace lanecert
