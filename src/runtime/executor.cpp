#include "runtime/executor.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace lanecert {

int resolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// ---------------------------------------------------------------------------
// WorkerPool

WorkerPool::WorkerPool(int workers) {
  workers_.reserve(static_cast<std::size_t>(std::max(workers, 0)));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    queue_.clear();  // discarded; owners drain meaningful work first
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void WorkerPool::postUrgentCopies(std::size_t count,
                                  const std::function<void()>& task) {
  if (count == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < count; ++i) queue_.push_front(task);
  }
  if (count == 1) {
    wake_.notify_one();
  } else {
    wake_.notify_all();
  }
}

void WorkerPool::workerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

// ---------------------------------------------------------------------------
// ParallelExecutor

// One forShards invocation.  Helper tasks keep a shared_ptr, so a helper
// that runs late (after the caller already returned) only ever touches its
// own invocation's state and exits immediately once all shards are claimed.
struct ParallelExecutor::Job {
  const std::function<void(std::size_t, std::size_t, std::size_t)>* fn =
      nullptr;
  std::size_t n = 0;
  std::size_t shards = 0;
  std::atomic<std::size_t> next{0};

  std::mutex mu;
  std::condition_variable done;
  std::size_t shardsDone = 0;
  std::exception_ptr firstError;

  void run() {
    while (true) {
      const std::size_t shard = next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= shards) return;
      const auto [begin, end] = shardRange(n, shards, shard);
      try {
        if (begin < end) (*fn)(shard, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!firstError) firstError = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        ++shardsDone;
      }
      done.notify_one();
    }
  }
};

ParallelExecutor::ParallelExecutor(int numThreads)
    : numThreads_(resolveThreadCount(numThreads)) {
  owned_ = std::make_unique<WorkerPool>(numThreads_ - 1);
  pool_ = owned_.get();
}

ParallelExecutor::ParallelExecutor(WorkerPool& pool)
    : pool_(&pool), numThreads_(pool.workerCount() + 1) {}

ParallelExecutor::~ParallelExecutor() = default;

std::pair<std::size_t, std::size_t> ParallelExecutor::shardRange(
    std::size_t n, std::size_t shards, std::size_t shard) {
  const std::size_t base = n / shards;
  const std::size_t rem = n % shards;
  const std::size_t begin = shard * base + std::min(shard, rem);
  const std::size_t size = base + (shard < rem ? 1 : 0);
  return {begin, begin + size};
}

void ParallelExecutor::forShards(
    std::size_t n, const std::function<void(std::size_t, std::size_t,
                                            std::size_t)>& fn) {
  if (n == 0) return;
  if (numThreads_ <= 1 || pool_->workerCount() == 0) {
    fn(0, 0, n);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->shards = static_cast<std::size_t>(numThreads_);
  // No point waking more helpers than there are shards beyond the caller's.
  const std::size_t helpers =
      std::min(job->shards - 1,
               static_cast<std::size_t>(pool_->workerCount()));
  pool_->postUrgentCopies(helpers, [job] { job->run(); });
  job->run();  // the calling thread claims shards too
  std::unique_lock<std::mutex> lock(job->mu);
  job->done.wait(lock, [&] { return job->shardsDone == job->shards; });
  if (job->firstError) std::rethrow_exception(job->firstError);
}

}  // namespace lanecert
