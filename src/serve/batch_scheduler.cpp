#include "serve/batch_scheduler.hpp"

#include <algorithm>
#include <vector>

namespace lanecert::serve {

BatchScheduler::BatchScheduler(WorkerPool& pool)
    : pool_(pool), maxConcurrent_(std::max(1, pool.workerCount())) {}

BatchScheduler::~BatchScheduler() { drain(); }

void BatchScheduler::submit(std::size_t cost, std::function<void()> run,
                            std::function<void()> cancel) {
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{cost, nextSeq_};
  bySeq_.emplace(nextSeq_, key);
  ++nextSeq_;
  pending_.emplace(key, Entry{std::move(run), std::move(cancel)});
  dispatchLocked();
}

void BatchScheduler::dispatchLocked() {
  while (inFlight_ < maxConcurrent_ && !pending_.empty()) {
    auto chosen = pending_.begin();  // smallest cost, FIFO among equals
    const auto oldest = pending_.find(bySeq_.begin()->second);
    if (oldest->second.bypassed >= kMaxBypass) {
      chosen = oldest;  // aged out: starvation bound beats cost order
    } else if (chosen != oldest) {
      ++oldest->second.bypassed;
    }
    bySeq_.erase(chosen->first.second);
    auto node = pending_.extract(chosen);
    ++inFlight_;
    // Normal (back-of-queue) priority: shard tasks of already-running jobs
    // jump ahead via postUrgent, new drivers wait their turn.
    pool_.post([this, run = std::move(node.mapped().run)] {
      run();
      onJobFinished();
    });
  }
}

void BatchScheduler::onJobFinished() {
  std::lock_guard<std::mutex> lock(mu_);
  --inFlight_;
  dispatchLocked();
  if (inFlight_ == 0 && pending_.empty()) idle_.notify_all();
}

void BatchScheduler::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [&] { return inFlight_ == 0 && pending_.empty(); });
}

std::size_t BatchScheduler::pendingCount() {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

std::size_t BatchScheduler::cancelPending() {
  std::vector<Entry> cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled.reserve(pending_.size());
    for (auto& [key, entry] : pending_) cancelled.push_back(std::move(entry));
    pending_.clear();
    bySeq_.clear();
    if (inFlight_ == 0) idle_.notify_all();
  }
  // Outside the lock: cancel callbacks touch service state (promises,
  // caches) that may itself call back into stats readers.
  for (Entry& e : cancelled) {
    if (e.cancel) e.cancel();
  }
  return cancelled.size();
}

}  // namespace lanecert::serve
