#pragma once
// Error taxonomy of the serving layer.
//
// Every failure a client can observe through a job future (or a submit
// call) is one of these types, so callers can branch on WHAT failed rather
// than parsing message strings:
//
//   ServeError              — base of the taxonomy (never thrown itself)
//   ├─ CancelledError       — the job was discarded by cancelPending() (or a
//   │                         discarded session driver failed its queued
//   │                         batches) before it started
//   ├─ DeadlineExceededError— the job's JobOptions::deadline passed before
//   │                         the job was dispatched; the work never ran
//   └─ RejectedError        — admission control: the scheduler queue was at
//                             ServiceOptions::maxQueueDepth when submit was
//                             called.  Thrown SYNCHRONOUSLY from submit*,
//                             never through a future; carries a retry-after
//                             hint scaled by the current backlog
//
// Anything else propagating through a future (std::invalid_argument,
// DecodeError, prover errors, ...) is the job's own failure, passed through
// as thrown.  The service never retries a job: prove and verify jobs are
// pure, and an edit batch is a list of absolute label rewrites, so a client
// may resubmit any of them.

#include <chrono>
#include <stdexcept>
#include <string>

namespace lanecert::serve {

/// Base of every serving-layer failure type.
class ServeError : public std::runtime_error {
 public:
  explicit ServeError(const std::string& what) : std::runtime_error(what) {}
};

/// Raised through the futures of jobs discarded by cancelPending().
class CancelledError : public ServeError {
 public:
  CancelledError() : ServeError("serve: job cancelled before start") {}
};

/// Raised through a job's future when its deadline passed before dispatch.
/// The job's work never ran: a deadline is checked when the scheduler hands
/// the job to a worker (the sweep/prove is the unit of work and is never
/// interrupted mid-flight).
class DeadlineExceededError : public ServeError {
 public:
  DeadlineExceededError()
      : ServeError("serve: job deadline expired before dispatch") {}
};

/// Thrown synchronously by submit* when admission control turns the request
/// away (scheduler backlog at ServiceOptions::maxQueueDepth).  Nothing was
/// queued; resubmitting after `retryAfter` is the expected reaction.
class RejectedError : public ServeError {
 public:
  explicit RejectedError(std::chrono::milliseconds retryAfter)
      : ServeError("serve: queue saturated, retry after " +
                   std::to_string(retryAfter.count()) + "ms"),
        retryAfter_(retryAfter) {}

  /// Backpressure hint: grows with the backlog that caused the rejection.
  [[nodiscard]] std::chrono::milliseconds retryAfter() const {
    return retryAfter_;
  }

 private:
  std::chrono::milliseconds retryAfter_;
};

}  // namespace lanecert::serve
