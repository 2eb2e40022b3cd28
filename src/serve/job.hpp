#pragma once
// Request types of the batched serving pipeline.
//
// A job is fully self-contained: it carries its own (Graph, IdAssignment)
// pair plus whatever the request kind needs (property, labels, verifier
// params), so any number of jobs can be in flight concurrently with no
// shared mutable state — the service only shares the worker pool and its
// read-only caches between them.
//
// Content keys: the service deduplicates repeated requests (retries,
// fan-in) by EXACT content, never by hash alone — `proveJobKey` /
// `verifyJobKey` serialize everything that influences the job's output, so
// equal keys imply byte-identical results.  `planKey` covers only what the
// property-independent prover head depends on (graph topology + supplied
// representation), which is why one cached ProvePlan serves every
// (property, ids) pair over the same graph.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "graph/graph.hpp"
#include "interval/interval.hpp"
#include "mso/property.hpp"
#include "runtime/label_store.hpp"

namespace lanecert::serve {

/// Per-job fault-tolerance knobs, shared by every request kind.
struct JobOptions {
  /// Latest time the job may still be DISPATCHED.  Checked when the
  /// scheduler hands the job to a worker (and per batch in session
  /// drivers): an expired job fails its future with DeadlineExceededError
  /// without running any work.  Running jobs are never interrupted — the
  /// sweep/prove is the unit of work.  Absent = no deadline.
  ///
  /// Jobs carrying a deadline are excluded from result caching and request
  /// coalescing: sharing one computation between requests with different
  /// deadlines would let one caller's deadline fail another's future.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Total attempts for TransientError failures (session drivers only —
  /// prove/verify jobs are pure and cheap to resubmit from the client).
  /// 1 = no retry.
  int maxAttempts = 1;
  /// Sleep before the first retry; doubles per subsequent attempt.
  std::chrono::milliseconds retryBackoff{1};

  [[nodiscard]] bool expired() const {
    return deadline && std::chrono::steady_clock::now() > *deadline;
  }
};

/// "Label this graph for property φ" — the centralized prover as a request.
struct ProveJob {
  Graph graph;
  IdAssignment ids;
  PropertyPtr property;
  /// Known interval representation (e.g. from the generator that produced
  /// the graph); the prover computes one when absent.
  std::optional<IntervalRepresentation> rep;
  JobOptions options;
};

/// "Run the distributed verifier over this labeling" as a request.
///
/// Labels are the bulk of a verification request (hundreds of MB for large
/// graphs), so they ride as a SHARED IMMUTABLE payload: submission never
/// copies label bytes, and retries resubmitting the same buffer coalesce.
/// The contract is the usual interning one — the pointed-to vector must not
/// be mutated after first submission (the service pins cached payloads, so
/// an address is never reused while a cached result still refers to it).
struct VerifyJob {
  Graph graph;
  IdAssignment ids;
  std::shared_ptr<const std::vector<std::string>> labels;  ///< per EdgeId
  PropertyPtr property;
  CoreVerifierParams params{};
  /// Version of the label payload's CONTENT.  Participates in the cache
  /// key alongside the payload identity: a caller that rewrites a payload
  /// buffer in place (the versioned-LabelStore world makes that a
  /// legitimate move) bumps the version so mutation invalidates stale
  /// verify hits instead of serving them.  Callers that never mutate can
  /// leave it 0 — identity alone then pins the bytes as before.
  std::uint64_t labelsVersion = 0;
  JobOptions options;
};

/// "Apply this edit batch to an open verification session and re-check the
/// dirty vertices" as a request.  The session handle comes from
/// LaneCertService::openVerifySession; edits are applied in order.  An
/// empty batch runs (or returns) the session's full sweep, so it doubles
/// as the initial-verification request.  Batches on one session execute in
/// submission order regardless of scheduler policy (the service runs one
/// driver per session at a time).
struct ReverifyJob {
  std::uint64_t session = 0;
  std::vector<EdgeLabelEdit> edits;
  JobOptions options;
};

/// Scheduling weight: rough single-thread work estimate used by the batch
/// scheduler to run small jobs ahead of large ones.  Only the ORDER matters,
/// so coarse proxies suffice (topology size for proving, total label bytes
/// for verification — chain validation cost tracks label volume).
[[nodiscard]] std::size_t estimatedCost(const ProveJob& job);
[[nodiscard]] std::size_t estimatedCost(const VerifyJob& job);
/// Reverify cost tracks the edit batch (dirty rows re-checked + new label
/// bytes decoded), not the session's full graph — that is the point.  The
/// service substitutes the payload's full-sweep cost for a session's FIRST
/// batch, which runs the initial whole-graph sweep whatever its edit list.
[[nodiscard]] std::size_t estimatedCost(const ReverifyJob& job);

/// Exact serialization of everything a ProvePlan depends on: vertex count,
/// edge list (insertion order — plans are order-sensitive only through the
/// representation, but a stricter key is always safe), and the supplied
/// representation if any.
[[nodiscard]] std::string planKey(const Graph& g,
                                  const IntervalRepresentation* rep);

/// Dedup keys; equal keys imply equal output bytes.  Property identity is
/// its name() — every bundled property encodes its parameters there (e.g.
/// "3-colorability").  Prove keys serialize the full request content (it is
/// small).  Verify keys serialize everything EXCEPT the label bytes, which
/// enter by payload identity (pointer + length): hashing hundreds of MB per
/// submit would cost a sizable fraction of the verification itself, and
/// identity is exact under the immutability contract above.  Two distinct
/// buffers with equal bytes simply miss the cache — a perf miss, never a
/// wrong answer.
[[nodiscard]] std::string proveJobKey(const ProveJob& job);
[[nodiscard]] std::string verifyJobKey(const VerifyJob& job);
/// Identity of a reverify request: session handle + exact edit bytes.
/// Reverify results are NEVER result-cached (each batch advances session
/// state), but duplicate submissions of the same batch at the same queue
/// position — front-end retries — coalesce onto one pending computation
/// through this key.
[[nodiscard]] std::string reverifyJobKey(const ReverifyJob& job);

}  // namespace lanecert::serve
