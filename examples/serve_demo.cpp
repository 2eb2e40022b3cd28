// Batched serving demo: one LaneCertService, one shared worker pool, many
// concurrent (graph, property) jobs in flight.
//
//   $ ./serve_demo
//
// Act 1 — throughput: a small "catalog" of graphs is served under several
// properties at once: prove requests for every (graph, property) pair plus
// verify requests over the proved labels, all submitted up front and
// resolved through futures.  The service amortizes thread wake-ups across
// requests, plans each graph once (plan cache), and coalesces the
// duplicate requests a real front-end produces under retries.
//
// Act 2 — fault tolerance and shutdown under load, exercising the error
// taxonomy of serve/errors.hpp.  Every failure the service itself raises
// is one of three types, so handlers branch on WHAT failed instead of
// parsing messages:
//
//   RejectedError          synchronous from submit*: admission control
//                          turned the request away at maxQueueDepth; carries
//                          a retry-after hint scaled by the backlog
//   DeadlineExceededError  through the future: the job's deadline passed
//                          before dispatch; the work never ran
//   CancelledError         through the future: cancelPending() discarded
//                          the job before it started
//
// Anything else (DecodeError, std::invalid_argument, ...) is the job's own
// failure, passed through as thrown; the service never retries a job.

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/verifier.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "serve/errors.hpp"
#include "serve/service.hpp"

using namespace lanecert;

int main() {
  // The catalog: three graph shapes of different sizes.
  struct Entry {
    const char* name;
    Graph graph;
    IdAssignment ids;
  };
  std::vector<Entry> catalog;
  catalog.push_back({"caterpillar(40,2)", caterpillar(40, 2), {}});
  catalog.push_back({"path(200)", pathGraph(200), {}});
  catalog.push_back({"cycle(64)", cycleGraph(64), {}});
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    catalog[i].ids = IdAssignment::random(catalog[i].graph.numVertices(),
                                          static_cast<std::uint64_t>(i) + 1);
  }
  const std::vector<PropertyPtr> props = {makeConnectivity(), makeForest()};

  serve::LaneCertService service;  // pool sized to the hardware
  std::printf("service up: %d pool worker(s)\n", service.poolWorkers());

  // Submit every (graph, property) prove job TWICE (simulated retries) —
  // all up front, nothing blocks until the futures are read.
  struct Pending {
    const Entry* entry;
    PropertyPtr prop;
    std::shared_future<CoreProveResult> future;
  };
  std::vector<Pending> pending;
  for (const Entry& e : catalog) {
    for (const PropertyPtr& p : props) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        pending.push_back(
            {&e, p, service.submitProve(serve::ProveJob{e.graph, e.ids, p, {}})});
      }
    }
  }

  // Resolve the batch; chase each held labeling with TWO verify requests
  // sharing one payload (retries coalesce by payload identity).
  std::vector<std::shared_future<SimulationResult>> verifications;
  for (std::size_t i = 0; i < pending.size(); i += 2) {
    Pending& p = pending[i];
    const CoreProveResult& result = p.future.get();
    std::printf("  prove  %-18s %-14s -> %s (x2 requests)\n", p.entry->name,
                p.prop->name().c_str(),
                result.propertyHolds ? "labeled" : "property fails");
    if (!result.propertyHolds) continue;
    const auto payload =
        std::make_shared<const std::vector<std::string>>(result.labels);
    for (int attempt = 0; attempt < 2; ++attempt) {
      verifications.push_back(service.submitVerify(serve::VerifyJob{
          p.entry->graph, p.entry->ids, payload, p.prop, {}}));
    }
  }
  bool allAccept = true;
  for (auto& v : verifications) allAccept = allAccept && v.get().allAccept;
  std::printf("  verify %zu labelings -> %s\n", verifications.size(),
              allAccept ? "all vertices ACCEPT" : "REJECTED?!");

  const serve::ServiceStats stats = service.stats();
  std::printf(
      "stats: %llu prove + %llu verify computed, %llu coalesced/cached, "
      "%llu plan-cache hits\n",
      static_cast<unsigned long long>(stats.proveJobsCompleted),
      static_cast<unsigned long long>(stats.verifyJobsCompleted),
      static_cast<unsigned long long>(stats.resultCacheHits),
      static_cast<unsigned long long>(stats.planCacheHits));

  // ---- Act 2: fault tolerance + shutdown under load ----------------------
  // A deliberately tiny service (one worker, shallow queue, no result
  // cache — every request is real work) so the failure paths actually fire.
  serve::ServiceOptions tight;
  tight.numThreads = 1;
  tight.enableResultCache = false;
  tight.maxQueueDepth = 4;
  serve::LaneCertService loaded(tight);
  const Graph burstGraph = pathGraph(160);
  const IdAssignment burstIds = IdAssignment::random(160, 99);
  const PropertyPtr conn = makeConnectivity();

  // Backpressure: hammer submit until admission control pushes back.  A
  // production client would sleep retryAfter() and resubmit; the demo just
  // counts the rejections.
  std::vector<std::shared_future<CoreProveResult>> burst;
  std::size_t rejected = 0;
  std::chrono::milliseconds lastHint{0};
  for (int i = 0; i < 16; ++i) {
    serve::ProveJob job{burstGraph, burstIds, conn, {}};
    // Distinct deadlines defeat request coalescing, so every accepted
    // submission occupies its own queue slot (and a generous deadline
    // keeps the accepted jobs dispatchable).
    job.options.deadline = std::chrono::steady_clock::now() +
                           std::chrono::seconds(60 + i);
    try {
      burst.push_back(loaded.submitProve(std::move(job)));
    } catch (const serve::RejectedError& e) {
      ++rejected;
      lastHint = e.retryAfter();
    }
  }
  std::printf("  burst  16 submitted -> %zu queued, %zu rejected "
              "(last retry-after hint %lldms)\n",
              burst.size(), rejected,
              static_cast<long long>(lastHint.count()));

  // Shutdown under load: discard everything that has not started, then
  // drain what is running.  EVERY future still resolves — with a result
  // for jobs that ran, with CancelledError for the discarded ones; nothing
  // is left hanging for the destructor to surprise.
  const std::size_t discarded = loaded.cancelPending();
  loaded.drain();
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  for (auto& f : burst) {
    try {
      (void)f.get();
      ++completed;
    } catch (const serve::CancelledError&) {
      ++cancelled;
    }
  }
  std::printf("  shutdown: cancelPending discarded %zu; of %zu queued "
              "futures %zu completed, %zu cancelled — all resolved\n",
              discarded, burst.size(), completed, cancelled);
  const bool accounted = completed + cancelled == burst.size();

  // Deadlines: an already-expired job fails fast with
  // DeadlineExceededError — the work never runs, the future still resolves.
  // (On the now-idle service, so backpressure cannot preempt the demo.)
  serve::ProveJob late{burstGraph, burstIds, conn, {}};
  late.options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  bool deadlineFired = false;
  try {
    (void)loaded.submitProve(std::move(late)).get();
  } catch (const serve::DeadlineExceededError&) {
    deadlineFired = true;
  }
  std::printf("  deadline-expired job -> %s\n",
              deadlineFired ? "DeadlineExceededError (work never ran)"
                            : "ran anyway?!");

  return allAccept && accounted && deadlineFired ? 0 : 1;
}
