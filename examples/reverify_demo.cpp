// Incremental re-verification demo: a VerifySession absorbing edit batches
// and re-checking only the dirty vertices, plus the serving-layer session
// registry doing the same behind LaneCertService.
//
//   $ ./reverify_demo
//
// A labeling is proved once, then served under a stream of label edits:
// corrupt one edge, watch exactly its two endpoints flip to rejecting,
// restore it, watch them flip back — each step re-verifying a handful of
// vertices instead of the whole graph, with verdicts byte-identical to a
// fresh full sweep (which the demo cross-checks).  Exits 1 unless the
// session and the served registry both go accept, reject, accept and the
// restored verdicts match the fresh sweep.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/prover.hpp"
#include "core/verify_session.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "pls/scheme.hpp"
#include "serve/service.hpp"

using namespace lanecert;

namespace {

double millisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  constexpr int kN = 1024;
  Rng rng(41);
  auto bp = randomBoundedPathwidth(kN, 2, 0.4, rng);
  const auto rep = IntervalRepresentation::fromPairs(bp.intervals);
  const auto ids = IdAssignment::random(kN, 13);
  const auto prop = makeConnectivity();
  const auto proved = proveCore(bp.graph, ids, *prop, &rep, 1);
  std::printf("proved %s: %d edges labeled\n", bp.graph.summary().c_str(),
              bp.graph.numEdges());

  // --- Core API: VerifySession --------------------------------------------
  VerifySession session(bp.graph, ids, proved.labels, prop);
  auto start = std::chrono::steady_clock::now();
  const SimulationResult initial = session.verifyAll(/*numThreads=*/0);
  std::printf("full sweep: allAccept=%d in %.1f ms (%zu cached entries)\n",
              static_cast<int>(initial.allAccept), millisSince(start),
              session.sweepCacheSize());

  const EdgeId victim = 7;
  std::string corrupted = proved.labels[static_cast<std::size_t>(victim)];
  corrupted[corrupted.size() / 2] ^= 0x10;

  std::vector<EdgeLabelEdit> batch = {{victim, corrupted}};
  start = std::chrono::steady_clock::now();
  const SimulationResult broken = session.reverifyEdits(batch, 0);
  std::printf(
      "corrupt edge %d: %zu rejecting vertex(es) in %.2f ms "
      "(store version %llu)\n",
      victim, broken.rejecting.size(), millisSince(start),
      static_cast<unsigned long long>(session.storeVersion()));

  batch[0].bytes = proved.labels[static_cast<std::size_t>(victim)];
  start = std::chrono::steady_clock::now();
  const SimulationResult healed = session.reverifyEdits(batch, 0);
  std::printf("restore edge %d: allAccept=%d in %.2f ms\n", victim,
              static_cast<int>(healed.allAccept), millisSince(start));

  // Cross-check: byte-identical to a fresh full sweep of the same labels.
  const SimulationResult fresh = simulateEdgeScheme(
      bp.graph, ids, proved.labels, makeCoreVerifier(prop));
  const bool matchesFresh = healed.rejecting == fresh.rejecting &&
                            healed.totalLabelBits == fresh.totalLabelBits;
  std::printf("matches fresh full sweep: %s\n", matchesFresh ? "yes" : "NO");

  // --- Serving API: session registry --------------------------------------
  serve::LaneCertService service;
  const auto payload =
      std::make_shared<const std::vector<std::string>>(proved.labels);
  const std::uint64_t sid = service.openVerifySession(
      serve::VerifyJob{bp.graph, ids, payload, prop, {}});
  auto sweep = service.submitReverify({sid, {}});  // initial full sweep
  auto corrupt = service.submitReverify({sid, {{victim, corrupted}}});
  auto restore = service.submitReverify(
      {sid, {{victim, proved.labels[static_cast<std::size_t>(victim)]}}});
  // Resolve in submission order BEFORE reading the version (function
  // argument evaluation order is unspecified).
  const bool sweepOk = sweep.get().allAccept;
  const std::size_t corruptRejects = corrupt.get().rejecting.size();
  const bool restoreOk = restore.get().allAccept;
  std::printf(
      "served session %llu: sweep allAccept=%d, corrupt rejects %zu, "
      "restore allAccept=%d (version %llu)\n",
      static_cast<unsigned long long>(sid), static_cast<int>(sweepOk),
      corruptRejects, static_cast<int>(restoreOk),
      static_cast<unsigned long long>(service.sessionStoreVersion(sid)));
  service.closeVerifySession(sid);

  const bool sessionOk = initial.allAccept && !broken.allAccept &&
                         healed.allAccept && matchesFresh;
  const bool servedOk = sweepOk && corruptRejects > 0 && restoreOk;
  if (!sessionOk || !servedOk) {
    std::printf("FAILED: expected accept, reject, accept in both paths\n");
    return 1;
  }
  return 0;
}
