// Sustained-edit soak: one long-lived verification session under a
// continuous edit stream, with background prove traffic sharing the pool —
// the serving layer's steady state, not its cold start.
//
// Each benchmark iteration is ONE edit→verdict round trip through the
// service (submitReverify + future.get()), manually timed, so the reported
// real_time IS the steady-state reverify latency.  The stream alternates
// corrupt (honest label + unique garbage suffix — size-changing, so the
// session's string for that edge may reallocate) and restore (honest bytes
// back), rotating over the edge set; every 8th round a prove job rides the
// same pool.  The result cache is OFF: a soak that replays memoized
// verdicts measures map lookups, not verification.
//
// What a long run must show (bench/README.md has the 10-minute recipe):
//
//  * latency: no drift — the 10-min mean matches the smoke-run mean;
//  * memory: bounded — `rss_delta_mb` flatlines instead of creeping with
//    iteration count (the session overwrites one string per edge in
//    place, and the sweep cache evicts);
//  * correctness: every corrupt round rejects, every restore round
//    accepts, for the whole run (drift in either direction aborts the
//    bench via SkipWithError).
//
// `/64` is the smoke leg (scripts/verify.sh --ci runs it for a few
// seconds); `/512` is the recorded soak workload in BENCH_soak.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "serve/service.hpp"

namespace {

using namespace lanecert;

/// Resident set size in KiB (0 where /proc is unavailable) — the soak's
/// memory-creep needle.
long readRssKb() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string word;
  while (status >> word) {
    if (word == "VmRSS:") {
      long kb = 0;
      status >> kb;
      return kb;
    }
  }
#endif
  return 0;
}

struct SoakFixture {
  Graph graph;
  IdAssignment ids;
  std::shared_ptr<const std::vector<std::string>> labels;  ///< honest
};

const SoakFixture& fixtureFor(int n) {
  static std::vector<std::unique_ptr<SoakFixture>> cache;
  for (const auto& f : cache) {
    if (f->graph.numVertices() == n) return *f;
  }
  Rng rng(47);
  auto bp = randomBoundedPathwidth(n, 2, 0.4, rng);
  auto fx = std::make_unique<SoakFixture>();
  fx->ids = IdAssignment::random(n, 17);
  fx->labels = std::make_shared<const std::vector<std::string>>(
      proveCore(bp.graph, fx->ids, *makeConnectivity(), nullptr, 1).labels);
  fx->graph = std::move(bp.graph);
  cache.push_back(std::move(fx));
  return *cache.back();
}

void BM_Soak(benchmark::State& state) {
  const auto& fx = fixtureFor(static_cast<int>(state.range(0)));
  const auto numEdges = static_cast<std::uint64_t>(fx.graph.numEdges());

  serve::ServiceOptions opts;
  opts.enableResultCache = false;  // measure verification, not replay
  serve::LaneCertService service(opts);
  const std::uint64_t sid = service.openVerifySession(
      serve::VerifyJob{fx.graph, fx.ids, fx.labels, makeConnectivity(), {}});
  // Initial full sweep (untimed): the soak measures the steady state.
  service.submitReverify(serve::ReverifyJob{sid, {}}).get();

  const long rssBefore = readRssKb();
  std::deque<std::shared_future<CoreProveResult>> proveBacklog;
  std::uint64_t round = 0;
  std::uint64_t proves = 0;
  for (auto _ : state) {
    // Background prove traffic on the same pool (untimed submission; its
    // interference with the reverify round trip is exactly what the
    // latency number should include).
    if (round % 8 == 0) {
      proveBacklog.push_back(service.submitProve(
          serve::ProveJob{fx.graph, fx.ids, makeForest(), {}}));
      ++proves;
      while (proveBacklog.size() > 4) {
        proveBacklog.front().get();
        proveBacklog.pop_front();
      }
    }
    const bool corrupt = (round % 2) == 0;
    const auto e = static_cast<EdgeId>((round / 2) % numEdges);
    const std::string& honest = (*fx.labels)[static_cast<std::size_t>(e)];
    std::vector<EdgeLabelEdit> batch;
    batch.push_back(
        {e, corrupt ? honest + "-soak-" + std::to_string(round) : honest});

    const auto t0 = std::chrono::steady_clock::now();
    const SimulationResult r =
        service.submitReverify(serve::ReverifyJob{sid, std::move(batch)})
            .get();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(dt.count());

    // Verdict drift is a soak FAILURE, not noise: a corrupted label must
    // reject its endpoints, a restored one must heal the whole graph.
    if (corrupt == r.allAccept) {
      state.SkipWithError(corrupt ? "corrupt round accepted"
                                  : "restore round rejected");
      break;
    }
    ++round;
  }
  for (auto& f : proveBacklog) f.get();
  service.drain();

  const SweepCacheStats cs = service.sessionCacheStats(sid);
  const double probes = static_cast<double>(cs.hits + cs.misses);
  state.counters["edits_per_s"] = benchmark::Counter(
      static_cast<double>(round), benchmark::Counter::kIsRate);
  state.counters["cache_hit_rate"] =
      probes > 0 ? static_cast<double>(cs.hits) / probes : 0.0;
  state.counters["cache_entries"] = static_cast<double>(cs.entries);
  state.counters["cache_evictions"] = static_cast<double>(cs.evictions);
  state.counters["proves"] = static_cast<double>(proves);
  state.counters["rss_delta_mb"] =
      static_cast<double>(readRssKb() - rssBefore) / 1024.0;
}
// Manual time = the submit→verdict round trip only; the smoke filter in
// scripts/verify.sh matches /64.
BENCHMARK(BM_Soak)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMillisecond)->UseManualTime();

}  // namespace

BENCHMARK_MAIN();
