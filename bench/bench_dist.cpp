// Multi-process distributed verification (src/dist) end to end: shared
// image construction + K forked owner partitions + the merged sweep,
// measured as construct + verifyAll per iteration — the verifier's whole
// lifecycle.
//
// BM_DistVerify sweeps n at K = 4: the acceptance point is n = 1048576
// completing on the reference container, archived in bench/BENCH_dist.json.
// BM_DistVerifyWorkers sweeps K at fixed n — the verdict is byte-identical
// at every K (tests/test_dist.cpp), so this curve is pure process overhead:
// fork + image open + the start barrier + reaping.
//
// The /64 point exists for the verify.sh bench smoke (1-iteration filter
// on small size args); the large points deliberately use worker counts
// outside the smoke filter's arg list.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "core/prover.hpp"
#include "dist/dist_verifier.hpp"
#include "graph/generators.hpp"
#include "interval/interval.hpp"
#include "mso/properties.hpp"

namespace {

using namespace lanecert;

struct DistInstance {
  Graph g;
  IdAssignment ids;
  std::vector<std::string> labels;
  double labelMb = 0;
};

/// Proving is far more expensive than any single measured iteration at the
/// large sizes, so instances are proved ONCE per n and cached for every
/// benchmark that asks — width-1, low-density workload keeps the 1M-vertex
/// certificate inside the reference container's memory.
const DistInstance& distInstance(int n) {
  static std::map<int, DistInstance> cache;
  const auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  Rng rng(91);
  BoundedPathwidthGraph bp = randomBoundedPathwidth(n, 1, 0.3, rng);
  const IntervalRepresentation rep =
      IntervalRepresentation::fromPairs(bp.intervals);
  IdAssignment ids = IdAssignment::random(n, 17);
  CoreProveResult proved = proveCore(bp.graph, ids, *makeConnectivity(), &rep, 1);
  DistInstance inst{std::move(bp.graph), std::move(ids),
                    std::move(proved.labels)};
  for (const std::string& l : inst.labels) {
    inst.labelMb += static_cast<double>(l.size());
  }
  inst.labelMb /= 1024.0 * 1024.0;
  return cache.emplace(n, std::move(inst)).first->second;
}

void BM_DistVerify(benchmark::State& state) {
  const DistInstance& inst = distInstance(static_cast<int>(state.range(0)));
  dist::DistOptions opts;
  opts.workers = static_cast<int>(state.range(1));
  for (auto _ : state) {
    dist::DistVerifier dv(inst.g, inst.ids, inst.labels, "connectivity", {},
                          opts);
    const SimulationResult res = dv.verifyAll();
    if (!res.allAccept) {
      state.SkipWithError("honest certificate rejected");
      break;
    }
    benchmark::DoNotOptimize(res.totalLabelBits);
  }
  state.counters["workers"] = static_cast<double>(opts.workers);
  state.counters["label_mb"] = inst.labelMb;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DistVerify)
    ->Args({64, 4})
    ->Args({16384, 4})
    ->Args({65536, 4})
    ->Args({1048576, 4})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05)
    ->UseRealTime();

void BM_DistVerifyWorkers(benchmark::State& state) {
  // Fixed n, sweeping K.  On a single-core container the sweep itself
  // cannot speed up, so the deltas between these points price the process
  // machinery alone.
  const DistInstance& inst = distInstance(65536);
  dist::DistOptions opts;
  opts.workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    dist::DistVerifier dv(inst.g, inst.ids, inst.labels, "connectivity", {},
                          opts);
    const SimulationResult res = dv.verifyAll();
    benchmark::DoNotOptimize(res.allAccept);
  }
  state.counters["workers"] = static_cast<double>(opts.workers);
}
BENCHMARK(BM_DistVerifyWorkers)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
