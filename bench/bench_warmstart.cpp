// Experiment E9: warm-start persistence and the interval decomposition.
//
// BM_ColdStart measures what a restarted server pays on its first prove
// over a known graph: `buildProvePlan` from scratch (greedy interval
// decomposition -> lane plan -> construction sequence -> hierarchy).
// BM_WarmStart measures the snapshot alternative: mmap + header/CRC
// validation + structural decode of the persisted plan
// (SnapshotStore::tryLoad).  Both report "time to plan-ready" — the part
// of first-prove latency warm-start removes; the property-dependent
// labeling waves that follow are identical on both paths, which is why the
// bench frames the comparison at the plan boundary.
//
// BM_IntervalRep sweeps n over `bestIntervalRepresentation`, the first
// stage of BM_ColdStart: the greedy vertex separation (an incremental
// argmin, O((n+m) log n)) plus the layout -> interval conversion.  The
// order it must reproduce is pinned in tests/test_pathwidth.cpp.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/prover.hpp"
#include "graph/generators.hpp"
#include "pathwidth/pathwidth.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using namespace lanecert;

Graph benchGraph(int n) {
  Rng rng(91);
  return randomBoundedPathwidth(static_cast<VertexId>(n), 6, 0.5, rng).graph;
}

// One scratch directory per process, removed at exit.
const std::string& snapshotDir() {
  static const std::string dir = [] {
    auto d = std::filesystem::temp_directory_path() /
             ("lanecert-bench-warmstart-" + std::to_string(::getpid()));
    std::filesystem::create_directories(d);
    std::atexit([] {
      std::error_code ec;
      std::filesystem::remove_all(
          std::filesystem::temp_directory_path() /
              ("lanecert-bench-warmstart-" + std::to_string(::getpid())),
          ec);
    });
    return d.string();
  }();
  return dir;
}

void BM_ColdStart(benchmark::State& state) {
  const Graph g = benchGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ProvePlan plan = buildProvePlan(g);
    benchmark::DoNotOptimize(plan);
  }
  state.counters["n"] = static_cast<double>(g.numVertices());
}
BENCHMARK(BM_ColdStart)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_WarmStart(benchmark::State& state) {
  const Graph g = benchGraph(static_cast<int>(state.range(0)));
  snapshot::SnapshotStore store(snapshotDir());
  store.persistNow(snapshot::planSnapshotKey(g, nullptr), buildProvePlan(g));
  for (auto _ : state) {
    auto plan = store.tryLoad(g, nullptr);
    if (plan == nullptr) state.SkipWithError("snapshot load failed");
    benchmark::DoNotOptimize(plan);
  }
  state.counters["n"] = static_cast<double>(g.numVertices());
  state.counters["hits"] = static_cast<double>(store.stats().hits);
}
BENCHMARK(BM_WarmStart)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_IntervalRep(benchmark::State& state) {
  const Graph g = benchGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    IntervalRepresentation rep = bestIntervalRepresentation(g);
    benchmark::DoNotOptimize(rep);
  }
  state.counters["n"] = static_cast<double>(g.numVertices());
}
BENCHMARK(BM_IntervalRep)->Arg(4096)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
