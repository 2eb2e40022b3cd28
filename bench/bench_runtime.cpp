// Experiment E4: prover and verifier running time vs n at fixed k.
// Both should scale near-linearly (the per-vertex verifier does constant
// work for fixed k; the prover is dominated by the Prop 4.6/5.6 pipeline).
//
// BM_VerifierThreads adds the parallel dimension: the verifier is strictly
// local, so the sweep shards vertices over a thread pool and should scale
// near-linearly in cores (see bench/README.md for the measurement recipe).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/prover.hpp"
#include "core/scheme.hpp"
#include "core/verify_session.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "pls/pointer.hpp"
#include "runtime/label_store.hpp"

namespace {

using namespace lanecert;

struct Instance {
  Graph g;
  IntervalRepresentation rep;
  IdAssignment ids;
};

Instance instance(int k, int n) {
  Rng rng(41);
  auto bp = randomBoundedPathwidth(n, k, 0.4, rng);
  Instance out{std::move(bp.graph),
               IntervalRepresentation::fromPairs(bp.intervals),
               IdAssignment::random(n, 13)};
  return out;
}

void BM_Prover(benchmark::State& state) {
  const auto inst = instance(2, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto r = proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep);
    benchmark::DoNotOptimize(r.labels);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Prover)->RangeMultiplier(4)->Range(64, 4096)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_ProverThreads(benchmark::State& state) {
  // Fixed n, sweeping the prover's numThreads knob: the hom-state waves,
  // record encoding, and label assembly all shard over the deterministic
  // executor, so wall time should drop near-linearly in cores (results are
  // bit-identical for every t; tests/test_prover_par.cpp asserts that).
  const auto inst = instance(2, 4096);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto r =
        proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep, threads);
    benchmark::DoNotOptimize(r.labels);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ProverThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ProverHead(benchmark::State& state) {
  // The prover's serial head in isolation: interval representation (given)
  // -> lane plan -> construction sequence -> hierarchy, plus the Prop 2.2
  // pointer BFS.  None of it shards over the executor, so it is the
  // Amdahl term of BM_ProverThreads; BENCH_prover_head.json archives its
  // single-thread cost (epoch-stamped plan-builder lookups, O(subtree)
  // T-node wraps, deferred terminal materialization).
  const auto inst = instance(2, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const ProvePlan plan = buildProvePlan(inst.g, &inst.rep);
    const auto ptr = provePointer(inst.g, inst.ids, plan.seq.initialPath[0]);
    benchmark::DoNotOptimize(plan.hier);
    benchmark::DoNotOptimize(ptr);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ProverHead)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_Verifier(benchmark::State& state) {
  const auto inst = instance(2, static_cast<int>(state.range(0)));
  const auto proved = proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep);
  for (auto _ : state) {
    // Fresh verifier per iteration: a ONE-SHOT sweep with a cold sweep
    // cache, the simulateEdgeScheme caller's cost.  (The cache still pays
    // off within the single sweep — upper chain entries are shared by most
    // vertices; warm REPEAT sweeps are what BM_Reverify's session
    // measures.)
    const auto verifier = makeCoreVerifier(makeConnectivity());
    const auto res = simulateEdgeScheme(inst.g, inst.ids, proved.labels, verifier);
    benchmark::DoNotOptimize(res.allAccept);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Verifier)->RangeMultiplier(4)->Range(64, 4096)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_VerifierThreads(benchmark::State& state) {
  // Fixed n, sweeping the numThreads knob: per-vertex checks are
  // independent, so throughput should scale near-linearly in cores.
  const auto inst = instance(2, 4096);
  const auto proved = proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep);
  const SimulationOptions opts{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    const auto verifier = makeCoreVerifier(makeConnectivity());  // cold cache
    const auto res =
        simulateEdgeScheme(inst.g, inst.ids, proved.labels, verifier, opts);
    benchmark::DoNotOptimize(res.allAccept);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_VerifierThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Reverify(benchmark::State& state) {
  // Incremental re-verification: a warm VerifySession absorbing edit
  // batches that touch a fraction of the edges (arg 1, in permille), vs
  // BM_Verifier's full sweep at the same n (arg 0).  Each iteration flips
  // one byte of every touched label — size-preserving after the first
  // batch, so steady state exercises the in-place store path — and
  // re-checks only the dirty endpoints.  BENCH_reverify.json archives the
  // wall times; the 1%-dirty point at n = 4096 is the acceptance gate
  // (>= 5x over the full sweep).
  const auto inst = instance(2, static_cast<int>(state.range(0)));
  const auto proved =
      proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep);
  VerifySession session(inst.g, inst.ids, proved.labels, makeConnectivity());
  (void)session.verifyAll(1);  // warm sweep, untimed

  const auto m = static_cast<std::size_t>(inst.g.numEdges());
  const auto permille = static_cast<std::size_t>(state.range(1));
  const std::size_t dirtyEdges =
      std::max<std::size_t>(1, m * permille / 1000);
  std::vector<EdgeLabelEdit> batch;
  const std::size_t stride = m / dirtyEdges;
  for (std::size_t i = 0; i < dirtyEdges; ++i) {
    const auto e = static_cast<EdgeId>(i * stride);
    batch.push_back(EdgeLabelEdit{
        e, proved.labels[static_cast<std::size_t>(e)]});
  }
  // Untimed warm batch: moves the touched labels into store-owned epoch
  // slots (the one-time byte copy), so the timed loop measures the steady
  // state — in-place rewrites + dirty-row re-verification.
  (void)session.reverifyEdits(batch, 1);
  for (auto _ : state) {
    for (EdgeLabelEdit& ed : batch) ed.bytes[0] ^= 0x01;  // corrupt / restore
    const auto res = session.reverifyEdits(batch, 1);
    benchmark::DoNotOptimize(res.allAccept);
  }
  state.counters["dirty_edges"] = static_cast<double>(dirtyEdges);
}
BENCHMARK(BM_Reverify)
    ->Args({1024, 1})
    ->Args({1024, 10})
    ->Args({1024, 100})
    ->Args({1024, 1000})
    ->Args({4096, 1})
    ->Args({4096, 10})
    ->Args({4096, 100})
    ->Args({4096, 1000})
    ->Unit(benchmark::kMillisecond);

void BM_SingleVertexVerification(benchmark::State& state) {
  // The cost of ONE vertex's local check (what a real processor pays).
  const auto inst = instance(2, 1024);
  const auto proved = proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep);
  const auto verifier = makeCoreVerifier(makeConnectivity());
  std::vector<std::string_view> incident;
  for (const Arc& a : inst.g.arcs(0)) {
    incident.push_back(proved.labels[static_cast<std::size_t>(a.edge)]);
  }
  EdgeView view;
  view.selfId = inst.ids.id(0);
  view.incidentLabels = incident;
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier(view));
  }
}
BENCHMARK(BM_SingleVertexVerification)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
