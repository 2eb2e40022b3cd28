// The `bulk` workload: one caller, library calls only, one large
// bounded-pathwidth graph, t = nproc.  Phases:
//
//   cold prove    bestIntervalRepresentation -> buildProvePlan -> proveCore
//   warm prove    SnapshotStore::persistNow, then tryLoad -> proveCore
//   verify        one-shot simulateEdgeScheme
//   reverify      a VerifySession absorbing edit batches that alternate
//                 corrupt and restore, the verdict checked on every batch
//   dist verify   dist::DistVerifier with K = nproc (construct + verifyAll)
//
// The phases are interleaved over the whole run; each reports its median.
// In the end-to-end metrics the "requests" of bulk are the edit batches:
// p50_ms / p99_ms are batch latencies and max_rps is the closed-loop batch
// rate.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bulk.hpp"
#include "core/prover.hpp"
#include "core/verifier.hpp"
#include "core/verify_session.hpp"
#include "dist/dist_verifier.hpp"
#include "mso/properties.hpp"
#include "pathwidth/pathwidth.hpp"
#include "runtime/executor.hpp"
#include "snapshot/snapshot.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace lcbench {
namespace {

using namespace lanecert;

constexpr int kVertices = 4096;
/// Rounds of (cold prove, warm prove, verify) per second of --seconds.
constexpr double kRoundsPerSecond = 0.8;
constexpr int kDistReps = 5;
constexpr int kSetups = 5;
constexpr int kEditsPerBatch = 4;
/// Edit batches per second of --seconds (fixed work, not a deadline, so
/// the counts of a run depend on the seed and --seconds only).
constexpr int kBatchesPerSecond = 300;
constexpr const char* kProperty = "connectivity";

struct Input {
  Graph g;
  IdAssignment ids;
};

/// The same graph on every seed, so phase times and certificate bytes do
/// not move with graph structure; the seed drives the edit stream.
constexpr std::uint64_t kGraphSeed = 4096;

Input makeInput() {
  Rng rng(kGraphSeed);
  Graph g = rbpw2(kVertices, rng);
  return {std::move(g), IdAssignment::identity(kVertices)};
}

/// The phase figures of one pass over the workload.
struct Pass {
  std::vector<double> proveS, warmProveS, verifyS, distS, batchMs;
  std::uint64_t certBytes = 0;
};

class BulkRunner {
 public:
  BulkRunner(const Args& args, Report& report, Input input,
             ParallelExecutor& exec)
      : args_(args), report_(report), in_(std::move(input)), exec_(exec),
        prop_(propertyByName(kProperty)) {}

  /// Cold prove from the bare graph; also the set-up's honest certificate.
  CoreProveResult coldProve(Tracer& tr) {
    ScopedSpan phase(tr, "bulk.prove");
    IntervalRepresentation rep;
    {
      ScopedSpan s(tr, "pathwidth.rep", phase.id());
      rep = bestIntervalRepresentation(in_.g, 18, &exec_);
    }
    width_ = rep.width();
    ProvePlan plan;
    {
      ScopedSpan s(tr, "core.plan", phase.id());
      plan = buildProvePlan(in_.g, &rep, &exec_);
    }
    ScopedSpan s(tr, "core.prove", phase.id());
    return proveCore(in_.g, in_.ids, *prop_, plan, exec_);
  }

  void setHonest(CoreProveResult r) { honest_ = std::move(r); }
  [[nodiscard]] const CoreProveResult& honest() const { return honest_; }
  [[nodiscard]] int width() const { return width_; }

  /// One pass: rounds of (cold prove, warm prove, verify, a share of the
  /// edit stream), with kDistReps dist verifies spread over them.  Every
  /// phase is sampled across the whole pass, so a slow stretch of the
  /// machine touches every phase alike.
  Pass run(Tracer& tr, Metrics& m) {
    Pass pass;
    pass.certBytes = labelBytes(honest_.labels);
    const std::string snapDir = args_.scratchDir + "/snapshots";
    const int rounds =
        std::max(kDistReps, static_cast<int>(args_.seconds * kRoundsPerSecond));
    const int pairs =
        std::max(1, static_cast<int>(args_.seconds * kBatchesPerSecond / 2));
    EditStream edits(*this, tr);
    for (int round = 0; round < rounds; ++round) {
      pass.proveS.push_back(timedColdProve(tr));
      pass.warmProveS.push_back(timedWarmProve(tr, m, snapDir));
      pass.verifyS.push_back(timedVerify(tr));
      edits.run((round + 1) * pairs / rounds - round * pairs / rounds, pass);
      if ((round + 1) * kDistReps / rounds != round * kDistReps / rounds) {
        pass.distS.push_back(timedDistVerify(tr, m));
      }
    }
    std::filesystem::remove_all(snapDir);
    edits.report(m, pass);
    return pass;
  }

 private:
  double timedColdProve(Tracer& tr) {
    const auto t0 = Clock::now();
    const CoreProveResult r = coldProve(tr);
    const double s = secondsSince(t0);
    report_.attempt(r.propertyHolds && r.labels == honest_.labels,
                    "cold prove differs from the set-up prove");
    return s;
  }

  double timedWarmProve(Tracer& tr, Metrics& m, const std::string& snapDir) {
    std::filesystem::remove_all(snapDir);
    snapshot::SnapshotStore store(snapDir);
    {
      // What the warm start loads: the plan a cold start built.
      const ProvePlan plan = buildProvePlan(in_.g, nullptr, &exec_);
      const auto key = snapshot::planSnapshotKey(in_.g, nullptr);
      ScopedSpan s(tr, "snapshot.persist");
      report_.attempt(store.persistNow(key, plan), "snapshot persist");
      m["snapshot.bytes"] = static_cast<double>(std::filesystem::file_size(
          snapDir + "/" + snapshot::snapshotFileName(key)));
    }
    const auto t0 = Clock::now();
    ScopedSpan phase(tr, "bulk.warm_prove");
    std::shared_ptr<const ProvePlan> plan;
    {
      ScopedSpan s(tr, "snapshot.load", phase.id());
      plan = store.tryLoad(in_.g, nullptr);
    }
    CoreProveResult r;
    if (plan) {
      ScopedSpan s(tr, "core.prove", phase.id());
      r = proveCore(in_.g, in_.ids, *prop_, *plan, exec_);
    }
    const double s = secondsSince(t0);
    report_.attempt(plan && r.labels == honest_.labels,
                    "warm prove differs from the cold prove");
    m["snapshot.rejects"] += static_cast<double>(store.stats().rejects);
    return s;
  }

  double timedVerify(Tracer& tr) {
    const auto t0 = Clock::now();
    ScopedSpan phase(tr, "bulk.verify");
    SimulationResult r;
    {
      ScopedSpan s(tr, "core.verify", phase.id());
      r = simulateEdgeScheme(in_.g, in_.ids, honest_.labels,
                             makeCoreVerifier(prop_), exec_);
    }
    const double s = secondsSince(t0);
    report_.attempt(r.allAccept, "one-shot verify rejected honest labels");
    return s;
  }

  double timedDistVerify(Tracer& tr, Metrics& m) {
    dist::DistOptions opts;
    opts.workers = exec_.numThreads();
    const auto t0 = Clock::now();
    ScopedSpan phase(tr, "bulk.dist_verify");
    const int start = tr.begin("dist.start", phase.id());
    dist::DistVerifier dv(in_.g, in_.ids, honest_.labels, kProperty, {}, opts);
    tr.end(start);
    SimulationResult r;
    {
      ScopedSpan s(tr, "dist.sweep", phase.id());
      r = dv.verifyAll();
    }
    const double s = secondsSince(t0);
    report_.attempt(r.allAccept, "dist verify rejected honest labels");
    m["dist.worker_deaths"] += static_cast<double>(dv.stats().workerDeaths);
    return s;
  }

  /// A VerifySession absorbing edit batches that alternate corrupt and
  /// restore; the verdict is checked on every batch.
  class EditStream {
   public:
    EditStream(BulkRunner& b, Tracer& tr)
        : b_(b), tr_(tr),
          session_(b.in_.g, b.in_.ids, b.honest_.labels, b.prop_),
          rng_(b.args_.seed * 7919 + 1) {
      ScopedSpan s(tr_, "core.session_sweep");
      b_.report_.attempt(session_.verifyAll(b_.exec_).allAccept,
                         "session sweep rejected honest labels");
    }

    /// Applies `pairs` (corrupt, restore) pairs of batches.
    void run(int pairs, Pass& pass) {
      const int m0 = b_.in_.g.numEdges() - 1;
      for (int i = 0; i < pairs; ++i, ++p_) {
        std::vector<EdgeId> edges;
        for (int k = 0; k < kEditsPerBatch; ++k) {
          edges.push_back(static_cast<EdgeId>(rng_.uniformInt(0, m0)));
        }
        for (const bool corrupt : {true, false}) {
          std::vector<EdgeLabelEdit> batch;
          for (const EdgeId e : edges) {
            const std::string& label =
                b_.honest_.labels[static_cast<std::size_t>(e)];
            batch.push_back(
                {e, corrupt ? label + "-corrupt-" + std::to_string(p_) : label});
          }
          const auto t0 = Clock::now();
          ScopedSpan phase(tr_, "bulk.reverify");
          std::vector<VertexId> d;
          {
            ScopedSpan s(tr_, "runtime.apply_edits", phase.id());
            d = session_.applyEdits(batch);
          }
          SimulationResult r;
          {
            ScopedSpan s(tr_, "core.reverify", phase.id());
            r = session_.reverify(d, b_.exec_);
          }
          pass.batchMs.push_back(msSince(t0));
          dirty_ += static_cast<double>(d.size());
          b_.report_.attempt(r.allAccept != corrupt,
                             corrupt ? "corrupt batch accepted"
                                     : "restore batch rejected");
        }
      }
    }

    void report(Metrics& m, const Pass& pass) const {
      const SweepCacheStats cs = session_.cacheStats();
      m["core.dirty_vertices"] =
          dirty_ / static_cast<double>(pass.batchMs.size());
      m["core.sweep_cache_hits"] = static_cast<double>(cs.hits);
      m["core.sweep_cache_misses"] = static_cast<double>(cs.misses);
      m["core.sweep_memo_hits"] = static_cast<double>(cs.memoHits);
      const double probes =
          static_cast<double>(cs.hits + cs.misses + cs.memoHits);
      m["core.sweep_cache_hit_ratio"] =
          probes > 0 ? static_cast<double>(cs.hits + cs.memoHits) / probes : 0;
      m["core.stripe_contention"] = static_cast<double>(cs.stripeContention);
      m["runtime.epoch_slots"] = static_cast<double>(session_.epochSlots());
    }

   private:
    BulkRunner& b_;
    Tracer& tr_;
    VerifySession session_;
    Rng rng_;
    int p_ = 0;  ///< pairs applied so far; tags the corrupt labels
    double dirty_ = 0;
  };

  const Args& args_;
  Report& report_;
  Input in_;
  ParallelExecutor& exec_;
  PropertyPtr prop_;
  CoreProveResult honest_;
  int width_ = 0;
};

/// Median duration of the spans called `name`.
double spanMedianMs(const Tracer& tr, const std::string& name) {
  std::vector<double> d;
  for (const Span& s : tr.spans()) {
    if (s.name == name) d.push_back(s.durationMs());
  }
  return median(d);
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

void endToEnd(const Pass& p, Metrics& m) {
  m["prove_s"] = median(p.proveS);
  m["verify_s"] = median(p.verifyS);
  m["p50_ms"] = percentile(p.batchMs, 0.50);
  m["reverify_ms"] = m["p50_ms"];
  m["p99_ms"] = windowedPercentile(p.batchMs, 0.99);
  m["max_rps"] = static_cast<double>(p.batchMs.size()) / (sum(p.batchMs) / 1e3);
  m["cert_bytes"] = static_cast<double>(p.certBytes);
}

}  // namespace

void runBulk(const Args& args, Report& report, Metrics& m) {
  const int threads = hardwareThreads();
  ParallelExecutor exec(threads);
  Tracer off(false);

  // Set-up, repeated: generate the graph and compute the honest
  // certificate the later phases check against (this first prove also
  // warms the allocator and the executor).
  std::vector<double> setup;
  std::unique_ptr<BulkRunner> runner;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    runner = std::make_unique<BulkRunner>(args, report, makeInput(),
                                          exec);
    CoreProveResult honest = runner->coldProve(off);
    report.attempt(honest.propertyHolds, "set-up prove reported false");
    runner->setHonest(std::move(honest));
    setup.push_back(secondsSince(t0));
  }
  m["setup_s"] = median(setup);

  const Pass plain = runner->run(off, m);
  endToEnd(plain, m);
  report.note("bulk: n=" + std::to_string(kVertices) +
              " threads=" + std::to_string(threads) + " batches=" +
              std::to_string(plain.batchMs.size()) + " (" +
              std::to_string(kEditsPerBatch) + " edges each)");
  m["warm_prove_s"] = median(plain.warmProveS);
  m["dist_verify_s"] = median(plain.distS);

  if (!args.trace) return;

  // Traced pass over the same inputs: spans around every layer call.
  Tracer tr(true);
  const Pass traced = runner->run(tr, m);
  const CoreProveResult& h = runner->honest();
  m["pathwidth.rep_ms"] = spanMedianMs(tr, "pathwidth.rep");
  m["pathwidth.width"] = runner->width();
  m["core.plan_ms"] = spanMedianMs(tr, "core.plan");
  m["core.lanes"] = h.stats.numLanes;
  m["core.hier_depth"] = h.stats.hierarchyDepth;
  m["core.prove_ms"] = spanMedianMs(tr, "core.prove");
  m["core.label_bytes_max"] = static_cast<double>(maxLabelBytes(h.labels));
  m["core.verify_ms"] = spanMedianMs(tr, "core.verify");
  m["core.reverify_ms"] = spanMedianMs(tr, "core.reverify");
  m["runtime.apply_edits_ms"] = spanMedianMs(tr, "runtime.apply_edits");
  m["snapshot.persist_ms"] = spanMedianMs(tr, "snapshot.persist");
  m["snapshot.load_ms"] = spanMedianMs(tr, "snapshot.load");
  m["dist.start_ms"] = spanMedianMs(tr, "dist.start");
  m["dist.sweep_ms"] = spanMedianMs(tr, "dist.sweep");

  const double plainTotal = sum(plain.proveS) + sum(plain.warmProveS) +
                            sum(plain.verifyS) + sum(plain.distS) +
                            sum(plain.batchMs) / 1e3;
  const double tracedTotal = sum(traced.proveS) + sum(traced.warmProveS) +
                             sum(traced.verifyS) + sum(traced.distS) +
                             sum(traced.batchMs) / 1e3;
  m["trace.overhead_pct"] = 100.0 * (tracedTotal - plainTotal) / plainTotal;
  // The phase spans must account for the end-to-end figures: the traced
  // prove and batch spans against the untraced prove_s and batch p50.
  m["trace.prove_span_pct"] =
      100.0 * spanMedianMs(tr, "bulk.prove") / (m["prove_s"] * 1e3);
  m["trace.reverify_span_pct"] =
      100.0 * spanMedianMs(tr, "bulk.reverify") / m["p50_ms"];
  // ...and inside the traced pass, the layer spans must cover the phase
  // spans they sit in (what is left is the benchmark's own glue).
  const std::vector<double> covered = childCoverageMs(tr.spans());
  for (const char* phase : {"bulk.prove", "bulk.reverify"}) {
    double total = 0, inChildren = 0;
    for (std::size_t i = 0; i < tr.spans().size(); ++i) {
      if (tr.spans()[i].name != phase) continue;
      total += tr.spans()[i].durationMs();
      inChildren += covered[i];
    }
    report.note(std::string("trace: layer spans cover ") +
                std::to_string(100.0 * inChildren / total) + "% of " + phase);
    report.check(inChildren >= 0.95 * total,
                 std::string("layer spans cover under 95% of ") + phase);
  }
  for (const auto& [layer, ms] : selfTimeByLayerMs(tr.spans())) {
    m["self." + (layer == "bulk" ? std::string("bench") : layer) + "_ms"] = ms;
  }
  tr.dump(args.scratchDir + "/trace-bulk-" + std::to_string(args.seed) +
          ".jsonl");
}

}  // namespace lcbench
