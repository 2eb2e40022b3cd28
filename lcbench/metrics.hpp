#pragma once
// The metric table of the benchmark.  BENCHMARK.json names the same
// metrics; `lcbench --list-metrics` prints this table so run.py can check
// the two agree.
//
// Every workload reports every metric of its mode.  A per-layer metric of
// a layer the workload never calls reads 0 (bulk has no wire or service
// layer; the wire workloads never persist snapshots or fork dist owners).

#include <map>
#include <string>
#include <vector>

namespace lcbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (reported with --trace 0): per-op medians, because
/// the ops' latencies differ by an order of magnitude and a median over the
/// mix sits on the boundary between two of them.  Every run also measures
/// p50_ms and p99_ms over the mix and peak_rss_mb and prints them in its
/// text report; they are not in this table because their run-to-run spread
/// on wire_hot (the mix boundary for the p50, stalls of a shared 4-vCPU
/// host for the p99, allocator arenas for the RSS) exceeds any bound a
/// regression gate could use.
inline const std::vector<MetricDef>& endToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},  {"cert_bytes", "bytes"}, {"max_rps", "1/s"},
      {"prove_s", "s"},  {"verify_s", "s"},       {"reverify_ms", "ms"},
  };
  return defs;
}

/// Per-layer metrics (reported with --trace 1).
inline const std::vector<MetricDef>& perLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"pathwidth.rep_ms", "ms"},
      {"pathwidth.width", "count"},
      {"core.plan_ms", "ms"},
      {"core.lanes", "count"},
      {"core.hier_depth", "count"},
      {"core.prove_ms", "ms"},
      {"core.label_bytes_max", "bytes"},
      {"core.verify_ms", "ms"},
      {"core.reverify_ms", "ms"},
      {"core.dirty_vertices", "count"},
      {"core.sweep_cache_hits", "count"},
      {"core.sweep_cache_misses", "count"},
      {"core.sweep_memo_hits", "count"},
      {"core.sweep_cache_hit_ratio", "ratio"},
      {"core.stripe_contention", "count"},
      {"runtime.apply_edits_ms", "ms"},
      {"runtime.epoch_slots", "count"},
      {"snapshot.persist_ms", "ms"},
      {"snapshot.load_ms", "ms"},
      {"snapshot.bytes", "bytes"},
      {"snapshot.rejects", "count"},
      {"dist.start_ms", "ms"},
      {"dist.sweep_ms", "ms"},
      {"dist.worker_deaths", "count"},
      {"serve.prove_ms", "ms"},
      {"serve.verify_ms", "ms"},
      {"serve.reverify_ms", "ms"},
      {"serve.wait_ms", "ms"},
      {"serve.result_cache_hit_ratio.prove", "ratio"},
      {"serve.result_cache_hit_ratio.verify", "ratio"},
      {"serve.plan_cache_hit_ratio", "ratio"},
      {"serve.plan_builds", "count"},
      {"serve.rejected", "count"},
      {"net.overhead_ms.prove", "ms"},
      {"net.overhead_ms.verify", "ms"},
      {"net.overhead_ms.reverify", "ms"},
      {"net.frames_read", "count"},
      {"net.stream_encodes", "count"},
      {"net.stream_reuse_ratio", "ratio"},
      {"net.cert_bytes_queued", "bytes"},
      {"net.short_writes", "count"},
      {"net.quota_rejected", "count"},
      {"client.prove_p99_ms", "ms"},
      {"client.verify_p99_ms", "ms"},
      {"client.reverify_p99_ms", "ms"},
      {"gen.late_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.prove_span_pct", "%"},
      {"trace.reverify_span_pct", "%"},
      {"self.bench_ms", "ms"},
      {"self.pathwidth_ms", "ms"},
      {"self.core_ms", "ms"},
      {"self.runtime_ms", "ms"},
      {"self.snapshot_ms", "ms"},
      {"self.dist_ms", "ms"},
      {"self.serve_ms", "ms"},
      {"self.net_ms", "ms"},
  };
  return defs;
}

/// Values a workload measured, by metric name.
using Metrics = std::map<std::string, double>;

}  // namespace lcbench
