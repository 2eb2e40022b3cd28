#pragma once
// The centralized prover of the core scheme (Theorem 1).
//
// Pipeline: interval representation (given or computed) -> Prop 4.6 lane
// plan -> Prop 5.2 construction sequence -> Prop 5.6 hierarchical
// decomposition -> bottom-up hom-state computation (Prop 6.1) -> per-edge
// certificates (Lemmas 6.4/6.5) -> embedding simulation of virtual edges
// (Theorem 1) -> Prop 2.2 pointer to the decomposition's anchor vertex.
//
// The prover refuses to label configurations that do not satisfy the
// property (soundness makes honest labels impossible anyway); callers see
// `propertyHolds == false` and an empty label vector.

#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "interval/interval.hpp"
#include "klane/hierarchy.hpp"
#include "lane/embedding.hpp"
#include "lanewidth/lanewidth.hpp"
#include "mso/property.hpp"

namespace lanecert {

class ParallelExecutor;

/// Prover-side diagnostics (feed benchmarks E1-E4).
struct CoreProveStats {
  int width = 0;            ///< interval representation width used
  int numLanes = 0;         ///< lanes produced by Prop 4.6
  int hierarchyDepth = 0;   ///< decomposition depth (<= 2 * numLanes)
  int maxCongestion = 0;    ///< embedding congestion (<= h(width))
  std::size_t maxLabelBits = 0;
  std::size_t totalLabelBits = 0;
};

/// Result of proving: per-edge labels for G (empty when the property fails).
struct CoreProveResult {
  bool propertyHolds = false;
  std::vector<std::string> labels;  ///< one per EdgeId of g
  CoreProveStats stats;
};

/// The PROPERTY-INDEPENDENT head of the prover pipeline: interval
/// representation -> Prop 4.6 lane plan -> Prop 5.2 construction sequence
/// -> Prop 5.6 hierarchical decomposition.  Everything downstream (hom
/// states, records, labels) depends on the property and the id assignment;
/// nothing in here does — the same ProvePlan serves every (property, ids)
/// pair over one graph, which the batched serving layer exploits by caching
/// plans per graph.  Precondition: g connected with >= 2 vertices.
struct ProvePlan {
  IntervalRepresentation rep;
  LanePlan plan;
  ConstructionSequence seq;
  HierarchyResult hier;
};

/// Builds the plan stage.  `rep` may supply a known interval representation
/// (e.g. from a generator); otherwise one is computed (exact for small
/// graphs, greedy otherwise; see bestIntervalRepresentation).  `exec` is
/// unused: every plan stage is serial.  The parameter stays only so that
/// existing callers keep compiling.  Throws std::invalid_argument for a
/// disconnected graph, before any decomposition work runs.
[[nodiscard]] ProvePlan buildProvePlan(
    const Graph& g, const IntervalRepresentation* rep = nullptr,
    ParallelExecutor* exec = nullptr);

/// Runs the full prover: buildProvePlan, then the planned body below on a
/// private executor of `numThreads` (<= 0 resolves to the hardware
/// concurrency, mirroring SimulationOptions).  `rep` may supply a known
/// interval representation (e.g. from a generator); otherwise one is
/// computed.  Precondition: ids distinct; a disconnected g throws
/// std::invalid_argument.
///
/// The result — labels, stats, everything — is BIT-IDENTICAL for every
/// thread count: waves only order work that is independent by
/// construction, and every output slot is written by exactly one shard.
[[nodiscard]] CoreProveResult proveCore(const Graph& g, const IdAssignment& ids,
                                        const Property& prop,
                                        const IntervalRepresentation* rep = nullptr,
                                        int numThreads = 1);

/// The planned prover body over an EXTERNAL executor: runs hom-state waves,
/// record encoding, and label assembly for one (property, ids) pair against
/// a prebuilt plan.  `exec` may be private or borrowed from a shared
/// WorkerPool (the serving path) — output is bit-identical either way and
/// equal to proveCore(g, ids, prop, rep, t) for every thread count t.
/// Precondition: g is the graph the plan was built from, g connected with
/// >= 2 vertices (degenerate graphs never reach the plan stage).
[[nodiscard]] CoreProveResult proveCore(const Graph& g, const IdAssignment& ids,
                                        const Property& prop,
                                        const ProvePlan& plan,
                                        ParallelExecutor& exec);

}  // namespace lanecert
