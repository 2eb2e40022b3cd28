#pragma once
// VerifySession — resumable verification with incremental re-checking.
//
// The core scheme's verifier is strictly LOCAL: a vertex's verdict is a
// pure function of its own identifier and the multiset of labels on its
// incident edges.  So when an edit batch rewrites the labels of a few
// edges, only the edited edges' endpoints can change verdict — every other
// vertex sees a byte-identical view.  A one-shot simulateEdgeScheme call
// throws that locality away (full sweep per query); VerifySession keeps the
// sweep state alive between queries instead:
//
//  * one owned string per edge and the CSR vertex index over them (runtime
//    layer): applyEdits overwrites the edited strings in place, re-sorts
//    their endpoints' rows and returns exactly those dirty rows;
//  * the per-vertex verdict vector, carried across sweeps so a re-verify
//    only recomputes dirty rows and still reports the WHOLE graph's
//    rejecting set;
//  * the CoreVerifierEngine with its sweep-level validated-entry cache and
//    the per-shard ThreadStates (decode arenas + flat scratch), so repeat
//    sweeps skip the algebra replay for every chain entry already seen.
//
// Equivalence contract (asserted by tests/test_reverify.cpp): after any
// sequence of applyEdits/reverify calls, the returned SimulationResult is
// BYTE-IDENTICAL to a fresh simulateEdgeScheme over the current labels, for
// every executor thread count — same rejecting vector, same bit stats.
//
// Threading: reverify/verifyAll shard dirty rows over the caller's
// deterministic executor (contiguous ordered shards, one ThreadState per
// shard).  The session itself is NOT internally synchronized — callers
// serialize applyEdits/reverify per session (the serving layer's session
// registry runs one driver per session at a time).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/verifier.hpp"
#include "graph/graph.hpp"
#include "pls/scheme.hpp"
#include "runtime/label_index.hpp"

namespace lanecert {

class VerifySession {
 public:
  /// Takes ownership of the configuration: `labels[e]` is EdgeId e's label.
  /// Throws std::invalid_argument unless labels.size() == g.numEdges().
  VerifySession(Graph g, IdAssignment ids, std::vector<std::string> labels,
                PropertyPtr prop, CoreVerifierParams params = {});

  /// Full sweep over every vertex; (re)initializes all verdicts.  Identical
  /// to simulateEdgeScheme over the current labels for every thread count.
  SimulationResult verifyAll(ParallelExecutor& exec);
  SimulationResult verifyAll(int numThreads = 1);

  /// Overwrites the edited labels in batch order (a later edit of the same
  /// edge wins), recomputes the bit totals exactly, bumps the version once
  /// and refreshes the dirty CSR rows; returns the dirty vertex set — the
  /// endpoints of every edited edge, ascending, deduplicated.  An empty
  /// batch is a no-op and bumps nothing.  Throws std::out_of_range for an
  /// edge id that is not a label index — checked up front, so a throwing
  /// batch applies NOTHING.  Does NOT re-verify — pass the result to
  /// reverify(), or use reverifyEdits() to do both.
  std::vector<VertexId> applyEdits(std::span<const EdgeLabelEdit> edits);

  /// Re-runs the verifier on `dirtyVertices` only (sharded over `exec`) and
  /// returns the whole-graph result with every other verdict carried over.
  /// Requires a completed verifyAll (throws std::logic_error otherwise) and
  /// in-range vertex ids (throws std::out_of_range).  Ascending unique
  /// input (applyEdits' output) shards zero-copy; anything else is
  /// deduplicated into a local copy first.
  SimulationResult reverify(std::span<const VertexId> dirtyVertices,
                            ParallelExecutor& exec);

  /// applyEdits + reverify in one call.  Before the first full sweep this
  /// falls back to verifyAll (there are no verdicts to carry over yet), so
  /// an empty edit batch doubles as "run the initial sweep".
  SimulationResult reverifyEdits(std::span<const EdgeLabelEdit> edits,
                                 ParallelExecutor& exec);
  SimulationResult reverifyEdits(std::span<const EdgeLabelEdit> edits,
                                 int numThreads = 1);

  /// Label version: 0 until the first edit, bumped once per non-empty
  /// applyEdits.
  [[nodiscard]] std::uint64_t storeVersion() const { return version_; }
  /// True once verifyAll has completed (reverify is allowed).
  [[nodiscard]] bool swept() const { return swept_; }
  [[nodiscard]] const Graph& graph() const { return g_; }
  [[nodiscard]] const IdAssignment& ids() const { return ids_; }
  /// Current bytes of edge `e`'s label (valid until the next applyEdits).
  [[nodiscard]] std::string_view label(EdgeId e) const {
    return labels_[static_cast<std::size_t>(e)];
  }
  /// Per-vertex verdicts of the last sweep (1 = accept), indexed by vertex.
  [[nodiscard]] std::span<const std::uint8_t> verdicts() const {
    return verdicts_;
  }
  /// Distinct chain entries in the engine's sweep cache (diagnostics).
  [[nodiscard]] std::size_t sweepCacheSize() const {
    return engine_.sweepCacheSize();
  }
  /// Sweep-cache counters (monotonic; the serving layer surfaces them per
  /// session).
  [[nodiscard]] SweepCacheStats cacheStats() const {
    return engine_.cacheStats();
  }
  /// Always 0: labels are overwritten in place, so no epoch slots exist.
  /// Kept only because lcbench reads it; the benchmark-contract change
  /// (ROADMAP.md item 4) removes it together with those reads.
  [[nodiscard]] std::size_t epochSlots() const { return 0; }

 private:
  void ensureIndex(ParallelExecutor& exec);
  void ensureThreadStates(int count);
  [[nodiscard]] SimulationResult assembleResult() const;
  void checkVertexInto(VertexId v, CoreVerifierEngine::ThreadState& state);

  Graph g_;
  IdAssignment ids_;
  /// labels_[e] = EdgeId e's label.  Never resized, so assigning label e
  /// can move only label e's bytes, which only its endpoints' rows view.
  std::vector<std::string> labels_;
  std::uint64_t version_ = 0;
  LabelBits bits_;
  VertexLabelIndex index_;
  bool indexBuilt_ = false;
  CoreVerifierEngine engine_;
  std::vector<CoreVerifierEngine::ThreadState> threadStates_;
  std::vector<std::uint8_t> verdicts_;  ///< 1 = accept, indexed by vertex
  bool swept_ = false;
};

}  // namespace lanecert
