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
//  * the versioned LabelStore + CSR vertex index (runtime layer), edited in
//    place between sweeps — applyEdits returns exactly the dirty rows;
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
#include "runtime/label_store.hpp"

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

  /// Applies the edit batch to the owned store (bumping its version) and
  /// refreshes the dirty CSR rows; returns the dirty vertex set, ascending.
  /// Does NOT re-verify — pass the result to reverify(), or use
  /// reverifyEdits() to do both.
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

  /// Store version: 0 until the first edit, bumped once per applyEdits.
  [[nodiscard]] std::uint64_t storeVersion() const { return store_.version(); }
  /// True once verifyAll has completed (reverify is allowed).
  [[nodiscard]] bool swept() const { return swept_; }
  [[nodiscard]] const Graph& graph() const { return g_; }
  [[nodiscard]] const IdAssignment& ids() const { return ids_; }
  /// Current bytes of edge `e`'s label (valid until the next applyEdits).
  [[nodiscard]] std::string_view label(EdgeId e) const {
    return store_.view(static_cast<std::size_t>(e));
  }
  /// Per-vertex verdicts of the last sweep (1 = accept), indexed by vertex.
  [[nodiscard]] std::span<const std::uint8_t> verdicts() const {
    return verdicts_;
  }
  /// Distinct chain entries in the engine's sweep cache (diagnostics).
  [[nodiscard]] std::size_t sweepCacheSize() const {
    return engine_.sweepCacheSize();
  }
  /// Sweep-cache hit/miss/contention counters + read-memo hits
  /// (monotonic; the serving layer surfaces them per session).
  [[nodiscard]] SweepCacheStats cacheStats() const {
    return engine_.cacheStats();
  }
  /// Epoch slots held by the owned store.  Bounded under a sustained edit
  /// stream: applyEdits folds garbage slots via LabelStore::compactEpochs
  /// once they dominate the live set — the soak bench charts this to prove
  /// memory does not creep.
  [[nodiscard]] std::size_t epochSlots() const { return store_.epochSlots(); }

 private:
  void ensureIndex(ParallelExecutor& exec);
  void ensureThreadStates(int count);
  [[nodiscard]] SimulationResult assembleResult() const;
  void checkVertexInto(VertexId v, CoreVerifierEngine::ThreadState& state);

  Graph g_;
  IdAssignment ids_;
  /// Seed label bytes; the store aliases them until an edit repoints a
  /// label into store-owned epoch storage.
  std::vector<std::string> seedLabels_;
  LabelStore store_;
  VertexLabelIndex index_;
  bool indexBuilt_ = false;
  CoreVerifierEngine engine_;
  std::vector<CoreVerifierEngine::ThreadState> threadStates_;
  std::vector<std::uint8_t> verdicts_;  ///< 1 = accept, indexed by vertex
  bool swept_ = false;
};

}  // namespace lanecert
