#pragma once
// Zero-copy label storage for the simulators, now versioned and mutable.
//
// The seed simulator deep-copied every edge label into each endpoint's view
// (two heap copies per label) and sorted the copies per vertex.  LabelStore
// instead exposes std::string_view slices ALIASING the caller's label
// vector — building a vertex's multiset view costs no label-byte copies at
// all; per vertex we only sort a small array of (pointer, length) slices.
// The caller's labels must stay alive and unmodified while the store (and
// any views derived from it) is in use; the simulators guarantee that for
// the duration of a sweep.
//
// Incremental re-verification (the VerifySession layer) needs the store to
// survive label EDITS between sweeps, so construction-time immutability is
// now a special case rather than the contract:
//
//  * every store carries a VERSION counter, bumped once per applyEdits
//    call, so downstream caches (the serving layer's verify result cache)
//    can tell a mutated store from the one they keyed a result under;
//  * applyEdits(g, edits) rewrites the edited labels — in place when the
//    label already lives in store-owned memory of the same size, otherwise
//    by appending the bytes into an epoch buffer owned by the store (a
//    deque, so previously handed-out views of OTHER labels never move) —
//    and returns the dirty vertex set: the endpoints of the edited edges,
//    ascending and deduplicated, exactly the rows whose multiset views
//    changed.  Caller-owned label bytes are never written through.
//
// VertexLabelIndex is the CSR-style per-vertex index over the store:
// row v holds the sorted label views a vertex sees (incident-edge labels for
// edge schemes, neighbor labels for vertex schemes).  Rows are immutable
// during a sweep, so any number of verifier threads can read them
// concurrently; after applyEdits, refreshIncidentEdgeRows re-fills and
// re-sorts exactly the dirty rows (row lengths never change — the topology
// is fixed — so the refresh is in place in the flattened array).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace lanecert {

class ParallelExecutor;

/// One label rewrite: edge `edge`'s label becomes `bytes`.
struct EdgeLabelEdit {
  EdgeId edge = kNoEdge;
  std::string bytes;
};

/// View collection over a label vector (no byte copies at construction),
/// mutable through applyEdits and versioned so callers can detect edits.
class LabelStore {
 public:
  LabelStore() = default;
  explicit LabelStore(const std::vector<std::string>& labels);

  // Movable but not copyable: after applyEdits, views_ aliases the OWNED
  // epoch deque, so a member-wise copy would alias the source's storage
  // and dangle when the source dies.  Moves transfer the deque (string
  // addresses are stable under deque move), so views stay valid.
  LabelStore(const LabelStore&) = delete;
  LabelStore& operator=(const LabelStore&) = delete;
  LabelStore(LabelStore&&) = default;
  LabelStore& operator=(LabelStore&&) = default;

  /// Number of labels.
  [[nodiscard]] std::size_t size() const { return views_.size(); }
  /// Zero-copy view of label `i`; aliases the construction-time vector or,
  /// once edited, a store-owned epoch buffer.
  [[nodiscard]] std::string_view view(std::size_t i) const {
    return views_[i];
  }
  /// Size in bits of the largest label.
  [[nodiscard]] std::size_t maxLabelBits() const { return maxBits_; }
  /// Total size in bits over all labels.
  [[nodiscard]] std::size_t totalLabelBits() const { return totalBits_; }
  /// Bumped once per applyEdits call (0 for a freshly built store).
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Applies `edits` (in order; later edits to the same edge win), bumps
  /// the version once (empty batches are no-ops and bump nothing), and
  /// returns the dirty vertex set — the endpoints of
  /// every edited edge in `g`, ascending, deduplicated.  Label sizes may
  /// grow or shrink freely; maxLabelBits/totalLabelBits are recomputed
  /// exactly.  Throws std::out_of_range for an edit whose edge id is not a
  /// label index — checked up front, so a throwing batch applies NOTHING.
  /// NOT safe concurrently with sweeps over this store.
  std::vector<VertexId> applyEdits(const Graph& g,
                                   std::span<const EdgeLabelEdit> edits);

  /// Epoch slots currently held: live (referenced by some label) plus
  /// garbage (superseded by a later size-changing edit of the same label).
  /// Grows monotonically between compactions under a sustained edit
  /// stream — the soak metric compactEpochs() exists to bound.
  [[nodiscard]] std::size_t epochSlots() const { return owned_.size(); }
  /// Labels whose CURRENT bytes live in store-owned epoch slots (the live
  /// slot count; epochSlots() - ownedLabels() is reclaimable garbage).
  [[nodiscard]] std::size_t ownedLabels() const;
  /// Bytes held across all epoch slots, live and garbage.
  [[nodiscard]] std::size_t epochBytes() const;

  /// Folds the epoch deque: drops every superseded slot and re-packs the
  /// live ones.  Returns the label indices whose bytes MOVED (every
  /// store-owned label) — the caller must refresh any index rows aliasing
  /// those labels before the next sweep reads them.  Content is unchanged,
  /// so the version does NOT bump (downstream result caches stay valid);
  /// a store with no garbage returns empty and moves nothing.  NOT safe
  /// concurrently with sweeps over this store.
  std::vector<std::size_t> compactEpochs();

 private:
  std::vector<std::string_view> views_;
  /// Label index -> slot in `owned_`, or -1 while the label still aliases
  /// the construction-time vector.
  std::vector<std::int32_t> slot_;
  /// Epoch buffers holding edited label bytes; a deque so addresses are
  /// stable under growth (outstanding views of other labels stay valid).
  std::deque<std::string> owned_;
  std::uint64_t version_ = 0;
  std::size_t maxBits_ = 0;
  std::size_t totalBits_ = 0;
};

/// CSR index: row v = sorted multiset of label views seen by vertex v.
struct VertexLabelIndex {
  std::vector<std::size_t> rowPtr;     ///< numVertices + 1 entries
  std::vector<std::string_view> rows;  ///< flattened, each row sorted

  /// Sorted label views of vertex `v` (empty span for isolated vertices).
  [[nodiscard]] std::span<const std::string_view> row(VertexId v) const {
    const auto i = static_cast<std::size_t>(v);
    return {rows.data() + rowPtr[i], rowPtr[i + 1] - rowPtr[i]};
  }
};

/// Row v = labels of v's incident edges (edge schemes: labels[a.edge]).
/// Row filling and sorting are sharded over `exec`.
[[nodiscard]] VertexLabelIndex buildIncidentEdgeIndex(const Graph& g,
                                                      const LabelStore& store,
                                                      ParallelExecutor& exec);

/// Row v = labels of v's neighbors (vertex schemes: labels[a.to]).
[[nodiscard]] VertexLabelIndex buildNeighborIndex(const Graph& g,
                                                  const LabelStore& store,
                                                  ParallelExecutor& exec);

/// Re-fills and re-sorts the incident-edge rows of `dirty` vertices from
/// the store's current views; every other row is untouched.  Dirty sets
/// are small (that is the point of incremental re-verification), so this
/// is sequential.
void refreshIncidentEdgeRows(VertexLabelIndex& idx, const Graph& g,
                             const LabelStore& store,
                             std::span<const VertexId> dirty);

}  // namespace lanecert
