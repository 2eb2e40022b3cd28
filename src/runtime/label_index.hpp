#pragma once
// Zero-copy per-vertex label views for the simulators and VerifySession.
//
// The seed simulator deep-copied every edge label into each endpoint's view
// (two heap copies per label) and sorted the copies per vertex.
// VertexLabelIndex instead holds std::string_view slices ALIASING the
// caller's label vector — building a vertex's multiset view costs no
// label-byte copies at all; per vertex we only sort a small array of
// (pointer, length) slices.  The labels must stay alive, and no label may
// be reassigned, while the index is read: the simulators guarantee that
// for the duration of a sweep, and VerifySession refreshes the rows of an
// edited label's endpoints before its next sweep.
//
// Row v holds the sorted label views a vertex sees (incident-edge labels for
// edge schemes, neighbor labels for vertex schemes).  Rows are immutable
// during a sweep, so any number of verifier threads can read them
// concurrently; after an edit, refreshIncidentEdgeRows re-fills and
// re-sorts exactly the dirty rows (row lengths never change — the topology
// is fixed — so the refresh is in place in the flattened array).

#include <cstddef>
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

/// Size in bits of the largest label and of all labels together.
struct LabelBits {
  std::size_t maxBits = 0;
  std::size_t totalBits = 0;
};
[[nodiscard]] LabelBits labelBits(std::span<const std::string> labels);

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
[[nodiscard]] VertexLabelIndex buildIncidentEdgeIndex(
    const Graph& g, std::span<const std::string> labels,
    ParallelExecutor& exec);

/// Row v = labels of v's neighbors (vertex schemes: labels[a.to]).
[[nodiscard]] VertexLabelIndex buildNeighborIndex(
    const Graph& g, std::span<const std::string> labels,
    ParallelExecutor& exec);

/// Re-fills and re-sorts the incident-edge rows of `dirty` vertices from
/// the current `labels`; every other row is untouched.  Dirty sets are
/// small (that is the point of incremental re-verification), so this is
/// sequential.
void refreshIncidentEdgeRows(VertexLabelIndex& idx, const Graph& g,
                             std::span<const std::string> labels,
                             std::span<const VertexId> dirty);

}  // namespace lanecert
