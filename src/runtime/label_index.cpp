#include "runtime/label_index.hpp"

#include <algorithm>

#include "runtime/executor.hpp"

namespace lanecert {

LabelBits labelBits(std::span<const std::string> labels) {
  LabelBits bits;
  for (const std::string& l : labels) {
    bits.maxBits = std::max(bits.maxBits, l.size() * 8);
    bits.totalBits += l.size() * 8;
  }
  return bits;
}

namespace {

/// Shared skeleton: one row per vertex, one entry per arc, entry chosen by
/// `pick(arc)`, rows sorted lexicographically (multiset semantics).
template <typename PickLabel>
VertexLabelIndex buildIndex(const Graph& g, std::span<const std::string> labels,
                            ParallelExecutor& exec, const PickLabel& pick) {
  const auto n = static_cast<std::size_t>(g.numVertices());
  VertexLabelIndex idx;
  idx.rowPtr.resize(n + 1, 0);
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    idx.rowPtr[static_cast<std::size_t>(v) + 1] =
        idx.rowPtr[static_cast<std::size_t>(v)] +
        static_cast<std::size_t>(g.degree(v));
  }
  idx.rows.resize(idx.rowPtr[n]);
  exec.forShards(n, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t vi = begin; vi < end; ++vi) {
      const auto v = static_cast<VertexId>(vi);
      std::size_t at = idx.rowPtr[vi];
      for (const Arc& a : g.arcs(v)) {
        idx.rows[at++] = labels[static_cast<std::size_t>(pick(a))];
      }
      std::sort(idx.rows.begin() + static_cast<std::ptrdiff_t>(idx.rowPtr[vi]),
                idx.rows.begin() + static_cast<std::ptrdiff_t>(at));
    }
  });
  return idx;
}

}  // namespace

VertexLabelIndex buildIncidentEdgeIndex(const Graph& g,
                                        std::span<const std::string> labels,
                                        ParallelExecutor& exec) {
  return buildIndex(g, labels, exec, [](const Arc& a) { return a.edge; });
}

VertexLabelIndex buildNeighborIndex(const Graph& g,
                                    std::span<const std::string> labels,
                                    ParallelExecutor& exec) {
  return buildIndex(g, labels, exec, [](const Arc& a) { return a.to; });
}

void refreshIncidentEdgeRows(VertexLabelIndex& idx, const Graph& g,
                             std::span<const std::string> labels,
                             std::span<const VertexId> dirty) {
  for (const VertexId v : dirty) {
    const auto vi = static_cast<std::size_t>(v);
    std::size_t at = idx.rowPtr[vi];
    for (const Arc& a : g.arcs(v)) {
      idx.rows[at++] = labels[static_cast<std::size_t>(a.edge)];
    }
    std::sort(idx.rows.begin() + static_cast<std::ptrdiff_t>(idx.rowPtr[vi]),
              idx.rows.begin() + static_cast<std::ptrdiff_t>(at));
  }
}

}  // namespace lanecert
