#include "runtime/label_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/executor.hpp"

namespace lanecert {

LabelStore::LabelStore(const std::vector<std::string>& labels) {
  views_.reserve(labels.size());
  for (const std::string& l : labels) {
    views_.emplace_back(l);
    maxBits_ = std::max(maxBits_, l.size() * 8);
    totalBits_ += l.size() * 8;
  }
  slot_.assign(labels.size(), -1);
}

std::vector<VertexId> LabelStore::applyEdits(
    const Graph& g, std::span<const EdgeLabelEdit> edits) {
  // An empty batch mutates nothing — same store, same version (the serving
  // layer uses empty batches as "run the initial sweep" requests).
  if (edits.empty()) return {};
  // Validate BEFORE mutating: the only failure mode is an out-of-range
  // edge id, so checking up front makes the whole batch all-or-nothing (a
  // throw never leaves the store half-edited with stale index rows).
  for (const EdgeLabelEdit& edit : edits) {
    if (edit.edge < 0 ||
        static_cast<std::size_t>(edit.edge) >= views_.size()) {
      throw std::out_of_range("LabelStore::applyEdits: edge id out of range");
    }
  }
  for (const EdgeLabelEdit& edit : edits) {
    const auto i = static_cast<std::size_t>(edit.edge);
    if (slot_[i] >= 0 &&
        owned_[static_cast<std::size_t>(slot_[i])].size() ==
            edit.bytes.size()) {
      // Same-size rewrite of a store-owned label: update the row in place.
      // Outstanding views of label i (the CSR rows of its endpoints) keep
      // pointing at the same bytes and see the new content; their sort
      // position may change, which is what the dirty set reports.
      owned_[static_cast<std::size_t>(slot_[i])].assign(edit.bytes);
    } else {
      // Size changed, or the label still aliases caller memory (which is
      // never written through): append into a fresh epoch slot.  The deque
      // keeps every previously handed-out address stable.
      owned_.push_back(edit.bytes);
      slot_[i] = static_cast<std::int32_t>(owned_.size() - 1);
      views_[i] = owned_.back();
    }
  }
  // Exact bit stats: a shrink can retire the previous maximum, so recompute
  // from the views (a size scan — negligible next to any re-verification).
  maxBits_ = 0;
  totalBits_ = 0;
  for (const std::string_view v : views_) {
    maxBits_ = std::max(maxBits_, v.size() * 8);
    totalBits_ += v.size() * 8;
  }
  ++version_;
  std::vector<VertexId> dirty;
  dirty.reserve(edits.size() * 2);
  for (const EdgeLabelEdit& edit : edits) {
    const Edge& e = g.edge(edit.edge);
    dirty.push_back(e.u);
    dirty.push_back(e.v);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

std::size_t LabelStore::ownedLabels() const {
  std::size_t live = 0;
  for (const std::int32_t s : slot_) live += (s >= 0) ? 1u : 0u;
  return live;
}

std::size_t LabelStore::epochBytes() const {
  std::size_t bytes = 0;
  for (const std::string& s : owned_) bytes += s.size();
  return bytes;
}

std::vector<std::size_t> LabelStore::compactEpochs() {
  const std::size_t live = ownedLabels();
  if (owned_.size() == live) return {};  // no garbage: keep addresses stable
  std::deque<std::string> packed;
  std::vector<std::size_t> moved;
  moved.reserve(live);
  for (std::size_t i = 0; i < slot_.size(); ++i) {
    if (slot_[i] < 0) continue;  // still aliases the construction vector
    packed.push_back(std::move(owned_[static_cast<std::size_t>(slot_[i])]));
    slot_[i] = static_cast<std::int32_t>(packed.size() - 1);
    views_[i] = packed.back();
    moved.push_back(i);
  }
  owned_ = std::move(packed);
  return moved;
}

namespace {

/// Shared skeleton: one row per vertex, one entry per arc, entry chosen by
/// `pick(arc)`, rows sorted lexicographically (multiset semantics).
template <typename PickLabel>
VertexLabelIndex buildIndex(const Graph& g, const LabelStore& store,
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
        idx.rows[at++] = store.view(static_cast<std::size_t>(pick(a)));
      }
      std::sort(idx.rows.begin() + static_cast<std::ptrdiff_t>(idx.rowPtr[vi]),
                idx.rows.begin() + static_cast<std::ptrdiff_t>(at));
    }
  });
  return idx;
}

}  // namespace

VertexLabelIndex buildIncidentEdgeIndex(const Graph& g, const LabelStore& store,
                                        ParallelExecutor& exec) {
  return buildIndex(g, store, exec, [](const Arc& a) { return a.edge; });
}

VertexLabelIndex buildNeighborIndex(const Graph& g, const LabelStore& store,
                                    ParallelExecutor& exec) {
  return buildIndex(g, store, exec, [](const Arc& a) { return a.to; });
}

void refreshIncidentEdgeRows(VertexLabelIndex& idx, const Graph& g,
                             const LabelStore& store,
                             std::span<const VertexId> dirty) {
  for (const VertexId v : dirty) {
    const auto vi = static_cast<std::size_t>(v);
    std::size_t at = idx.rowPtr[vi];
    for (const Arc& a : g.arcs(v)) {
      idx.rows[at++] = store.view(static_cast<std::size_t>(a.edge));
    }
    std::sort(idx.rows.begin() + static_cast<std::ptrdiff_t>(idx.rowPtr[vi]),
              idx.rows.begin() + static_cast<std::ptrdiff_t>(at));
  }
}

}  // namespace lanecert
