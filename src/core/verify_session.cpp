#include "core/verify_session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/executor.hpp"

namespace lanecert {

VerifySession::VerifySession(Graph g, IdAssignment ids,
                             std::vector<std::string> labels, PropertyPtr prop,
                             CoreVerifierParams params)
    : g_(std::move(g)),
      ids_(std::move(ids)),
      labels_(std::move(labels)),
      bits_(labelBits(labels_)),
      engine_(std::move(prop), params) {
  if (labels_.size() != static_cast<std::size_t>(g_.numEdges())) {
    throw std::invalid_argument("VerifySession: one label per edge required");
  }
}

void VerifySession::ensureIndex(ParallelExecutor& exec) {
  if (indexBuilt_) return;
  index_ = buildIncidentEdgeIndex(g_, labels_, exec);
  indexBuilt_ = true;
}

void VerifySession::ensureThreadStates(int count) {
  if (static_cast<int>(threadStates_.size()) < count) {
    threadStates_.resize(static_cast<std::size_t>(count));
  }
}

void VerifySession::checkVertexInto(VertexId v,
                                    CoreVerifierEngine::ThreadState& state) {
  EdgeView view;
  view.selfId = ids_.id(v);
  view.incidentLabels = index_.row(v);
  verdicts_[static_cast<std::size_t>(v)] =
      engine_.check(view, state) ? 1 : 0;
}

SimulationResult VerifySession::verifyAll(ParallelExecutor& exec) {
  ensureIndex(exec);
  ensureThreadStates(exec.numThreads());
  const auto n = static_cast<std::size_t>(g_.numVertices());
  verdicts_.assign(n, 0);
  exec.forShards(n, [&](std::size_t shard, std::size_t begin,
                        std::size_t end) {
    CoreVerifierEngine::ThreadState& state = threadStates_[shard];
    for (std::size_t vi = begin; vi < end; ++vi) {
      checkVertexInto(static_cast<VertexId>(vi), state);
    }
  });
  swept_ = true;
  return assembleResult();
}

SimulationResult VerifySession::verifyAll(int numThreads) {
  ParallelExecutor exec(numThreads);
  return verifyAll(exec);
}

std::vector<VertexId> VerifySession::applyEdits(
    std::span<const EdgeLabelEdit> edits) {
  // An empty batch mutates nothing — same labels, same version (the
  // serving layer uses empty batches as "run the initial sweep" requests).
  if (edits.empty()) return {};
  // Validate BEFORE mutating: the only failure mode is an out-of-range
  // edge id, so checking up front makes the whole batch all-or-nothing (a
  // throw never leaves the labels half-edited with stale index rows).
  for (const EdgeLabelEdit& edit : edits) {
    if (edit.edge < 0 ||
        static_cast<std::size_t>(edit.edge) >= labels_.size()) {
      throw std::out_of_range("VerifySession::applyEdits: edge id out of range");
    }
  }
  std::vector<VertexId> dirty;
  dirty.reserve(edits.size() * 2);
  for (const EdgeLabelEdit& edit : edits) {
    labels_[static_cast<std::size_t>(edit.edge)] = edit.bytes;
    const Edge& e = g_.edge(edit.edge);
    dirty.push_back(e.u);
    dirty.push_back(e.v);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  // Exact bit totals: a shrink can retire the previous maximum, so rescan
  // the sizes (negligible next to any re-verification).
  bits_ = labelBits(labels_);
  ++version_;
  // An assignment may have moved its label's bytes, so the rows of its
  // endpoints — the only views of them — are re-pointed before any sweep
  // reads them.  Before the first sweep there is no index yet; it is built
  // from the current labels then.
  if (indexBuilt_) refreshIncidentEdgeRows(index_, g_, labels_, dirty);
  // Bound the sweep cache: edits retire entry variants (superseded label
  // bytes) that identity-keyed memoization would otherwise retain for the
  // session's whole lifetime.  The cap is generous — several times the
  // distinct entries of one labeling — so steady-state sweeps stay warm;
  // clearing is purely a perf event, never a correctness one.
  const auto cap = 8 * (static_cast<std::size_t>(g_.numVertices()) +
                        static_cast<std::size_t>(g_.numEdges())) +
                   1024;
  if (engine_.sweepCacheSize() > cap) engine_.clearSweepCache();
  return dirty;
}

SimulationResult VerifySession::reverify(
    std::span<const VertexId> dirtyVertices, ParallelExecutor& exec) {
  if (!swept_) {
    throw std::logic_error("VerifySession::reverify before a full sweep");
  }
  // Range-check every id, and detect callers that pass duplicates or
  // unsorted lists: a duplicate split across two shards would have two
  // threads store the same verdict slot concurrently — same value, still a
  // data race — so such input is deduplicated into a local copy first
  // (applyEdits output is already sorted and unique, the zero-copy path).
  bool sortedUnique = true;
  VertexId prev = kNoVertex;
  for (const VertexId v : dirtyVertices) {
    if (v < 0 || v >= g_.numVertices()) {
      throw std::out_of_range("VerifySession::reverify: vertex out of range");
    }
    if (v <= prev) sortedUnique = false;
    prev = v;
  }
  std::vector<VertexId> deduped;
  std::span<const VertexId> rows = dirtyVertices;
  if (!sortedUnique) {
    deduped.assign(dirtyVertices.begin(), dirtyVertices.end());
    std::sort(deduped.begin(), deduped.end());
    deduped.erase(std::unique(deduped.begin(), deduped.end()), deduped.end());
    rows = deduped;
  }
  ensureThreadStates(exec.numThreads());
  // Dirty rows shard over the executor exactly like a full sweep shards all
  // rows; verdicts of clean vertices carry over untouched (their views are
  // byte-identical, so a fresh check would reproduce them — locality).
  exec.forShards(rows.size(),
                 [&](std::size_t shard, std::size_t begin, std::size_t end) {
                   CoreVerifierEngine::ThreadState& state =
                       threadStates_[shard];
                   for (std::size_t i = begin; i < end; ++i) {
                     checkVertexInto(rows[i], state);
                   }
                 });
  return assembleResult();
}

SimulationResult VerifySession::reverifyEdits(
    std::span<const EdgeLabelEdit> edits, ParallelExecutor& exec) {
  if (!swept_) {
    applyEdits(edits);
    return verifyAll(exec);
  }
  const std::vector<VertexId> dirty = applyEdits(edits);
  return reverify(dirty, exec);
}

SimulationResult VerifySession::reverifyEdits(
    std::span<const EdgeLabelEdit> edits, int numThreads) {
  ParallelExecutor exec(numThreads);
  return reverifyEdits(edits, exec);
}

SimulationResult VerifySession::assembleResult() const {
  SimulationResult r;
  r.maxLabelBits = bits_.maxBits;
  r.totalLabelBits = bits_.totalBits;
  for (std::size_t vi = 0; vi < verdicts_.size(); ++vi) {
    if (verdicts_[vi] == 0) r.rejecting.push_back(static_cast<VertexId>(vi));
  }
  r.allAccept = r.rejecting.empty();
  return r;
}

}  // namespace lanecert
