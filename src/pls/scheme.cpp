#include "pls/scheme.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/executor.hpp"
#include "runtime/label_index.hpp"

namespace lanecert {

namespace {

/// Shared sweep skeleton for both scheme kinds.  `checkVertex(v)` runs the
/// verifier on vertex v's (pre-built, zero-copy) view.  Vertices are swept
/// in contiguous ordered shards with per-shard reject lists, so the merged
/// `rejecting` vector is ascending and identical for every thread count.
template <typename CheckVertex>
SimulationResult sweep(const Graph& g, const std::vector<std::string>& labels,
                       ParallelExecutor& exec, const CheckVertex& checkVertex) {
  SimulationResult r;
  const LabelBits bits = labelBits(labels);
  r.maxLabelBits = bits.maxBits;
  r.totalLabelBits = bits.totalBits;

  const auto n = static_cast<std::size_t>(g.numVertices());
  std::vector<std::vector<VertexId>> shardRejects(
      static_cast<std::size_t>(exec.numThreads()));
  exec.forShards(n, [&](std::size_t shard, std::size_t begin,
                        std::size_t end) {
    std::vector<VertexId>& rejects = shardRejects[shard];
    for (std::size_t vi = begin; vi < end; ++vi) {
      const auto v = static_cast<VertexId>(vi);
      bool ok = false;
      try {
        ok = checkVertex(v);
      } catch (...) {
        ok = false;  // malformed certificates are rejections, never crashes
      }
      if (!ok) rejects.push_back(v);
    }
  });
  for (const std::vector<VertexId>& rejects : shardRejects) {
    r.rejecting.insert(r.rejecting.end(), rejects.begin(), rejects.end());
  }
  r.allAccept = r.rejecting.empty();
  return r;
}

}  // namespace

SimulationResult simulateEdgeScheme(const Graph& g, const IdAssignment& ids,
                                    const std::vector<std::string>& labels,
                                    const EdgeVerifier& verify,
                                    ParallelExecutor& exec) {
  if (labels.size() != static_cast<std::size_t>(g.numEdges())) {
    throw std::invalid_argument("simulateEdgeScheme: one label per edge required");
  }
  const VertexLabelIndex index = buildIncidentEdgeIndex(g, labels, exec);
  return sweep(g, labels, exec, [&](VertexId v) {
    EdgeView view;
    view.selfId = ids.id(v);
    view.incidentLabels = index.row(v);
    return verify(view);
  });
}

SimulationResult simulateEdgeScheme(const Graph& g, const IdAssignment& ids,
                                    const std::vector<std::string>& labels,
                                    const EdgeVerifier& verify,
                                    const SimulationOptions& options) {
  ParallelExecutor exec(options.numThreads);
  return simulateEdgeScheme(g, ids, labels, verify, exec);
}

SimulationResult simulateVertexScheme(const Graph& g, const IdAssignment& ids,
                                      const std::vector<std::string>& labels,
                                      const VertexVerifier& verify,
                                      ParallelExecutor& exec) {
  if (labels.size() != static_cast<std::size_t>(g.numVertices())) {
    throw std::invalid_argument("simulateVertexScheme: one label per vertex required");
  }
  const VertexLabelIndex index = buildNeighborIndex(g, labels, exec);
  return sweep(g, labels, exec, [&](VertexId v) {
    VertexView view;
    view.selfId = ids.id(v);
    view.selfLabel = labels[static_cast<std::size_t>(v)];
    view.neighborLabels = index.row(v);
    return verify(view);
  });
}

SimulationResult simulateVertexScheme(const Graph& g, const IdAssignment& ids,
                                      const std::vector<std::string>& labels,
                                      const VertexVerifier& verify,
                                      const SimulationOptions& options) {
  ParallelExecutor exec(options.numThreads);
  return simulateVertexScheme(g, ids, labels, verify, exec);
}

bool mutateLabels(std::vector<std::string>& labels, Mutation m, Rng& rng) {
  if (labels.empty()) return false;
  const auto pick = [&rng, &labels] {
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(labels.size()) - 1));
  };
  switch (m) {
    case Mutation::kFlipBit: {
      const std::size_t i = pick();
      if (labels[i].empty()) return false;
      const int byte = rng.uniformInt(0, static_cast<int>(labels[i].size()) - 1);
      const int bit = rng.uniformInt(0, 7);
      labels[i][static_cast<std::size_t>(byte)] =
          static_cast<char>(labels[i][static_cast<std::size_t>(byte)] ^ (1 << bit));
      return true;
    }
    case Mutation::kSwapPair: {
      const std::size_t i = pick();
      const std::size_t j = pick();
      if (i == j || labels[i] == labels[j]) return false;
      std::swap(labels[i], labels[j]);
      return true;
    }
    case Mutation::kTruncate: {
      const std::size_t i = pick();
      if (labels[i].empty()) return false;
      const int keep = rng.uniformInt(0, static_cast<int>(labels[i].size()) - 1);
      labels[i].resize(static_cast<std::size_t>(keep));
      return true;
    }
    case Mutation::kDuplicate: {
      const std::size_t i = pick();
      const std::size_t j = pick();
      if (i == j || labels[i] == labels[j]) return false;
      labels[i] = labels[j];
      return true;
    }
    case Mutation::kScramble: {
      const std::size_t i = pick();
      if (labels[i].empty()) return false;
      std::string s = labels[i];
      for (char& c : s) c = static_cast<char>(rng.uniformInt(0, 255));
      if (s == labels[i]) return false;
      labels[i] = std::move(s);
      return true;
    }
  }
  return false;
}

}  // namespace lanecert
