#include "graph/algorithms.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <queue>
#include <stdexcept>

namespace lanecert {

std::vector<int> bfsDistances(const Graph& g, VertexId source) {
  std::vector<int> dist(static_cast<std::size_t>(g.numVertices()), -1);
  std::queue<VertexId> q;
  dist[static_cast<std::size_t>(source)] = 0;
  q.push(source);
  while (!q.empty()) {
    const VertexId u = q.front();
    q.pop();
    for (const Arc& a : g.arcs(u)) {
      if (dist[static_cast<std::size_t>(a.to)] == -1) {
        dist[static_cast<std::size_t>(a.to)] = dist[static_cast<std::size_t>(u)] + 1;
        q.push(a.to);
      }
    }
  }
  return dist;
}

Components connectedComponents(const Graph& g) {
  Components c;
  c.label.assign(static_cast<std::size_t>(g.numVertices()), -1);
  for (VertexId s = 0; s < g.numVertices(); ++s) {
    if (c.label[static_cast<std::size_t>(s)] != -1) continue;
    const int comp = c.count++;
    std::queue<VertexId> q;
    c.label[static_cast<std::size_t>(s)] = comp;
    q.push(s);
    while (!q.empty()) {
      const VertexId u = q.front();
      q.pop();
      for (const Arc& a : g.arcs(u)) {
        if (c.label[static_cast<std::size_t>(a.to)] == -1) {
          c.label[static_cast<std::size_t>(a.to)] = comp;
          q.push(a.to);
        }
      }
    }
  }
  return c;
}

bool isConnected(const Graph& g) {
  return g.numVertices() == 0 || connectedComponents(g).count == 1;
}

SpanningTree bfsTree(const Graph& g, VertexId root) {
  SpanningTree t;
  t.root = root;
  const auto n = static_cast<std::size_t>(g.numVertices());
  t.parentVertex.assign(n, kNoVertex);
  t.parentEdge.assign(n, kNoEdge);
  t.depth.assign(n, -1);
  std::queue<VertexId> q;
  t.depth[static_cast<std::size_t>(root)] = 0;
  q.push(root);
  while (!q.empty()) {
    const VertexId u = q.front();
    q.pop();
    for (const Arc& a : g.arcs(u)) {
      if (t.depth[static_cast<std::size_t>(a.to)] == -1) {
        t.depth[static_cast<std::size_t>(a.to)] = t.depth[static_cast<std::size_t>(u)] + 1;
        t.parentVertex[static_cast<std::size_t>(a.to)] = u;
        t.parentEdge[static_cast<std::size_t>(a.to)] = a.edge;
        q.push(a.to);
      }
    }
  }
  for (int d : t.depth) {
    if (d == -1) throw std::invalid_argument("bfsTree: graph not connected");
  }
  return t;
}

std::vector<VertexId> shortestPath(const Graph& g, VertexId s, VertexId t) {
  if (s == t) return {s};
  const auto n = static_cast<std::size_t>(g.numVertices());
  std::vector<VertexId> parent(n, kNoVertex);
  std::vector<char> seen(n, 0);
  std::queue<VertexId> q;
  seen[static_cast<std::size_t>(s)] = 1;
  q.push(s);
  while (!q.empty()) {
    const VertexId u = q.front();
    q.pop();
    for (const Arc& a : g.arcs(u)) {
      if (!seen[static_cast<std::size_t>(a.to)]) {
        seen[static_cast<std::size_t>(a.to)] = 1;
        parent[static_cast<std::size_t>(a.to)] = u;
        if (a.to == t) {
          std::vector<VertexId> path;
          for (VertexId w = t; w != kNoVertex; w = parent[static_cast<std::size_t>(w)]) {
            path.push_back(w);
          }
          std::reverse(path.begin(), path.end());
          return path;
        }
        q.push(a.to);
      }
    }
  }
  return {};
}

std::vector<EdgeId> pathEdges(const Graph& g, const std::vector<VertexId>& path) {
  std::vector<EdgeId> out;
  if (path.size() < 2) return out;
  out.reserve(path.size() - 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const EdgeId e = g.findEdge(path[i], path[i + 1]);
    if (e == kNoEdge) throw std::invalid_argument("pathEdges: non-adjacent pair");
    out.push_back(e);
  }
  return out;
}

std::optional<std::vector<int>> bipartition(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.numVertices());
  std::vector<int> color(n, -1);
  for (VertexId s = 0; s < g.numVertices(); ++s) {
    if (color[static_cast<std::size_t>(s)] != -1) continue;
    color[static_cast<std::size_t>(s)] = 0;
    std::queue<VertexId> q;
    q.push(s);
    while (!q.empty()) {
      const VertexId u = q.front();
      q.pop();
      for (const Arc& a : g.arcs(u)) {
        if (color[static_cast<std::size_t>(a.to)] == -1) {
          color[static_cast<std::size_t>(a.to)] = 1 - color[static_cast<std::size_t>(u)];
          q.push(a.to);
        } else if (color[static_cast<std::size_t>(a.to)] == color[static_cast<std::size_t>(u)]) {
          return std::nullopt;
        }
      }
    }
  }
  return color;
}

DegeneracyOrientation degeneracyOrient(const Graph& g) {
  DegeneracyOrientation out;
  const auto n = static_cast<std::size_t>(g.numVertices());
  out.headOf.assign(static_cast<std::size_t>(g.numEdges()), kNoVertex);
  std::vector<int> deg(n);
  std::vector<char> removed(n, 0);
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    deg[static_cast<std::size_t>(v)] = g.degree(v);
  }
  // Bucket queue over degrees for O(n + m).
  const int maxDeg = g.numVertices() == 0 ? 0 : *std::max_element(deg.begin(), deg.end());
  std::vector<std::vector<VertexId>> bucket(static_cast<std::size_t>(maxDeg) + 1);
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    bucket[static_cast<std::size_t>(deg[static_cast<std::size_t>(v)])].push_back(v);
  }
  int cursor = 0;
  for (VertexId step = 0; step < g.numVertices(); ++step) {
    // Find the lowest non-empty bucket; degrees only decrease, but removals
    // may repopulate lower buckets, so rewind the cursor as needed.
    while (cursor > 0 && !bucket[static_cast<std::size_t>(cursor - 1)].empty()) --cursor;
    while (bucket[static_cast<std::size_t>(cursor)].empty()) ++cursor;
    VertexId v = kNoVertex;
    // Pop entries until we find one that is current (lazy deletion).
    while (true) {
      auto& b = bucket[static_cast<std::size_t>(cursor)];
      if (b.empty()) {
        ++cursor;
        continue;
      }
      const VertexId cand = b.back();
      b.pop_back();
      if (!removed[static_cast<std::size_t>(cand)] &&
          deg[static_cast<std::size_t>(cand)] == cursor) {
        v = cand;
        break;
      }
    }
    removed[static_cast<std::size_t>(v)] = 1;
    out.removalOrder.push_back(v);
    out.degeneracy = std::max(out.degeneracy, deg[static_cast<std::size_t>(v)]);
    for (const Arc& a : g.arcs(v)) {
      if (removed[static_cast<std::size_t>(a.to)]) continue;
      // Edge leaves the removed vertex: orient v -> a.to.
      out.headOf[static_cast<std::size_t>(a.edge)] = a.to;
      int& d = deg[static_cast<std::size_t>(a.to)];
      --d;
      bucket[static_cast<std::size_t>(d)].push_back(a.to);
      if (d < cursor) cursor = d;
    }
  }
  return out;
}

bool isForest(const Graph& g) {
  const Components c = connectedComponents(g);
  // A graph is a forest iff m = n - (#components).
  return g.numEdges() == g.numVertices() - c.count;
}

long long countTriangles(const Graph& g) {
  long long count = 0;
  for (const Edge& e : g.edges()) {
    const VertexId u = e.u;
    const VertexId v = e.v;
    // Count common neighbors w with w > max(u, v) to count each triangle once
    // per its lexicographically largest vertex... simpler: count all common
    // neighbors and divide total by 3 at the end.
    for (const Arc& a : g.arcs(u)) {
      if (a.to != v && g.hasEdge(a.to, v)) ++count;
    }
  }
  return count / 3;  // each triangle counted once per edge
}

int maxDegree(const Graph& g) {
  int d = 0;
  for (VertexId v = 0; v < g.numVertices(); ++v) d = std::max(d, g.degree(v));
  return d;
}

bool isPathGraph(const Graph& g) {
  const VertexId n = g.numVertices();
  if (n == 0) return false;
  if (g.numEdges() != n - 1) return false;
  if (!isConnected(g)) return false;
  int deg1 = 0;
  for (VertexId v = 0; v < n; ++v) {
    const int d = g.degree(v);
    if (d > 2) return false;
    if (d == 1) ++deg1;
  }
  return n == 1 || deg1 == 2;
}

bool isCycleGraph(const Graph& g) {
  const VertexId n = g.numVertices();
  if (n < 3) return false;
  if (g.numEdges() != n) return false;
  if (!isConnected(g)) return false;
  for (VertexId v = 0; v < n; ++v) {
    if (g.degree(v) != 2) return false;
  }
  return true;
}

}  // namespace lanecert
