#include "pathwidth/pathwidth.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

namespace lanecert {

namespace {

/// Neighbor bitmasks for graphs with <= 32 vertices.
std::vector<std::uint32_t> neighborMasks(const Graph& g) {
  std::vector<std::uint32_t> nbr(static_cast<std::size_t>(g.numVertices()), 0);
  for (const Edge& e : g.edges()) {
    nbr[static_cast<std::size_t>(e.u)] |= std::uint32_t{1} << e.v;
    nbr[static_cast<std::size_t>(e.v)] |= std::uint32_t{1} << e.u;
  }
  return nbr;
}

/// Number of prefix vertices (bits of S) with a neighbor outside S.
int boundarySize(std::uint32_t s, const std::vector<std::uint32_t>& nbr) {
  int b = 0;
  std::uint32_t rest = s;
  while (rest != 0) {
    const int v = std::countr_zero(rest);
    rest &= rest - 1;
    if ((nbr[static_cast<std::size_t>(v)] & ~s) != 0) ++b;
  }
  return b;
}

}  // namespace

std::optional<Layout> exactVertexSeparation(const Graph& g, int maxN) {
  const int n = g.numVertices();
  if (n > maxN || n > 25) return std::nullopt;
  if (n == 0) return Layout{};
  const auto nbr = neighborMasks(g);
  const std::size_t full = std::size_t{1} << n;
  // f[S] = min over orderings of S of the max boundary over prefixes of S,
  // where the boundary of a prefix P is measured against V (not just S):
  // vertices of P with neighbors outside P.  Recurrence:
  //   f(S) = max( boundary(S), min_{v in S} f(S \ {v}) ).
  constexpr std::uint8_t kInf = std::numeric_limits<std::uint8_t>::max();
  std::vector<std::uint8_t> f(full, kInf);
  std::vector<std::int8_t> lastChoice(full, -1);
  f[0] = 0;
  for (std::uint32_t s = 1; s < full; ++s) {
    const int b = boundarySize(s, nbr);
    std::uint8_t best = kInf;
    std::int8_t bestV = -1;
    std::uint32_t rest = s;
    while (rest != 0) {
      const int v = std::countr_zero(rest);
      rest &= rest - 1;
      const std::uint8_t sub = f[s & ~(std::uint32_t{1} << v)];
      if (sub < best) {
        best = sub;
        bestV = static_cast<std::int8_t>(v);
      }
    }
    f[s] = std::max<std::uint8_t>(best, static_cast<std::uint8_t>(b));
    lastChoice[s] = bestV;
  }
  Layout out;
  out.cost = f[full - 1];
  // Reconstruct the ordering back-to-front.
  std::uint32_t s = static_cast<std::uint32_t>(full - 1);
  std::vector<VertexId> rev;
  while (s != 0) {
    const int v = lastChoice[s];
    rev.push_back(static_cast<VertexId>(v));
    s &= ~(std::uint32_t{1} << v);
  }
  out.order.assign(rev.rbegin(), rev.rend());
  // lastChoice minimizes f(S\{v}) which is the correct greedy for the
  // recurrence, but the recorded cost is authoritative:
  out.cost = layoutCost(g, out.order);
  return out;
}

Layout greedyVertexSeparation(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.numVertices());
  auto at = [](VertexId v) { return static_cast<std::size_t>(v); };
  std::vector<char> inPrefix(n, 0);
  // outNbrs[x]: neighbors of x outside the prefix (defined for all x).
  std::vector<int> outNbrs(n);
  // For v outside the prefix: lastOut[v] counts the prefix neighbors whose
  // only outside neighbor is v, and delta[v] = [outNbrs[v] > 0] - lastOut[v]
  // is how much appending v would change the boundary.  Every candidate's
  // cost is the same boundary plus its delta, so the first minimum of the
  // cost over ascending ids is the smallest (delta, id) pair.  A delta only
  // ever falls: outNbrs[v] only shrinks, and lastOut[v] loses a prefix
  // vertex only when that vertex's last outside neighbor, v itself, is
  // placed.
  std::vector<int> lastOut(n, 0);
  std::vector<int> delta(n);
  // Lazy min-heap: a vertex's pair is pushed whenever its delta falls, so a
  // popped pair is stale if its vertex is placed or its delta has moved on.
  using Candidate = std::pair<int, VertexId>;
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> heap;
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    outNbrs[at(v)] = g.degree(v);
    delta[at(v)] = outNbrs[at(v)] > 0 ? 1 : 0;
    heap.emplace(delta[at(v)], v);
  }

  auto refresh = [&](VertexId v) {
    const int d = (outNbrs[at(v)] > 0 ? 1 : 0) - lastOut[at(v)];
    if (d != delta[at(v)]) {
      delta[at(v)] = d;
      heap.emplace(d, v);
    }
  };
  // Prefix vertex `a` has exactly one outside neighbor left: credit it.
  auto creditLastOut = [&](VertexId a) {
    for (const Arc& arc : g.arcs(a)) {
      if (!inPrefix[at(arc.to)]) {
        ++lastOut[at(arc.to)];
        refresh(arc.to);
        return;
      }
    }
  };

  Layout out;
  out.order.reserve(n);
  while (out.order.size() < n) {
    const auto [d, best] = heap.top();
    heap.pop();
    if (inPrefix[at(best)] || delta[at(best)] != d) continue;
    inPrefix[at(best)] = 1;
    // `best` is no longer outside: every neighbor loses one outside
    // neighbor.  A prefix neighbor falling from 1 to 0 had `best` as its
    // last outside neighbor, so no credit is ever withdrawn.
    for (const Arc& a : g.arcs(best)) {
      --outNbrs[at(a.to)];
      if (!inPrefix[at(a.to)]) {
        refresh(a.to);
      } else if (outNbrs[at(a.to)] == 1) {
        creditLastOut(a.to);
      }
    }
    if (outNbrs[at(best)] == 1) creditLastOut(best);
    out.order.push_back(best);
  }
  out.cost = layoutCost(g, out.order);
  return out;
}

int layoutCost(const Graph& g, const std::vector<VertexId>& order) {
  const auto n = static_cast<std::size_t>(g.numVertices());
  if (order.size() != n) {
    throw std::invalid_argument("layoutCost: order must be a permutation");
  }
  int best = 0;
  std::vector<int> outNbrs(n, 0);
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    outNbrs[static_cast<std::size_t>(v)] = g.degree(v);
  }
  int boundary = 0;
  std::vector<char> inPrefix(n, 0);
  std::vector<char> onBoundary(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = order[i];
    inPrefix[static_cast<std::size_t>(v)] = 1;
    for (const Arc& a : g.arcs(v)) {
      if (inPrefix[static_cast<std::size_t>(a.to)]) {
        --outNbrs[static_cast<std::size_t>(a.to)];
        --outNbrs[static_cast<std::size_t>(v)];
        if (onBoundary[static_cast<std::size_t>(a.to)] &&
            outNbrs[static_cast<std::size_t>(a.to)] == 0) {
          onBoundary[static_cast<std::size_t>(a.to)] = 0;
          --boundary;
        }
      }
    }
    if (outNbrs[static_cast<std::size_t>(v)] > 0) {
      onBoundary[static_cast<std::size_t>(v)] = 1;
      ++boundary;
    }
    best = std::max(best, boundary);
  }
  return best;
}

IntervalRepresentation layoutToIntervalRep(const Graph& g,
                                           const std::vector<VertexId>& order) {
  const auto n = static_cast<std::size_t>(g.numVertices());
  if (order.size() != n) {
    throw std::invalid_argument("layoutToIntervalRep: order must be a permutation");
  }
  std::vector<int> pos(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  std::vector<Interval> iv(n);
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    int r = pos[static_cast<std::size_t>(v)];
    for (const Arc& a : g.arcs(v)) {
      r = std::max(r, pos[static_cast<std::size_t>(a.to)]);
    }
    iv[static_cast<std::size_t>(v)] = Interval{pos[static_cast<std::size_t>(v)], r};
  }
  return IntervalRepresentation(std::move(iv));
}

std::optional<int> exactPathwidth(const Graph& g, int maxN) {
  auto layout = exactVertexSeparation(g, maxN);
  if (!layout) return std::nullopt;
  return layout->cost;
}

IntervalRepresentation bestIntervalRepresentation(
    const Graph& g, int exactMaxN, ParallelExecutor* /*unused*/) {
  auto layout = exactVertexSeparation(g, exactMaxN);
  if (!layout) layout = greedyVertexSeparation(g);
  return layoutToIntervalRep(g, layout->order);
}

}  // namespace lanecert
