#include "klane/validate.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <queue>
#include <set>
#include <sstream>

namespace lanecert {

namespace {

std::string nodeRef(const Hierarchy& h, int id) {
  static const char* names[] = {"V", "E", "P", "B", "T"};
  std::ostringstream os;
  os << names[static_cast<int>(h.node(id).type)] << "#" << id;
  return os.str();
}

bool subgraphConnected(const std::vector<VertexId>& verts,
                       const std::vector<std::pair<VertexId, VertexId>>& edges) {
  if (verts.empty()) return false;
  std::map<VertexId, std::vector<VertexId>> adj;
  for (VertexId v : verts) adj[v];
  for (const auto& [a, b] : edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::set<VertexId> seen{verts[0]};
  std::queue<VertexId> q;
  q.push(verts[0]);
  while (!q.empty()) {
    const VertexId u = q.front();
    q.pop();
    for (VertexId w : adj[u]) {
      if (seen.insert(w).second) q.push(w);
    }
  }
  return seen.size() == verts.size();
}

/// All per-node checks for node `id`.
template <typename Fail>
void validateNode(const Hierarchy& h, int id, const Fail& fail) {
  const HierNode& n = h.node(id);
  const std::string ref = nodeRef(h, id);
  if (n.lanes.empty()) fail(ref + ": empty lane set");
  if (!std::is_sorted(n.lanes.begin(), n.lanes.end()) ||
      std::adjacent_find(n.lanes.begin(), n.lanes.end()) != n.lanes.end()) {
    fail(ref + ": lanes not sorted/unique");
  }
  // Terminals defined exactly on the lane set and inside the subgraph.
  const auto verts = h.materializeVertices(id);
  for (const TerminalMap* tm : {&n.inTerm, &n.outTerm}) {
    if (tm->entries().size() != n.lanes.size()) {
      fail(ref + ": terminal count != lane count");
    }
    for (const auto& [lane, vert] : tm->entries()) {
      if (!std::binary_search(n.lanes.begin(), n.lanes.end(), lane)) {
        fail(ref + ": terminal on foreign lane");
      }
      if (!std::binary_search(verts.begin(), verts.end(), vert)) {
        fail(ref + ": terminal vertex outside subgraph");
      }
    }
  }
  // Per-node connectivity (claimed at the end of Section 5.3).
  if (!subgraphConnected(verts, h.materializeEdges(id))) {
    fail(ref + ": subgraph not connected");
  }
  // Parent link sanity.
  for (int c : n.children) {
    if (h.node(c).parent != id) fail(ref + ": child/parent link broken");
  }

  switch (n.type) {
    case HierNode::Type::kV:
      if (!n.children.empty()) fail(ref + ": V-node with children");
      if (n.lanes.size() != 1) fail(ref + ": V-node lane count");
      if (n.inTerm.at(n.lanes[0]) != n.u || n.outTerm.at(n.lanes[0]) != n.u) {
        fail(ref + ": V-node terminals");
      }
      break;
    case HierNode::Type::kE:
      if (!n.children.empty()) fail(ref + ": E-node with children");
      if (n.lanes.size() != 1 || n.lanes[0] != n.laneI) {
        fail(ref + ": E-node lane");
      }
      if (n.u == n.v) fail(ref + ": E-node degenerate edge");
      if (n.inTerm.at(n.laneI) != n.u || n.outTerm.at(n.laneI) != n.v) {
        fail(ref + ": E-node terminals");
      }
      break;
    case HierNode::Type::kP: {
      if (!n.children.empty()) fail(ref + ": P-node with children");
      if (n.pathVertices.size() != n.lanes.size()) {
        fail(ref + ": P-node path length != lane count");
      }
      for (std::size_t i = 0; i < n.pathVertices.size(); ++i) {
        const int lane = n.lanes[i];
        if (n.inTerm.at(lane) != n.pathVertices[i] ||
            n.outTerm.at(lane) != n.pathVertices[i]) {
          fail(ref + ": P-node terminal layout");
        }
      }
      break;
    }
    case HierNode::Type::kB: {
      if (n.children.size() != 2) {
        fail(ref + ": B-node must have 2 children");
        break;
      }
      const HierNode& c0 = h.node(n.children[0]);
      const HierNode& c1 = h.node(n.children[1]);
      for (const HierNode* c : {&c0, &c1}) {
        if (c->type != HierNode::Type::kV && c->type != HierNode::Type::kT) {
          fail(ref + ": B-node child must be V or T");
        }
      }
      std::vector<int> merged = c0.lanes;
      merged.insert(merged.end(), c1.lanes.begin(), c1.lanes.end());
      std::sort(merged.begin(), merged.end());
      if (std::adjacent_find(merged.begin(), merged.end()) != merged.end()) {
        fail(ref + ": Bridge-merge lane sets overlap");
      }
      if (merged != n.lanes) fail(ref + ": B-node lanes != union of parts");
      if (c0.outTerm.at(n.laneI) != n.u || c1.outTerm.at(n.laneJ) != n.v) {
        fail(ref + ": bridge endpoints are not the parts' out-terminals");
      }
      // Terminals inherited from the right part.
      for (int lane : n.lanes) {
        const HierNode& src =
            std::binary_search(c0.lanes.begin(), c0.lanes.end(), lane) ? c0 : c1;
        if (n.inTerm.at(lane) != src.inTerm.at(lane) ||
            n.outTerm.at(lane) != src.outTerm.at(lane)) {
          fail(ref + ": B-node terminal inheritance");
        }
      }
      break;
    }
    case HierNode::Type::kT: {
      if (n.children.empty()) {
        fail(ref + ": T-node without children");
        break;
      }
      if (n.rootChildPos < 0 ||
          n.rootChildPos >= static_cast<int>(n.children.size())) {
        fail(ref + ": T-node root child position invalid");
        break;
      }
      if (n.treeParentPos.size() != n.children.size()) {
        fail(ref + ": treeParentPos size mismatch");
        break;
      }
      const HierNode& rootChild =
          h.node(n.children[static_cast<std::size_t>(n.rootChildPos)]);
      if (n.lanes != rootChild.lanes) fail(ref + ": T-node lanes != root child");
      if (!(n.inTerm == rootChild.inTerm)) {
        fail(ref + ": T-node in-terminals != root child");
      }
      int roots = 0;
      for (std::size_t p = 0; p < n.children.size(); ++p) {
        const HierNode& c = h.node(n.children[p]);
        if (c.type != HierNode::Type::kE && c.type != HierNode::Type::kP &&
            c.type != HierNode::Type::kB) {
          fail(ref + ": T-node child must be E, P, or B");
        }
        const int pp = n.treeParentPos[p];
        if (pp < 0) {
          ++roots;
          continue;
        }
        const HierNode& tp = h.node(n.children[static_cast<std::size_t>(pp)]);
        // Tree-merge condition: child lanes ⊆ parent lanes.
        if (!std::includes(tp.lanes.begin(), tp.lanes.end(), c.lanes.begin(),
                           c.lanes.end())) {
          fail(ref + ": Tree-merge lane nesting violated");
        }
        // Gluing: each in-terminal of the child IS the parent's
        // out-terminal in the same lane.
        for (int lane : c.lanes) {
          if (c.inTerm.at(lane) != tp.outTerm.at(lane)) {
            fail(ref + ": Tree-merge gluing violated on lane " +
                 std::to_string(lane));
          }
        }
      }
      if (roots != 1) fail(ref + ": Tree-merge tree must have one root");
      // Siblings with the same tree parent: disjoint lane sets.
      for (std::size_t p = 0; p < n.children.size(); ++p) {
        for (std::size_t q = p + 1; q < n.children.size(); ++q) {
          if (n.treeParentPos[p] != n.treeParentPos[q]) continue;
          const auto& a = h.node(n.children[p]).lanes;
          const auto& b = h.node(n.children[q]).lanes;
          std::vector<int> inter;
          std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(inter));
          if (!inter.empty()) fail(ref + ": Tree-merge sibling lanes overlap");
        }
      }
      // T-node out-terminals: lowest lane-owning node in the tree.
      const auto subOut = subtreeOutTerminals(h, id);
      const TerminalMap& rootOut = subOut[static_cast<std::size_t>(n.rootChildPos)];
      if (!(n.outTerm == rootOut)) fail(ref + ": T-node out-terminals wrong");
      break;
    }
  }
}

}  // namespace

std::vector<TerminalMap> subtreeOutTerminals(const Hierarchy& h, int tNodeId) {
  const HierNode& t = h.node(tNodeId);
  const std::size_t x = t.children.size();
  std::vector<std::vector<int>> treeChildren(x);
  for (std::size_t p = 0; p < x; ++p) {
    if (t.treeParentPos[p] >= 0) {
      treeChildren[static_cast<std::size_t>(t.treeParentPos[p])].push_back(
          static_cast<int>(p));
    }
  }
  std::vector<TerminalMap> out(x);
  for (std::size_t p = 0; p < x; ++p) {
    for (int lane : h.node(t.children[p]).lanes) {
      int cur = static_cast<int>(p);
      while (true) {
        int next = -1;
        for (int q : treeChildren[static_cast<std::size_t>(cur)]) {
          const auto& lanes = h.node(t.children[static_cast<std::size_t>(q)]).lanes;
          if (std::binary_search(lanes.begin(), lanes.end(), lane)) {
            next = q;
            break;
          }
        }
        if (next < 0) break;
        cur = next;
      }
      out[p].set(lane, h.node(t.children[static_cast<std::size_t>(cur)]).outTerm.at(lane));
    }
  }
  return out;
}

std::vector<std::string> validateHierarchy(const HierarchyResult& result,
                                           int numLanes) {
  const Hierarchy& h = result.hierarchy;
  const Graph& g = result.graph;
  std::vector<std::string> errs;
  auto fail = [&errs](const std::string& msg) { errs.push_back(msg); };

  // Depth bound (Observation 5.5).
  if (h.depth() > 2 * numLanes) {
    fail("depth " + std::to_string(h.depth()) + " exceeds 2w = " +
         std::to_string(2 * numLanes));
  }

  // Edge coverage: the root materializes exactly the graph, and every edge's
  // owner actually owns it.
  {
    auto edges = h.materializeEdges(h.root());
    if (std::adjacent_find(edges.begin(), edges.end()) != edges.end()) {
      fail("an edge is owned by two nodes");
    }
    std::vector<std::pair<VertexId, VertexId>> expected;
    for (const Edge& e : g.edges()) {
      expected.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
    }
    std::sort(expected.begin(), expected.end());
    if (edges != expected) fail("root edge set differs from the graph");
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
      const int owner = result.edgeOwner[static_cast<std::size_t>(e)];
      if (owner < 0) {
        fail("edge without owner");
        continue;
      }
      const HierNode& n = h.node(owner);
      const auto key = std::make_pair(std::min(g.edge(e).u, g.edge(e).v),
                                      std::max(g.edge(e).u, g.edge(e).v));
      const bool owns =
          (n.type == HierNode::Type::kE || n.type == HierNode::Type::kB)
              ? key == std::make_pair(std::min(n.u, n.v), std::max(n.u, n.v))
              : n.type == HierNode::Type::kP;
      if (!owns) fail("edge owner mismatch at " + nodeRef(h, owner));
    }
  }

  // Per-node checks, in node order.
  for (int id = 0; id < h.size(); ++id) validateNode(h, id, fail);
  return errs;
}

}  // namespace lanecert
