#include "klane/hierarchy.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace lanecert {

VertexId TerminalMap::at(int lane) const {
  for (const auto& [l, v] : entries()) {
    if (l == lane) return v;
  }
  return kNoVertex;
}

void TerminalMap::set(int lane, VertexId v) {
  std::span<Entry> all = heap_.empty()
                             ? std::span<Entry>(inline_.data(), inlineSize_)
                             : std::span<Entry>(heap_);
  for (auto& [l, w] : all) {
    if (l == lane) {
      w = v;
      return;
    }
  }
  if (heap_.empty() && inlineSize_ < kInline) {
    inline_[inlineSize_++] = Entry{lane, v};
    std::sort(inline_.begin(), inline_.begin() + inlineSize_);
    return;
  }
  if (heap_.empty()) heap_.assign(inline_.begin(), inline_.end());
  heap_.emplace_back(lane, v);
  std::sort(heap_.begin(), heap_.end());
}

TerminalMap TerminalMap::fromSortedEntries(std::vector<Entry> entries) {
  TerminalMap t;
  if (entries.size() <= kInline) {
    std::copy(entries.begin(), entries.end(), t.inline_.begin());
    t.inlineSize_ = entries.size();
  } else {
    t.heap_ = std::move(entries);
  }
  return t;
}

int Hierarchy::depth() const {
  // Iterative DFS computing max node count root->leaf.
  int best = 0;
  std::vector<std::pair<int, int>> stack{{root_, 1}};
  while (!stack.empty()) {
    const auto [id, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    for (int c : node(id).children) stack.emplace_back(c, d + 1);
  }
  return best;
}

std::vector<VertexId> Hierarchy::materializeVertices(int id) const {
  std::vector<VertexId> out;
  std::vector<int> stack{id};
  while (!stack.empty()) {
    const HierNode& n = node(stack.back());
    stack.pop_back();
    switch (n.type) {
      case HierNode::Type::kV:
        out.push_back(n.u);
        break;
      case HierNode::Type::kE:
        out.push_back(n.u);
        out.push_back(n.v);
        break;
      case HierNode::Type::kP:
        out.insert(out.end(), n.pathVertices.begin(), n.pathVertices.end());
        break;
      case HierNode::Type::kB:
      case HierNode::Type::kT:
        break;
    }
    for (int c : n.children) stack.push_back(c);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::pair<VertexId, VertexId>> Hierarchy::materializeEdges(
    int id) const {
  std::vector<std::pair<VertexId, VertexId>> out;
  auto add = [&out](VertexId a, VertexId b) {
    out.emplace_back(std::min(a, b), std::max(a, b));
  };
  std::vector<int> stack{id};
  while (!stack.empty()) {
    const HierNode& n = node(stack.back());
    stack.pop_back();
    switch (n.type) {
      case HierNode::Type::kE:
      case HierNode::Type::kB:
        add(n.u, n.v);
        break;
      case HierNode::Type::kP:
        for (std::size_t i = 0; i + 1 < n.pathVertices.size(); ++i) {
          add(n.pathVertices[i], n.pathVertices[i + 1]);
        }
        break;
      case HierNode::Type::kV:
      case HierNode::Type::kT:
        break;
    }
    for (int c : n.children) stack.push_back(c);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Hierarchy::toString() const {
  static const char* names[] = {"V", "E", "P", "B", "T"};
  std::ostringstream os;
  // DFS with depth for indentation.
  std::vector<std::pair<int, int>> stack{{root_, 0}};
  while (!stack.empty()) {
    const auto [id, d] = stack.back();
    stack.pop_back();
    const HierNode& n = node(id);
    for (int i = 0; i < d; ++i) os << "  ";
    os << names[static_cast<int>(n.type)] << "#" << id << " lanes={";
    for (std::size_t i = 0; i < n.lanes.size(); ++i) {
      if (i > 0) os << ",";
      os << n.lanes[i];
    }
    os << "}";
    if (n.type == HierNode::Type::kE || n.type == HierNode::Type::kB) {
      os << " edge=(" << n.u << "," << n.v << ")";
    }
    if (n.type == HierNode::Type::kV) os << " v=" << n.u;
    os << "\n";
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.emplace_back(*it, d + 1);
    }
  }
  return os.str();
}

namespace {

/// Incremental builder implementing the induction of Proposition 5.6.
///
/// The replay pass is purely STRUCTURAL: it fixes every node's type, lane
/// set, tree links, and vertex payload, but defers the TerminalMap
/// materialization to a bottom-up post-pass at the end of run(), which
/// keeps the replay loop lean.
class HierarchyBuilder {
 public:
  explicit HierarchyBuilder(const ConstructionSequence& seq) : seq_(seq) {}

  HierarchyResult run();

 private:
  int newNode(HierNode n) {
    nodes_.push_back(std::move(n));
    tOutDesig_.emplace_back();
    return static_cast<int>(nodes_.size()) - 1;
  }

  /// Walk-up LCA in the current working tree.
  int lca(int a, int b) const {
    while (a != b) {
      if (tDepth_[static_cast<std::size_t>(a)] >= tDepth_[static_cast<std::size_t>(b)]) {
        a = tParent_[static_cast<std::size_t>(a)];
      } else {
        b = tParent_[static_cast<std::size_t>(b)];
      }
    }
    return a;
  }

  /// The child of `ancestor` (in the working tree) on the path to `node`.
  int childToward(int ancestor, int node) const {
    while (tParent_[static_cast<std::size_t>(node)] != ancestor) {
      node = tParent_[static_cast<std::size_t>(node)];
    }
    return node;
  }

  /// Adds `node` to the working tree below `parent`.
  void attach(int node, int parent) {
    growTreeArrays();
    tParent_[static_cast<std::size_t>(node)] = parent;
    tDepth_[static_cast<std::size_t>(node)] =
        parent < 0 ? 0 : tDepth_[static_cast<std::size_t>(parent)] + 1;
    if (parent >= 0) tChildren_[static_cast<std::size_t>(parent)].push_back(node);
  }

  void growTreeArrays() {
    tParent_.resize(nodes_.size(), -1);
    tDepth_.resize(nodes_.size(), 0);
    tChildren_.resize(nodes_.size());
    inTree_.resize(nodes_.size(), 0);
    posOf_.resize(nodes_.size(), -1);
  }

  /// Collects the working-tree subtree rooted at `root` (roots first).
  std::vector<int> collectSubtree(int root) const {
    std::vector<int> out{root};
    for (std::size_t i = 0; i < out.size(); ++i) {
      for (int c : tChildren_[static_cast<std::size_t>(out[i])]) {
        if (inTree_[static_cast<std::size_t>(c)]) out.push_back(c);
      }
    }
    return out;
  }

  /// Wraps the working-tree subtree rooted at `subtreeRoot` into a T-node
  /// and detaches it from the working tree.  Returns the T-node id.
  int wrapSubtree(int subtreeRoot);

  /// Builds the B-node part for lane `lane`: a V-node when the lane owner
  /// IS the LCA `gPrime`, otherwise a T-node wrapping the subtree below
  /// `gPrime` toward the owner.
  int buildPart(int gPrime, int owner, int lane);

  /// Fills inTerm/outTerm of one node from its children's (already filled:
  /// children always have smaller ids, and run() fills in ascending id
  /// order).
  void fillTerminals(int id);

  const ConstructionSequence& seq_;
  std::vector<HierNode> nodes_;
  /// Per T-node: designated vertex of each of its lanes AT WRAP TIME
  /// (aligned with the node's sorted lane list) — the outTerm snapshot the
  /// deferred materialization replays.  Empty for non-T nodes.
  std::vector<std::vector<VertexId>> tOutDesig_;
  // Working tree state (parallel to nodes_, grown lazily):
  std::vector<int> tParent_;
  std::vector<int> tDepth_;
  std::vector<std::vector<int>> tChildren_;
  std::vector<char> inTree_;
  /// Scratch for wrapSubtree's member->position translation.  Persistent so
  /// a wrap costs O(subtree), not O(all nodes); only entries written by the
  /// current wrap are ever read, so stale values are harmless.
  std::vector<int> posOf_;
  // Per-lane state:
  std::vector<VertexId> designated_;
  std::vector<int> laneOwner_;  ///< lowest working-tree node containing τ_i
};

int HierarchyBuilder::wrapSubtree(int subtreeRoot) {
  const std::vector<int> members = collectSubtree(subtreeRoot);
  HierNode w;
  w.type = HierNode::Type::kT;
  const HierNode& rootNode = nodes_[static_cast<std::size_t>(subtreeRoot)];
  w.lanes = rootNode.lanes;
  // Terminals are deferred; snapshot the per-lane designated vertices the
  // outTerm materialization will replay (inTerm simply copies the root
  // child's, which is final by then).
  std::vector<VertexId> outDesig;
  outDesig.reserve(w.lanes.size());
  for (int lane : w.lanes) {
    outDesig.push_back(designated_[static_cast<std::size_t>(lane)]);
  }
  w.children = members;
  w.treeParentPos.assign(members.size(), -1);
  // Positions of members inside w.children for tree-parent translation
  // (posOf_ is persistent scratch: only the entries written here are read).
  for (std::size_t p = 0; p < members.size(); ++p) {
    posOf_[static_cast<std::size_t>(members[p])] = static_cast<int>(p);
  }
  for (std::size_t p = 0; p < members.size(); ++p) {
    const int m = members[p];
    if (m == subtreeRoot) {
      w.rootChildPos = static_cast<int>(p);
    } else {
      w.treeParentPos[p] = posOf_[static_cast<std::size_t>(tParent_[static_cast<std::size_t>(m)])];
    }
    inTree_[static_cast<std::size_t>(m)] = 0;  // leaves the working tree
  }
  // Detach from the working-tree parent.
  const int par = tParent_[static_cast<std::size_t>(subtreeRoot)];
  if (par >= 0) {
    auto& sib = tChildren_[static_cast<std::size_t>(par)];
    sib.erase(std::find(sib.begin(), sib.end(), subtreeRoot));
  }
  const int id = newNode(std::move(w));
  tOutDesig_[static_cast<std::size_t>(id)] = std::move(outDesig);
  for (std::size_t p = 0; p < members.size(); ++p) {
    nodes_[static_cast<std::size_t>(members[p])].parent = id;
  }
  growTreeArrays();
  return id;
}

int HierarchyBuilder::buildPart(int gPrime, int owner, int lane) {
  if (owner == gPrime) {
    HierNode vn;
    vn.type = HierNode::Type::kV;
    vn.lanes = {lane};
    vn.u = designated_[static_cast<std::size_t>(lane)];
    const int id = newNode(std::move(vn));
    growTreeArrays();
    return id;
  }
  return wrapSubtree(childToward(gPrime, owner));
}

void HierarchyBuilder::fillTerminals(int id) {
  HierNode& n = nodes_[static_cast<std::size_t>(id)];
  switch (n.type) {
    case HierNode::Type::kV:
      n.inTerm.set(n.lanes[0], n.u);
      n.outTerm.set(n.lanes[0], n.u);
      break;
    case HierNode::Type::kE:
      n.inTerm.set(n.laneI, n.u);
      n.outTerm.set(n.laneI, n.v);
      break;
    case HierNode::Type::kP:
      // Path vertices are in lane order: vertex i is lane lanes[i]'s
      // terminal on both sides.
      for (std::size_t i = 0; i < n.lanes.size(); ++i) {
        n.inTerm.set(n.lanes[i], n.pathVertices[i]);
        n.outTerm.set(n.lanes[i], n.pathVertices[i]);
      }
      break;
    case HierNode::Type::kB:
      for (int part : {n.children[0], n.children[1]}) {
        const HierNode& pn = nodes_[static_cast<std::size_t>(part)];
        for (int lane : pn.lanes) {
          n.inTerm.set(lane, pn.inTerm.at(lane));
          n.outTerm.set(lane, pn.outTerm.at(lane));
        }
      }
      break;
    case HierNode::Type::kT: {
      const int rootChild =
          n.children[static_cast<std::size_t>(n.rootChildPos)];
      n.inTerm = nodes_[static_cast<std::size_t>(rootChild)].inTerm;
      const std::vector<VertexId>& outDesig =
          tOutDesig_[static_cast<std::size_t>(id)];
      for (std::size_t i = 0; i < n.lanes.size(); ++i) {
        n.outTerm.set(n.lanes[i], outDesig[i]);
      }
      break;
    }
  }
}

HierarchyResult HierarchyBuilder::run() {
  const ReplayResult replay = replayConstruction(seq_);  // validates
  const int w = seq_.numLanes();
  std::vector<int> edgeOwner(static_cast<std::size_t>(replay.graph.numEdges()), -1);

  // Initial P-node over the initial path.
  HierNode p;
  p.type = HierNode::Type::kP;
  for (int i = 0; i < w; ++i) p.lanes.push_back(i);
  p.pathVertices = seq_.initialPath;
  const int pNode = newNode(std::move(p));
  growTreeArrays();
  attach(pNode, -1);
  inTree_[static_cast<std::size_t>(pNode)] = 1;
  for (std::size_t i = 0; i < replay.initialPathEdges.size(); ++i) {
    edgeOwner[static_cast<std::size_t>(replay.initialPathEdges[i])] = pNode;
  }

  designated_ = seq_.initialPath;
  laneOwner_.assign(static_cast<std::size_t>(w), pNode);

  std::size_t vEdgeIdx = 0;
  std::size_t eEdgeIdx = 0;
  for (const ConstructionOp& op : seq_.ops) {
    if (op.kind == ConstructionOp::Kind::kVInsert) {
      // Case 1: E-node below the owner of lane i.
      const int owner = laneOwner_[static_cast<std::size_t>(op.i)];
      HierNode e;
      e.type = HierNode::Type::kE;
      e.lanes = {op.i};
      e.laneI = op.i;
      e.u = designated_[static_cast<std::size_t>(op.i)];  // glued side (τ_in)
      e.v = op.vertex;                                    // new designated (τ_out)
      const int id = newNode(std::move(e));
      growTreeArrays();
      attach(id, owner);
      inTree_[static_cast<std::size_t>(id)] = 1;
      designated_[static_cast<std::size_t>(op.i)] = op.vertex;
      laneOwner_[static_cast<std::size_t>(op.i)] = id;
      edgeOwner[static_cast<std::size_t>(replay.vInsertEdges[vEdgeIdx++])] = id;
    } else {
      // Cases 2.1-2.3: B-node below the LCA of the two lane owners.
      const int gi = laneOwner_[static_cast<std::size_t>(op.i)];
      const int gj = laneOwner_[static_cast<std::size_t>(op.j)];
      const int gPrime = lca(gi, gj);
      const int part1 = buildPart(gPrime, gi, op.i);
      const int part2 = buildPart(gPrime, gj, op.j);
      HierNode b;
      b.type = HierNode::Type::kB;
      b.laneI = op.i;
      b.laneJ = op.j;
      b.u = designated_[static_cast<std::size_t>(op.i)];
      b.v = designated_[static_cast<std::size_t>(op.j)];
      b.children = {part1, part2};
      for (int part : {part1, part2}) {
        const HierNode& pn = nodes_[static_cast<std::size_t>(part)];
        for (int lane : pn.lanes) b.lanes.push_back(lane);
      }
      std::sort(b.lanes.begin(), b.lanes.end());
      if (std::adjacent_find(b.lanes.begin(), b.lanes.end()) != b.lanes.end()) {
        throw std::logic_error("Bridge-merge: lane sets not disjoint");
      }
      const int id = newNode(std::move(b));
      growTreeArrays();
      nodes_[static_cast<std::size_t>(part1)].parent = id;
      nodes_[static_cast<std::size_t>(part2)].parent = id;
      attach(id, gPrime);
      inTree_[static_cast<std::size_t>(id)] = 1;
      for (int lane : nodes_[static_cast<std::size_t>(id)].lanes) {
        laneOwner_[static_cast<std::size_t>(lane)] = id;
      }
      edgeOwner[static_cast<std::size_t>(replay.eInsertEdges[eEdgeIdx++])] = id;
    }
  }

  // Final T-node over everything still in the working tree.
  const int root = wrapSubtree(pNode);
  nodes_[static_cast<std::size_t>(root)].parent = -1;

  // All structure is final: fill the deferred terminals, children first.
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    fillTerminals(static_cast<int>(id));
  }

  return HierarchyResult{Hierarchy(std::move(nodes_), root), replay.graph,
                         std::move(edgeOwner), designated_};
}

}  // namespace

HierarchyResult buildHierarchy(const ConstructionSequence& seq) {
  return HierarchyBuilder(seq).run();
}

}  // namespace lanecert
