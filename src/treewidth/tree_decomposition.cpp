#include "treewidth/tree_decomposition.hpp"

#include <algorithm>
#include <queue>
#include <set>
#include <sstream>

#include "pathwidth/pathwidth.hpp"

namespace lanecert {

int TreeDecomposition::width() const {
  int w = -1;
  for (const auto& b : bags_) w = std::max(w, static_cast<int>(b.size()) - 1);
  return w;
}

int TreeDecomposition::depth() const {
  int best = 0;
  std::vector<int> d(bags_.size(), -1);
  // parents may appear in any order; resolve iteratively.
  for (std::size_t i = 0; i < bags_.size(); ++i) {
    // Walk up to a resolved ancestor.
    std::vector<std::size_t> path;
    std::size_t cur = i;
    while (d[cur] == -1 && parent_[cur] >= 0) {
      path.push_back(cur);
      cur = static_cast<std::size_t>(parent_[cur]);
    }
    int base = parent_[cur] < 0 ? 1 : d[cur];
    if (d[cur] == -1) d[cur] = base;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      d[*it] = ++base;
    }
    best = std::max(best, d[i]);
  }
  return best;
}

bool TreeDecomposition::isValidFor(const Graph& g) const {
  if (bags_.empty()) return g.numVertices() == 0;
  const auto n = static_cast<std::size_t>(g.numVertices());
  // (1) every vertex somewhere; collect occurrence lists.
  std::vector<std::vector<std::size_t>> occ(n);
  for (std::size_t i = 0; i < bags_.size(); ++i) {
    std::set<VertexId> inBag;
    for (VertexId v : bags_[i]) {
      if (v < 0 || v >= g.numVertices()) return false;
      if (!inBag.insert(v).second) return false;  // duplicate inside bag
      occ[static_cast<std::size_t>(v)].push_back(i);
    }
  }
  for (const auto& o : occ) {
    if (o.empty()) return false;
  }
  // (2) every edge in some bag.
  for (const Edge& e : g.edges()) {
    bool found = false;
    for (std::size_t i : occ[static_cast<std::size_t>(e.u)]) {
      if (std::find(bags_[i].begin(), bags_[i].end(), e.v) != bags_[i].end()) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  // (3) occurrences connected in the tree: for each vertex, the occurrence
  // set must induce a connected subtree.  BFS within the occurrence set
  // (adjacency = parent links restricted to the set).
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    const auto& o = occ[static_cast<std::size_t>(v)];
    const std::set<std::size_t> members(o.begin(), o.end());
    std::set<std::size_t> seen{o[0]};
    std::queue<std::size_t> q;
    q.push(o[0]);
    while (!q.empty()) {
      const std::size_t cur = q.front();
      q.pop();
      // Neighbors in the tree: parent + children within the set.
      if (parent_[cur] >= 0 &&
          members.count(static_cast<std::size_t>(parent_[cur])) != 0 &&
          seen.insert(static_cast<std::size_t>(parent_[cur])).second) {
        q.push(static_cast<std::size_t>(parent_[cur]));
      }
      for (std::size_t j : members) {
        if (parent_[j] == static_cast<int>(cur) && seen.insert(j).second) {
          q.push(j);
        }
      }
    }
    if (seen.size() != members.size()) return false;
  }
  return true;
}

std::string TreeDecomposition::toString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < bags_.size(); ++i) {
    os << i << " (parent " << parent_[i] << "): {";
    for (std::size_t j = 0; j < bags_[i].size(); ++j) {
      if (j > 0) os << ", ";
      os << bags_[i][j];
    }
    os << "}\n";
  }
  return os.str();
}

TreeDecomposition fromPathDecomposition(const PathDecomposition& pd) {
  std::vector<std::vector<VertexId>> bags(pd.bags().begin(), pd.bags().end());
  std::vector<int> parent(bags.size());
  for (std::size_t i = 0; i < bags.size(); ++i) {
    parent[i] = i == 0 ? -1 : static_cast<int>(i) - 1;
  }
  return TreeDecomposition(std::move(bags), std::move(parent));
}

namespace {

void buildBalanced(const PathDecomposition& pd, int lo, int hi, int parent,
                   std::vector<std::vector<VertexId>>& bags,
                   std::vector<int>& parents) {
  const int mid = lo + (hi - lo) / 2;
  std::vector<VertexId> bag;
  for (int i : {lo, mid, hi}) {
    const auto& b = pd.bag(static_cast<std::size_t>(i));
    bag.insert(bag.end(), b.begin(), b.end());
  }
  std::sort(bag.begin(), bag.end());
  bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
  const int self = static_cast<int>(bags.size());
  bags.push_back(std::move(bag));
  parents.push_back(parent);
  if (lo < hi) {
    buildBalanced(pd, lo, mid, self, bags, parents);
    if (mid + 1 <= hi) buildBalanced(pd, mid + 1, hi, self, bags, parents);
  }
}

}  // namespace

TreeDecomposition balancedFromPath(const PathDecomposition& pd) {
  std::vector<std::vector<VertexId>> bags;
  std::vector<int> parents;
  if (pd.numBags() > 0) {
    buildBalanced(pd, 0, static_cast<int>(pd.numBags()) - 1, -1, bags, parents);
  }
  return TreeDecomposition(std::move(bags), std::move(parents));
}

TreeDecomposition treeDecompositionOf(const Graph& g) {
  return fromPathDecomposition(
      toPathDecomposition(bestIntervalRepresentation(g, 18)));
}

}  // namespace lanecert
