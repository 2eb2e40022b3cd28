#include "interval/interval.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace lanecert {

IntervalRepresentation IntervalRepresentation::fromPairs(
    const std::vector<std::pair<int, int>>& pairs) {
  std::vector<Interval> iv;
  iv.reserve(pairs.size());
  for (const auto& [l, r] : pairs) iv.push_back(Interval{l, r});
  return IntervalRepresentation(std::move(iv));
}

int IntervalRepresentation::width() const {
  // The coverage peaks at some left endpoint p, where it is
  // #{l <= p} - #{r < p}: an interval that ends before p started before it.
  // Sorting both endpoint lists avoids a tree node per endpoint.
  std::vector<int> lefts;
  std::vector<int> rights;
  lefts.reserve(intervals_.size());
  rights.reserve(intervals_.size());
  for (const Interval& iv : intervals_) {
    if (iv.l > iv.r) return -1;  // invalid interval; callers treat as error
    lefts.push_back(iv.l);
    rights.push_back(iv.r);
  }
  std::sort(lefts.begin(), lefts.end());
  std::sort(rights.begin(), rights.end());
  int best = 0;
  std::size_t ended = 0;
  for (std::size_t i = 0; i < lefts.size(); ++i) {
    // The interval starting at lefts[i] ends at or after it, so `ended`
    // stays below the count.
    while (rights[ended] < lefts[i]) ++ended;
    best = std::max(best, static_cast<int>(i + 1 - ended));
  }
  return best;
}

bool IntervalRepresentation::isValidFor(const Graph& g) const {
  if (numVertices() != g.numVertices()) return false;
  for (const Interval& iv : intervals_) {
    if (iv.l > iv.r) return false;
  }
  for (const Edge& e : g.edges()) {
    if (!interval(e.u).overlaps(interval(e.v))) return false;
  }
  return true;
}

IntervalRepresentation::Restriction IntervalRepresentation::restrictTo(
    const std::vector<char>& keep) const {
  Restriction out;
  for (VertexId v = 0; v < numVertices(); ++v) {
    if (keep[static_cast<std::size_t>(v)]) {
      out.toOriginal.push_back(v);
      out.rep.intervals_.push_back(interval(v));
    }
  }
  return out;
}

IntervalRepresentation IntervalRepresentation::normalized() const {
  std::vector<int> coords;
  coords.reserve(intervals_.size() * 2);
  for (const Interval& iv : intervals_) {
    coords.push_back(iv.l);
    coords.push_back(iv.r);
  }
  std::sort(coords.begin(), coords.end());
  coords.erase(std::unique(coords.begin(), coords.end()), coords.end());
  auto rank = [&coords](int x) {
    return static_cast<int>(std::lower_bound(coords.begin(), coords.end(), x) -
                            coords.begin());
  };
  std::vector<Interval> iv;
  iv.reserve(intervals_.size());
  for (const Interval& old : intervals_) {
    iv.push_back(Interval{rank(old.l), rank(old.r)});
  }
  return IntervalRepresentation(std::move(iv));
}

std::string IntervalRepresentation::toString() const {
  std::ostringstream os;
  for (VertexId v = 0; v < numVertices(); ++v) {
    os << v << ": [" << interval(v).l << ", " << interval(v).r << "]\n";
  }
  return os.str();
}

int PathDecomposition::width() const {
  int w = -1;
  for (const auto& b : bags_) w = std::max(w, static_cast<int>(b.size()) - 1);
  return w;
}

bool PathDecomposition::isValidFor(const Graph& g) const {
  const auto n = static_cast<std::size_t>(g.numVertices());
  std::vector<int> first(n, -1);
  std::vector<int> last(n, -1);
  for (std::size_t i = 0; i < bags_.size(); ++i) {
    for (VertexId v : bags_[i]) {
      if (v < 0 || v >= g.numVertices()) return false;
      if (first[static_cast<std::size_t>(v)] == -1) {
        first[static_cast<std::size_t>(v)] = static_cast<int>(i);
      }
      last[static_cast<std::size_t>(v)] = static_cast<int>(i);
    }
  }
  // Every vertex appears somewhere.
  for (std::size_t v = 0; v < n; ++v) {
    if (first[v] == -1) return false;
  }
  // (P2): occurrences are exactly the interval [first, last].
  std::vector<std::vector<char>> present(bags_.size(), std::vector<char>(n, 0));
  for (std::size_t i = 0; i < bags_.size(); ++i) {
    for (VertexId v : bags_[i]) {
      if (present[i][static_cast<std::size_t>(v)]) return false;  // duplicate in bag
      present[i][static_cast<std::size_t>(v)] = 1;
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    for (int i = first[v]; i <= last[v]; ++i) {
      if (!present[static_cast<std::size_t>(i)][v]) return false;
    }
  }
  // (P1): each edge inside some bag <=> intervals overlap for path decomps.
  for (const Edge& e : g.edges()) {
    const auto u = static_cast<std::size_t>(e.u);
    const auto w = static_cast<std::size_t>(e.v);
    const int lo = std::max(first[u], first[w]);
    const int hi = std::min(last[u], last[w]);
    if (lo > hi) return false;
  }
  return true;
}

std::string PathDecomposition::toString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < bags_.size(); ++i) {
    os << "X_" << i + 1 << " = {";
    for (std::size_t j = 0; j < bags_[i].size(); ++j) {
      if (j > 0) os << ", ";
      os << bags_[i][j];
    }
    os << "}\n";
  }
  return os.str();
}

IntervalRepresentation toIntervalRepresentation(const PathDecomposition& pd,
                                                VertexId numVertices) {
  std::vector<Interval> iv(static_cast<std::size_t>(numVertices),
                           Interval{-1, -1});
  for (std::size_t i = 0; i < pd.numBags(); ++i) {
    for (VertexId v : pd.bag(i)) {
      auto& x = iv[static_cast<std::size_t>(v)];
      if (x.l == -1) x.l = static_cast<int>(i);
      x.r = static_cast<int>(i);
    }
  }
  for (const Interval& x : iv) {
    if (x.l == -1) {
      throw std::invalid_argument(
          "toIntervalRepresentation: vertex missing from decomposition");
    }
  }
  return IntervalRepresentation(std::move(iv));
}

PathDecomposition toPathDecomposition(const IntervalRepresentation& rep) {
  const IntervalRepresentation norm = rep.normalized();
  int maxCoord = -1;
  for (const Interval& iv : norm.intervals()) maxCoord = std::max(maxCoord, iv.r);
  std::vector<std::vector<VertexId>> bags(static_cast<std::size_t>(maxCoord + 1));
  for (VertexId v = 0; v < norm.numVertices(); ++v) {
    const Interval& iv = norm.interval(v);
    for (int i = iv.l; i <= iv.r; ++i) {
      bags[static_cast<std::size_t>(i)].push_back(v);
    }
  }
  return PathDecomposition(std::move(bags));
}

}  // namespace lanecert
