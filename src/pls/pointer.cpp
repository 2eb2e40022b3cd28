#include "pls/pointer.hpp"

#include "graph/algorithms.hpp"

namespace lanecert {

void PointerRecord::encodeTo(Encoder& enc) const {
  enc.u64(rootId);
  enc.boolean(treeEdge);
  if (treeEdge) {
    enc.u64(childDepth);
    enc.u64(childId);
  }
}

PointerRecord PointerRecord::decodeFrom(Decoder& dec) {
  PointerRecord r;
  r.rootId = dec.u64();
  r.treeEdge = dec.boolean();
  if (r.treeEdge) {
    r.childDepth = dec.u64();
    r.childId = dec.u64();
  }
  return r;
}

std::vector<PointerRecord> provePointer(const Graph& g, const IdAssignment& ids,
                                        VertexId target) {
  const SpanningTree tree = bfsTree(g, target);
  std::vector<PointerRecord> out(static_cast<std::size_t>(g.numEdges()));
  const std::uint64_t rootId = ids.id(target);
  for (PointerRecord& r : out) r.rootId = rootId;
  // Every non-root vertex owns exactly one parent edge.
  for (std::size_t v = 0; v < tree.parentEdge.size(); ++v) {
    const EdgeId pe = tree.parentEdge[v];
    if (pe == kNoEdge) continue;
    PointerRecord& r = out[static_cast<std::size_t>(pe)];
    r.treeEdge = true;
    r.childDepth = static_cast<std::uint64_t>(tree.depth[v]);
    r.childId = ids.id(static_cast<VertexId>(v));
  }
  return out;
}

bool checkPointerAt(std::uint64_t selfId,
                    const std::vector<PointerRecord>& incident,
                    std::optional<std::uint64_t> expectedRoot) {
  if (incident.empty()) {
    // Isolated vertex: only valid when it is itself the target.
    return expectedRoot.has_value() && *expectedRoot == selfId;
  }
  const std::uint64_t root = incident[0].rootId;
  if (expectedRoot && *expectedRoot != root) return false;
  for (const PointerRecord& r : incident) {
    if (r.rootId != root) return false;  // everyone must agree on the target
  }
  if (selfId == root) {
    // The root has no parent edge, and all its tree edges go to depth-1
    // children.
    for (const PointerRecord& r : incident) {
      if (!r.treeEdge) continue;
      if (r.childId == selfId) return false;
      if (r.childDepth != 1) return false;
    }
    return true;
  }
  // Every other vertex has exactly one parent edge (a tree edge naming it
  // as the child) of depth d >= 1, and all remaining incident tree edges
  // are child edges of depth d + 1.
  std::uint64_t myDepth = 0;
  int parents = 0;
  for (const PointerRecord& r : incident) {
    if (r.treeEdge && r.childId == selfId) {
      ++parents;
      myDepth = r.childDepth;
    }
  }
  if (parents != 1 || myDepth == 0) return false;
  for (const PointerRecord& r : incident) {
    if (!r.treeEdge || r.childId == selfId) continue;
    if (r.childDepth != myDepth + 1) return false;
  }
  return true;
}

}  // namespace lanecert
