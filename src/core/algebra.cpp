#include "core/algebra.hpp"

#include <algorithm>

namespace lanecert {

namespace {

// The folds below run concurrently from the wave-parallel prover and the
// sharded verifier, so all scratch is thread-local and staged in the
// struct-of-arrays FoldScratch: each helper works on one contiguous u64
// lane.
FoldScratch& foldScratch() {
  thread_local FoldScratch s;
  return s;
}

int slotIndexOf(std::span<const std::uint64_t> slots, std::uint64_t id) {
  const auto it = std::ranges::find(slots, id);
  if (it == slots.end()) throw DecodeError{};
  return static_cast<int>(it - slots.begin());
}

/// Sorted copy of `ids` in the scratch sort lane; valid until the next call
/// from the same thread.
std::span<const std::uint64_t> sortedLane(std::span<const std::uint64_t> ids) {
  std::vector<std::uint64_t>& buf = foldScratch().sorted;
  buf.assign(ids.begin(), ids.end());
  std::sort(buf.begin(), buf.end());
  return buf;
}

void requireDistinct(std::span<const std::uint64_t> ids) {
  const auto sorted = sortedLane(ids);
  if (std::ranges::adjacent_find(sorted) != sorted.end()) throw DecodeError{};
}

std::vector<int> mergedLanes(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> out;
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  if (std::adjacent_find(out.begin(), out.end()) != out.end()) {
    throw DecodeError{};  // lane sets must be disjoint
  }
  return out;
}

}  // namespace

NodeData LaneAlgebra::baseV(int lane, std::uint64_t vid) const {
  NodeData d;
  d.lanes = {lane};
  d.inTerm.set(lane, vid);
  d.outTerm.set(lane, vid);
  d.slots = {vid};
  d.state = prop_.addVertex(prop_.empty());
  return d;
}

NodeData LaneAlgebra::baseE(int lane, std::uint64_t inId, std::uint64_t outId,
                            bool real) const {
  if (inId == outId) throw DecodeError{};
  NodeData d;
  d.lanes = {lane};
  d.inTerm.set(lane, inId);
  d.outTerm.set(lane, outId);
  d.slots = {inId, outId};
  HomState s = prop_.addVertex(prop_.addVertex(prop_.empty()));
  d.state = prop_.addEdge(s, 0, 1, real ? kRealEdge : kVirtualEdge);
  return d;
}

NodeData LaneAlgebra::baseP(std::span<const int> lanes,
                            std::span<const std::uint64_t> pathIds,
                            std::span<const std::uint8_t> realFlags) const {
  if (lanes.size() != pathIds.size() || pathIds.empty() ||
      realFlags.size() + 1 != pathIds.size()) {
    throw DecodeError{};
  }
  requireDistinct(pathIds);
  NodeData d;
  d.lanes.assign(lanes.begin(), lanes.end());
  if (!std::is_sorted(lanes.begin(), lanes.end())) throw DecodeError{};
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    d.inTerm.set(lanes[i], pathIds[i]);
    d.outTerm.set(lanes[i], pathIds[i]);
  }
  d.slots.assign(pathIds.begin(), pathIds.end());
  HomState s = prop_.empty();
  for (std::size_t i = 0; i < pathIds.size(); ++i) s = prop_.addVertex(s);
  for (std::size_t i = 0; i + 1 < pathIds.size(); ++i) {
    s = prop_.addEdge(s, static_cast<int>(i), static_cast<int>(i + 1),
                      realFlags[i] != 0 ? kRealEdge : kVirtualEdge);
  }
  d.state = std::move(s);
  return d;
}

NodeData LaneAlgebra::bridge(const NodeData& a, const NodeData& b, int laneI,
                             int laneJ, bool real) const {
  NodeData d;
  d.lanes = mergedLanes(a.lanes, b.lanes);
  d.slots = a.slots;
  d.slots.insert(d.slots.end(), b.slots.begin(), b.slots.end());
  requireDistinct(d.slots);  // parts are vertex-disjoint
  for (const auto& [l, id] : a.inTerm.entries) d.inTerm.set(l, id);
  for (const auto& [l, id] : b.inTerm.entries) d.inTerm.set(l, id);
  for (const auto& [l, id] : a.outTerm.entries) d.outTerm.set(l, id);
  for (const auto& [l, id] : b.outTerm.entries) d.outTerm.set(l, id);
  const int sa = slotIndexOf(a.slots, a.outTerm.at(laneI));
  const int sb = static_cast<int>(a.slots.size()) +
                 slotIndexOf(b.slots, b.outTerm.at(laneJ));
  d.state = prop_.addEdge(prop_.join(a.state, b.state), sa, sb,
                          real ? kRealEdge : kVirtualEdge);
  return d;
}

NodeData LaneAlgebra::parentMerge(const NodeData& child,
                                  const NodeData& parent) const {
  if (!std::includes(parent.lanes.begin(), parent.lanes.end(),
                     child.lanes.begin(), child.lanes.end())) {
    throw DecodeError{};  // T(child) ⊆ T(parent)
  }
  FoldScratch& fs = foldScratch();
  // Gluing points: child's in-terminal IS the parent's out-terminal.
  std::vector<std::uint64_t>& glueIds = fs.glue;
  glueIds.clear();
  for (int lane : child.lanes) {
    const std::uint64_t g = parent.outTerm.at(lane);
    if (child.inTerm.at(lane) != g) throw DecodeError{};
    glueIds.push_back(g);
  }
  std::sort(glueIds.begin(), glueIds.end());
  if (std::ranges::adjacent_find(glueIds) != glueIds.end()) {
    throw DecodeError{};  // two lanes glued through one vertex
  }
  // The parts may share vertices ONLY at the gluing points.
  {
    const auto parentSorted = sortedLane(parent.slots);
    for (std::uint64_t id : child.slots) {
      if (std::binary_search(parentSorted.begin(), parentSorted.end(), id) &&
          !std::binary_search(glueIds.begin(), glueIds.end(), id)) {
        throw DecodeError{};
      }
    }
  }

  NodeData d;
  d.lanes = parent.lanes;
  d.inTerm = parent.inTerm;
  for (int lane : parent.lanes) {
    d.outTerm.set(lane, std::binary_search(child.lanes.begin(), child.lanes.end(), lane)
                            ? child.outTerm.at(lane)
                            : parent.outTerm.at(lane));
  }

  HomState s = prop_.join(parent.state, child.state);
  // The merged slot layout evolves in the scratch id lane (identify/forget
  // below mirror the property's slot shifting with erases on this lane).
  std::vector<std::uint64_t>& slots = fs.ids;
  slots.assign(parent.slots.begin(), parent.slots.end());
  slots.insert(slots.end(), child.slots.begin(), child.slots.end());
  // Glue lane by lane (ascending) — each identify removes the child-side
  // occurrence of the shared identifier.
  for (int lane : child.lanes) {
    const std::uint64_t g = parent.outTerm.at(lane);
    if (std::ranges::count(slots, g) != 2) throw DecodeError{};
    const auto first = std::ranges::find(slots, g);
    const auto last = std::find(first + 1, slots.end(), g);
    s = prop_.identify(s, static_cast<int>(first - slots.begin()),
                       static_cast<int>(last - slots.begin()));
    slots.erase(last);
  }
  requireDistinct(slots);
  // Demote everything that is no longer a terminal of the merged graph.
  std::vector<std::uint64_t>& keep = fs.keep;
  keep.clear();
  for (const auto& [l, id] : d.inTerm.entries) keep.push_back(id);
  for (const auto& [l, id] : d.outTerm.entries) keep.push_back(id);
  std::sort(keep.begin(), keep.end());
  keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
  for (int i = static_cast<int>(slots.size()) - 1; i >= 0; --i) {
    if (!std::binary_search(keep.begin(), keep.end(),
                            slots[static_cast<std::size_t>(i)])) {
      s = prop_.forget(s, i);
      slots.erase(slots.begin() + i);
    }
  }
  // Every terminal must survive as a slot.
  for (std::uint64_t id : keep) (void)slotIndexOf(slots, id);
  d.slots.assign(slots.begin(), slots.end());
  d.state = std::move(s);
  return d;
}

NodeData LaneAlgebra::fromSummary(const SummaryRec& rec) const {
  NodeData d;
  // assign() rather than operator=: record containers are pmr (possibly
  // arena-backed), NodeData's are plain heap vectors.
  d.lanes.assign(rec.lanes.begin(), rec.lanes.end());
  if (d.lanes.empty()) throw DecodeError{};
  d.inTerm = rec.inTerm;
  d.outTerm = rec.outTerm;
  d.slots.assign(rec.slotOrder.begin(), rec.slotOrder.end());
  requireDistinct(d.slots);
  FoldScratch& fs = foldScratch();
  // Terminals defined exactly on the lane set; slots = terminal vertex set.
  std::vector<std::uint64_t>& termIds = fs.terms;
  termIds.clear();
  for (const LaneTerms* t : {&rec.inTerm, &rec.outTerm}) {
    if (t->entries.size() != rec.lanes.size()) throw DecodeError{};
    for (const auto& [lane, id] : t->entries) {
      if (!std::binary_search(rec.lanes.begin(), rec.lanes.end(), lane)) {
        throw DecodeError{};
      }
      termIds.push_back(id);
    }
  }
  std::sort(termIds.begin(), termIds.end());
  termIds.erase(std::unique(termIds.begin(), termIds.end()), termIds.end());
  // requireDistinct passed, so comparing the sorted slot lane against the
  // deduplicated terminal lane decides set equality.
  std::vector<std::uint64_t>& slotsSorted = fs.ids;
  slotsSorted.assign(d.slots.begin(), d.slots.end());
  std::sort(slotsSorted.begin(), slotsSorted.end());
  if (termIds != slotsSorted) throw DecodeError{};
  d.state = prop_.decodeState(rec.stateBytes);
  // Canonicality: re-encoding must reproduce the bytes, and the state's
  // internal slot count must match the layout.
  if (!std::ranges::equal(d.state.encoding(), rec.stateBytes)) {
    throw DecodeError{};
  }
  if (prop_.slotCount(d.state) != static_cast<int>(d.slots.size())) {
    throw DecodeError{};
  }
  return d;
}

}  // namespace lanecert
