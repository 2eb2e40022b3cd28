#include "core/verifier.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/algebra.hpp"
#include "core/records.hpp"
#include "lane/bounds.hpp"
#include "pls/pointer.hpp"
#include "runtime/arena.hpp"
#include "runtime/flat_map.hpp"

namespace lanecert {

/// Reusable per-thread buffers: a vertex check decodes every incident label
/// once into `labels` and tracks all cross-certificate state in flat
/// containers, so after the first few vertices a sweep stops allocating.
/// Every field is reset per vertex: nothing carries from one check to the
/// next, so one scratch may serve any number of engines.
/// Records referenced by pointer (summaries, chain entries) live in
/// `labels` / `virtualCerts`, which are fully built before validation
/// starts and stable until the next run.
struct VerifierScratch {
  /// Bump arena behind the decoded through-record arrays (EdgeLabelView
  /// spans point into it); reset per vertex, so after warm-up a sweep
  /// decodes labels without any heap allocation for those arrays.
  Arena arena;
  std::vector<EdgeLabelView> labels;
  std::vector<PointerRecord> pointers;
  std::vector<EdgeCert> virtualCerts;
  FlatMap<std::int64_t, const SummaryRec*> nodeSum;  ///< nodeId -> B(node)
  FlatMap<std::int64_t, const SummaryRec*> tmSum;    ///< nodeId -> B(TM(subtree))
  /// Per T-node: childId -> one representative T entry (chain-derived).
  FlatMap<std::int64_t, FlatMap<std::int64_t, const ChainEntry*>> heldChildren;
  /// Every T entry seen anywhere (chains + root entries), for gluing checks.
  std::vector<const ChainEntry*> allTreeEntries;
  /// Per B-node id: the unique chain-lower node id entering it (one part).
  FlatMap<std::int64_t, std::int64_t> bridgeLower;
  /// Per node id: ENCODINGS of entries already fully validated at this
  /// vertex.  Chains of different incident edges share their upper T/B
  /// entries, so most validateEntry calls are byte-identical repeats —
  /// replaying even the bookkeeping for them is pure waste.  Views alias
  /// label bytes, stable for the vertex check.
  FlatMap<std::int64_t, std::vector<std::string_view>> validatedEntries;
  std::vector<int> laneScratch;
  /// Struct-of-arrays id lane for the baseP replay (path vertex ids),
  /// mirroring algebra.cpp's FoldScratch lanes on the verifier side.
  std::vector<std::uint64_t> foldIds;

  void reset() {
    // Containers holding arena-backed records are cleared BEFORE the arena
    // rewinds: their (no-op-deallocating) destructors still read record
    // innards that live in arena blocks.
    labels.clear();
    pointers.clear();
    virtualCerts.clear();
    nodeSum.clear();
    tmSum.clear();
    heldChildren.clear();
    allTreeEntries.clear();
    bridgeLower.clear();
    validatedEntries.clear();
    laneScratch.clear();
    foldIds.clear();
    arena.reset();
  }
};

// --- SweepEntryCache ------------------------------------------------------

struct SweepEntryCache::Impl {
  static constexpr std::size_t kStripes = 16;
  explicit Impl(std::size_t maxEntries)
      : stripeCap(std::max<std::size_t>(1, maxEntries / kStripes)) {}
  /// Growth bound: an insert that finds its stripe holding stripeCap
  /// encodings clears the stripe first.  Clearing is memory management
  /// only, never invalidation: validation is a pure function of the entry
  /// bytes, so a dropped entry only costs one replay.
  const std::size_t stripeCap;
  struct Stripe {
    mutable std::mutex mu;
    /// nodeId -> validated entry ENCODINGS (usually exactly one).  Flat
    /// byte strings on the global heap: a probe decoded into a per-thread
    /// arena never leaks an arena pointer into the cache, and a lookup is
    /// one contiguous compare instead of a record-graph walk.
    FlatMap<std::int64_t, std::vector<std::string>> validated;
    // Guarded by mu, like the entries they count.
    std::size_t count = 0;  ///< encodings held
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t contention = 0;
    std::uint64_t evictions = 0;

    /// Requires mu held.
    [[nodiscard]] bool holds(std::int64_t nodeId,
                             std::string_view entryBytes) const {
      const auto* variants = validated.find(nodeId);
      return variants != nullptr &&
             std::find(variants->begin(), variants->end(), entryBytes) !=
                 variants->end();
    }
  };
  std::array<Stripe, kStripes> stripes;

  static std::size_t stripeOf(std::int64_t nodeId) {
    auto x = static_cast<std::uint64_t>(nodeId);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x % kStripes);
  }
};

SweepEntryCache::SweepEntryCache(std::size_t maxEntries)
    : impl_(std::make_unique<Impl>(maxEntries)) {}
SweepEntryCache::~SweepEntryCache() = default;

bool SweepEntryCache::containsValidated(std::int64_t nodeId,
                                        std::string_view entryBytes) const {
  Impl::Stripe& s = impl_->stripes[Impl::stripeOf(nodeId)];
  // try_lock first purely to MEASURE contention; the probe then waits like
  // any lock_guard would.
  std::unique_lock<std::mutex> lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock.lock();
    ++s.contention;
  }
  const bool hit = s.holds(nodeId, entryBytes);
  ++(hit ? s.hits : s.misses);
  return hit;
}

void SweepEntryCache::markValidated(std::int64_t nodeId,
                                    std::string_view entryBytes) {
  Impl::Stripe& s = impl_->stripes[Impl::stripeOf(nodeId)];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.holds(nodeId, entryBytes)) return;  // raced: already recorded
  if (s.count >= impl_->stripeCap) {
    s.evictions += s.count;
    s.validated.clear();
    s.count = 0;
  }
  s.validated.tryEmplace(nodeId, {}).first->emplace_back(entryBytes);
  ++s.count;
}

std::size_t SweepEntryCache::size() const { return stats().entries; }

SweepCacheStats SweepEntryCache::stats() const {
  SweepCacheStats out;
  for (const Impl::Stripe& s : impl_->stripes) {
    std::lock_guard<std::mutex> lock(s.mu);
    out.hits += s.hits;
    out.misses += s.misses;
    out.stripeContention += s.contention;
    out.evictions += s.evictions;
    out.entries += s.count;
  }
  return out;
}

namespace {

constexpr std::uint8_t kTypeV = 0;
constexpr std::uint8_t kTypeE = 1;
constexpr std::uint8_t kTypeP = 2;
constexpr std::uint8_t kTypeB = 3;
constexpr std::uint8_t kTypeT = 4;

/// Reject helper: checks are expressed as `require(cond)`.
void require(bool cond) {
  if (!cond) throw DecodeError{};
}

/// Equality across allocator boundaries: recomputed NodeData fields are
/// plain heap containers, certificate record fields are pmr (arena-backed
/// on the decode path) — different types to the language, same bytes here.
bool sameBytes(const std::string& a, const std::pmr::string& b) {
  return std::string_view(a) == std::string_view(b);
}
template <typename T, typename A1, typename A2>
bool sameSeq(const std::vector<T, A1>& a, const std::vector<T, A2>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Per-vertex verification context.  The LaneAlgebra and the sweep cache
/// are shared across all vertices (and threads) of a sweep; the algebra is
/// stateless beyond the property, the cache locks internally.
class Checker {
 public:
  Checker(const LaneAlgebra& alg, const CoreVerifierParams& params,
          const EdgeView& view, VerifierScratch& scratch,
          SweepEntryCache& sweepCache)
      : alg_(alg),
        params_(params),
        view_(view),
        s_(scratch),
        sweepCache_(sweepCache) {
    s_.reset();
  }

  bool run();

 private:
  void validateSummaryCommon(const SummaryRec& s) const;
  void validateEntry(const ChainEntry& e);
  void validateEntryPure(const ChainEntry& e) const;
  void validateCert(const EdgeCert& cert, bool isVirtual);
  void reconstructVirtualEdges(const std::vector<EdgeLabelView>& labels);
  void recordNodeSummary(const SummaryRec& s);
  void recordTmSummary(const SummaryRec& s);
  void topologyChecks();

  const LaneAlgebra& alg_;
  const CoreVerifierParams& params_;
  const EdgeView& view_;
  VerifierScratch& s_;
  SweepEntryCache& sweepCache_;

  bool bridgeConflict_ = false;   ///< two chain parts entered one B-node
  std::int64_t rootTNode_ = -1;
  std::int64_t rootChildNode_ = -1;
  const ChainEntry* rootEntry_ = nullptr;
};

void Checker::validateSummaryCommon(const SummaryRec& s) const {
  require(!s.lanes.empty());
  for (int lane : s.lanes) {
    require(lane >= 0 && lane < params_.maxLanes);
  }
}

void Checker::recordNodeSummary(const SummaryRec& s) {
  validateSummaryCommon(s);
  const auto [slot, inserted] = s_.nodeSum.tryEmplace(s.nodeId, &s);
  if (!inserted) require(**slot == s);
}

void Checker::recordTmSummary(const SummaryRec& s) {
  validateSummaryCommon(s);
  const auto [slot, inserted] = s_.tmSum.tryEmplace(s.nodeId, &s);
  if (!inserted) require(**slot == s);
}

/// The vertex-independent half of entry validation: shape constraints plus
/// the Prop 6.1 algebra replay.  A deterministic pure function of the entry
/// bytes, the algebra, and the params — nothing here may read view_ or the
/// per-vertex cross-certificate maps, which is what makes results safely
/// shareable through the sweep cache.  (laneScratch is borrowed as a plain
/// reusable buffer; it carries no state across calls.)
void Checker::validateEntryPure(const ChainEntry& e) const {
  switch (e.kind) {
    case ChainEntry::Kind::kBaseE: {
      require(e.self.type == kTypeE);
      require(e.self.lanes.size() == 1);
      const int lane = e.self.lanes[0];
      const NodeData d = alg_.baseE(lane, e.self.inTerm.at(lane),
                                    e.self.outTerm.at(lane), e.eReal);
      require(sameBytes(d.state.encoding(), e.self.stateBytes));
      require(sameSeq(d.slots, e.self.slotOrder));
      break;
    }
    case ChainEntry::Kind::kBaseP: {
      require(e.self.type == kTypeP);
      // SoA id lane reused across entries (like laneScratch): the baseP
      // replay is the hottest fold, and a per-entry vector allocation here
      // was the last steady-state allocation on the validate path.
      std::vector<std::uint64_t>& pathIds = s_.foldIds;
      pathIds.clear();
      for (int lane : e.self.lanes) {
        const std::uint64_t id = e.self.inTerm.at(lane);
        require(e.self.outTerm.at(lane) == id);
        pathIds.push_back(id);
      }
      require(e.pReal.size() + 1 == pathIds.size());
      const NodeData d = alg_.baseP(e.self.lanes, pathIds, e.pReal);
      require(sameBytes(d.state.encoding(), e.self.stateBytes));
      require(sameSeq(d.slots, e.self.slotOrder));
      break;
    }
    case ChainEntry::Kind::kBridge: {
      require(e.self.type == kTypeB);
      for (const SummaryRec* part : {&e.part0, &e.part1}) {
        require(part->type == kTypeV || part->type == kTypeT);
        if (part->type == kTypeV) {
          require(part->lanes.size() == 1);
          const int lane = part->lanes[0];
          const std::uint64_t vid = part->inTerm.at(lane);
          require(part->outTerm.at(lane) == vid);
          const NodeData d = alg_.baseV(lane, vid);
          require(sameBytes(d.state.encoding(), part->stateBytes));
          require(sameSeq(d.slots, part->slotOrder));
        }
      }
      require(std::binary_search(e.part0.lanes.begin(), e.part0.lanes.end(),
                                 e.laneI));
      require(std::binary_search(e.part1.lanes.begin(), e.part1.lanes.end(),
                                 e.laneJ));
      const NodeData d =
          alg_.bridge(alg_.fromSummary(e.part0), alg_.fromSummary(e.part1),
                      e.laneI, e.laneJ, e.bridgeReal);
      require(sameBytes(d.state.encoding(), e.self.stateBytes));
      require(sameSeq(d.slots, e.self.slotOrder));
      require(sameSeq(d.lanes, e.self.lanes));
      require(d.inTerm == e.self.inTerm);
      require(d.outTerm == e.self.outTerm);
      break;
    }
    case ChainEntry::Kind::kTree: {
      require(e.self.type == kTypeT);
      require(e.childSelf.type == kTypeE || e.childSelf.type == kTypeP ||
              e.childSelf.type == kTypeB);
      require(e.childSelf.nodeId == e.childId);
      require(!e.childSelf.lanes.empty());
      require(e.subtree.nodeId == e.childId);
      require(e.subtree.type == e.childSelf.type);
      require(e.subtree.lanes == e.childSelf.lanes);
      require(e.subtree.inTerm == e.childSelf.inTerm);
      // Tree children: nested lanes, pairwise disjoint, glued onto the
      // child's out-terminals; the fold replays the Parent-merges.
      NodeData cur = alg_.fromSummary(e.childSelf);
      int prevMinLane = -1;
      std::vector<int>& used = s_.laneScratch;
      used.clear();
      for (const SummaryRec& d : e.treeChildren) {
        require(d.type == kTypeE || d.type == kTypeP || d.type == kTypeB);
        require(!d.lanes.empty());
        require(d.lanes[0] > prevMinLane);  // sorted fold order
        prevMinLane = d.lanes[0];
        for (int lane : d.lanes) {
          used.push_back(lane);
          require(std::binary_search(e.childSelf.lanes.begin(),
                                     e.childSelf.lanes.end(), lane));
          // Gluing: the child's in-terminal IS c's out-terminal.
          require(d.inTerm.at(lane) == e.childSelf.outTerm.at(lane));
        }
        cur = alg_.parentMerge(alg_.fromSummary(d), cur);
      }
      // Sibling lane sets pairwise disjoint.
      std::sort(used.begin(), used.end());
      require(std::adjacent_find(used.begin(), used.end()) == used.end());
      require(sameBytes(cur.state.encoding(), e.subtree.stateBytes));
      require(sameSeq(cur.slots, e.subtree.slotOrder));
      require(cur.outTerm == e.subtree.outTerm);
      if (e.childIsRoot) {
        // B(X) = B(Tree-merge(T_rootchild)).
        require(e.self.lanes == e.subtree.lanes);
        require(e.self.inTerm == e.subtree.inTerm);
        require(e.self.outTerm == e.subtree.outTerm);
        require(e.self.slotOrder == e.subtree.slotOrder);
        require(e.self.stateBytes == e.subtree.stateBytes);
      }
      break;
    }
  }
}

void Checker::validateEntry(const ChainEntry& e) {
  // The memoization key of an entry is its source encoding.  Both decode
  // sites borrow the label bytes (EdgeLabelView::decode, and the payload
  // decoder in reconstructVirtualEdges), so decodeFrom always records it.
  require(!e.srcBytes.empty());
  const std::string_view bytes = e.srcBytes;
  // Per-vertex memo: a byte-identical entry that already passed at this
  // vertex needs no recomputation — only the bookkeeping side effect (tree
  // entries feed the gluing checks) is replayed.  Byte identity is finer
  // than structural equality (padded varints key separately), so the only
  // possible divergence from the old structural memo is a conservative
  // replay of checks that are idempotent by construction.
  std::vector<std::string_view>& seen =
      *s_.validatedEntries.tryEmplace(e.self.nodeId, {}).first;
  for (std::string_view p : seen) {
    if (p == bytes) {
      if (e.kind == ChainEntry::Kind::kTree) s_.allTreeEntries.push_back(&e);
      return;
    }
  }
  // Cross-certificate bookkeeping is per vertex and always replayed: every
  // summary this entry carries must agree byte-for-byte with what the other
  // certificates at this vertex claim about the same node.  (Any reject
  // below and any reject in the pure half reach the same verdict — a vertex
  // accepts iff NO check fails, so check order never matters.)
  recordNodeSummary(e.self);
  switch (e.kind) {
    case ChainEntry::Kind::kBaseE:
    case ChainEntry::Kind::kBaseP:
      break;
    case ChainEntry::Kind::kBridge:
      recordNodeSummary(e.part0);
      recordNodeSummary(e.part1);
      break;
    case ChainEntry::Kind::kTree:
      recordNodeSummary(e.childSelf);
      recordTmSummary(e.subtree);
      for (const SummaryRec& d : e.treeChildren) recordTmSummary(d);
      break;
  }
  // The pure half runs once per distinct entry per SWEEP, not per vertex:
  // upper chain entries are shared by most edges, and the sweep cache
  // remembers the (deterministic) outcome across vertices and threads.
  // Probe order: the per-vertex list above, then the striped cache, then
  // the full algebra replay.  A hit only skips recomputation whose outcome
  // is forced, so verdicts never depend on cache state.
  if (!sweepCache_.containsValidated(e.self.nodeId, bytes)) {
    validateEntryPure(e);
    sweepCache_.markValidated(e.self.nodeId, bytes);
  }
  if (e.kind == ChainEntry::Kind::kTree) s_.allTreeEntries.push_back(&e);
  seen.push_back(bytes);
}

void Checker::validateCert(const EdgeCert& cert, bool isVirtual) {
  require(cert.endA != cert.endB);
  require(cert.real == !isVirtual);
  if (!isVirtual) {
    require(cert.endA == view_.selfId || cert.endB == view_.selfId);
  }
  // Root metadata must agree across every certificate at this vertex.
  // Every REAL edge carries the root record; virtual certificates only
  // carry the root ids (their endpoints see the record on real edges).
  require(cert.hasRootEntry == !isVirtual);
  if (rootTNode_ == -1) {
    require(!isVirtual);  // own certificates are validated first
    rootTNode_ = cert.rootTNode;
    rootChildNode_ = cert.rootChildNode;
    rootEntry_ = &cert.rootEntry;
    require(cert.rootEntry.kind == ChainEntry::Kind::kTree);
    require(cert.rootEntry.self.nodeId == rootTNode_);
    require(cert.rootEntry.childId == rootChildNode_);
    require(cert.rootEntry.childIsRoot);
    validateEntry(cert.rootEntry);
    // Acceptance: the whole graph's hom class must satisfy φ.
    require(alg_.accepts(alg_.fromSummary(cert.rootEntry.self)));
  } else {
    require(cert.rootTNode == rootTNode_);
    require(cert.rootChildNode == rootChildNode_);
    if (cert.hasRootEntry) {
      // Byte-equal encodings ARE structurally equal (decode is pure), so
      // the single contiguous compare settles the common honest case; only
      // byte-distinct encodings fall back to the structural walk, which
      // must stay — padded varints may encode the SAME root entry, and
      // rejecting an honest re-encoding would change verdicts.
      require(cert.rootEntry.srcBytes == rootEntry_->srcBytes ||
              cert.rootEntry == *rootEntry_);
    }
  }

  // Chain shape: owner entry, then alternating T, B, ..., ending at root T.
  const std::size_t len = cert.chain.size();
  require(len >= 2);
  require(len <= static_cast<std::size_t>(2 * params_.maxLanes + 2));
  for (std::size_t i = 0; i < len; ++i) {
    const ChainEntry& e = cert.chain[i];
    if (i == 0) {
      require(e.kind == ChainEntry::Kind::kBaseE ||
              e.kind == ChainEntry::Kind::kBaseP ||
              e.kind == ChainEntry::Kind::kBridge);
    } else if (i % 2 == 1) {
      require(e.kind == ChainEntry::Kind::kTree);
    } else {
      require(e.kind == ChainEntry::Kind::kBridge);
    }
    validateEntry(e);
  }
  require(cert.chain.back().kind == ChainEntry::Kind::kTree);
  require(cert.chain.back().self.nodeId == rootTNode_);

  // Linkage between consecutive entries.
  for (std::size_t i = 1; i < len; ++i) {
    const ChainEntry& upper = cert.chain[i];
    const ChainEntry& lower = cert.chain[i - 1];
    if (upper.kind == ChainEntry::Kind::kTree) {
      require(upper.childId == lower.self.nodeId);
      require(upper.childSelf == lower.self);
      s_.heldChildren.tryEmplace(upper.self.nodeId, {})
          .first->insertOrAssign(upper.childId, &upper);
    } else {  // kBridge
      const bool inPart0 = lower.self.nodeId == upper.part0.nodeId;
      const bool inPart1 = lower.self.nodeId == upper.part1.nodeId;
      require(inPart0 || inPart1);
      const SummaryRec& part = inPart0 ? upper.part0 : upper.part1;
      require(part == lower.self);
      const auto [firstLower, inserted] =
          s_.bridgeLower.tryEmplace(upper.self.nodeId, lower.self.nodeId);
      if (!inserted && *firstLower != lower.self.nodeId) bridgeConflict_ = true;
    }
  }

  // Owner-entry binding to this physical/reconstructed edge.
  const ChainEntry& owner = cert.chain[0];
  const auto sameEnds = [&cert](std::uint64_t a, std::uint64_t b) {
    return (cert.endA == a && cert.endB == b) ||
           (cert.endA == b && cert.endB == a);
  };
  switch (owner.kind) {
    case ChainEntry::Kind::kBaseE: {
      const int lane = owner.self.lanes[0];
      require(sameEnds(owner.self.inTerm.at(lane), owner.self.outTerm.at(lane)));
      require(owner.eReal == cert.real);
      break;
    }
    case ChainEntry::Kind::kBaseP: {
      bool found = false;
      for (std::size_t i = 0; i + 1 < owner.self.slotOrder.size(); ++i) {
        if (sameEnds(owner.self.slotOrder[i], owner.self.slotOrder[i + 1])) {
          require(owner.pReal[i] == cert.real);
          found = true;
        }
      }
      require(found);
      break;
    }
    case ChainEntry::Kind::kBridge: {
      require(sameEnds(owner.part0.outTerm.at(owner.laneI),
                       owner.part1.outTerm.at(owner.laneJ)));
      require(owner.bridgeReal == cert.real);
      break;
    }
    default:
      require(false);
  }
}

void Checker::reconstructVirtualEdges(const std::vector<EdgeLabelView>& labels) {
  // Group PathThrough records by virtual edge (uId, vId).  Groups are
  // processed in ascending key order and, within a group, in label order,
  // so the reconstructed certificate order is deterministic.
  struct Rec {
    std::pair<std::uint64_t, std::uint64_t> key;
    const PathThroughView* p;
  };
  std::vector<Rec> recs;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seenHere;
  for (const EdgeLabelView& label : labels) {
    const std::span<const PathThroughView> through = label.through;
    if (params_.maxThrough > 0) {
      require(through.size() <= static_cast<std::size_t>(params_.maxThrough));
    }
    seenHere.clear();
    for (const PathThroughView& p : through) {
      seenHere.emplace_back(p.uId, p.vId);
      recs.push_back(Rec{{p.uId, p.vId}, &p});
    }
    // One record per virtual edge per label; labels are adversarial, so
    // this must stay O(t log t), not pairwise.
    std::sort(seenHere.begin(), seenHere.end());
    require(std::adjacent_find(seenHere.begin(), seenHere.end()) ==
            seenHere.end());
  }
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Rec& a, const Rec& b) { return a.key < b.key; });
  for (std::size_t lo = 0; lo < recs.size();) {
    std::size_t hi = lo + 1;
    while (hi < recs.size() && recs[hi].key == recs[lo].key) ++hi;
    const auto [uId, vId] = recs[lo].key;
    require(uId != vId);
    require(hi - lo <= 2);
    const PathThroughView& first = *recs[lo].p;
    require(first.fwdRank >= 1 && first.bwdRank >= 1);
    require(first.fwdRank + first.bwdRank >= 3);  // path length >= 2 edges
    if (hi - lo == 2) {
      const PathThroughView& second = *recs[lo + 1].p;
      require(second.payload == first.payload);
      require(second.fwdRank + second.bwdRank == first.fwdRank + first.bwdRank);
      const std::uint64_t a = std::min(first.fwdRank, second.fwdRank);
      const std::uint64_t b = std::max(first.fwdRank, second.fwdRank);
      require(b == a + 1);
      // An intermediate vertex of a simple path is not an endpoint.
      require(view_.selfId != uId && view_.selfId != vId);
      lo = hi;
      continue;
    }
    // Single record: this vertex must be one endpoint of the path.
    const bool atU = first.fwdRank == 1;
    const bool atV = first.bwdRank == 1;
    require(atU != atV);
    require((atU && view_.selfId == uId) || (atV && view_.selfId == vId));
    Decoder dec(std::string_view(first.payload));
    EdgeCert cert = EdgeCert::decodeFrom(dec, &s_.arena.resource());
    require(dec.atEnd());
    require((cert.endA == uId && cert.endB == vId) ||
            (cert.endA == vId && cert.endB == uId));
    s_.virtualCerts.push_back(std::move(cert));
    lo = hi;
  }
}

void Checker::topologyChecks() {
  // B-node: all chains entering it at this vertex stay in one part.
  require(!bridgeConflict_);
  // T-nodes: gluing structure of the held children.
  // Group held entries per T-node (including the root entry, which may
  // list gluings at this vertex even when no chain passes through the root
  // child — the w = 1 P-node case).  Grouped by ascending node id; entries
  // keep discovery order within a node.
  std::vector<const ChainEntry*>& grouped = s_.allTreeEntries;
  std::stable_sort(grouped.begin(), grouped.end(),
                   [](const ChainEntry* a, const ChainEntry* b) {
                     return a->self.nodeId < b->self.nodeId;
                   });
  for (std::size_t lo = 0; lo < grouped.size();) {
    const std::int64_t xId = grouped[lo]->self.nodeId;
    std::size_t hi = lo + 1;
    while (hi < grouped.size() && grouped[hi]->self.nodeId == xId) ++hi;
    const auto* held = s_.heldChildren.find(xId);
    // (a) Declared gluings at this vertex must point to held children, and
    //     they connect the held children.
    FlatMap<std::int64_t, std::int64_t> unionFind;
    auto findRep = [&unionFind](std::int64_t x) {
      while (true) {
        const std::int64_t* parent = unionFind.find(x);
        require(parent != nullptr);  // only held ids participate
        if (*parent == x) return x;
        x = *parent;
      }
    };
    if (held != nullptr) {
      for (const auto& [cid, entry] : *held) unionFind.insertOrAssign(cid, cid);
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const ChainEntry* e = grouped[i];
      std::vector<std::int64_t> group;
      if (held != nullptr && held->find(e->childId) != nullptr) {
        group.push_back(e->childId);
      }
      for (const SummaryRec& d : e->treeChildren) {
        bool gluedHere = false;
        for (const auto& [lane, id] : d.inTerm.entries) {
          if (id == view_.selfId) gluedHere = true;
        }
        if (!gluedHere) continue;
        // A declared gluing at this vertex: the child must be held here.
        require(held != nullptr && held->find(d.nodeId) != nullptr);
        group.push_back(d.nodeId);
      }
      for (std::size_t j = 1; j < group.size(); ++j) {
        const std::int64_t a = findRep(group[0]);
        const std::int64_t b = findRep(group[j]);
        if (a != b) unionFind.insertOrAssign(b, a);
      }
    }
    // (b) Held children must be pairwise glued (transitively) at this
    //     vertex — the "no neighbor outside" check.
    if (held != nullptr && !held->empty()) {
      const std::int64_t rep = findRep(held->begin()->first);
      for (const auto& [cid, entry] : *held) {
        require(findRep(cid) == rep);
      }
      // (c) Non-root children whose in-terminal is this vertex must be
      //     listed (with this gluing) by some held entry of X.
      for (const auto& [cid, entry] : *held) {
        if (entry->childIsRoot) continue;
        for (const auto& [lane, id] : entry->childSelf.inTerm.entries) {
          if (id != view_.selfId) continue;
          bool listed = false;
          for (std::size_t i = lo; i < hi; ++i) {
            for (const SummaryRec& d : grouped[i]->treeChildren) {
              if (d.nodeId == cid && d.inTerm.has(lane) &&
                  d.inTerm.at(lane) == view_.selfId) {
                listed = true;
              }
            }
          }
          require(listed);
        }
      }
    }
    lo = hi;
  }
}

bool Checker::run() {
  // Degenerate single-vertex network: decide φ(K1) directly.
  if (view_.incidentLabels.empty()) return alg_.acceptsSingleVertex();

  // One-pass decode of each incident label into scratch.
  std::vector<EdgeLabelView>& labels = s_.labels;
  labels.reserve(view_.incidentLabels.size());
  for (std::string_view bytes : view_.incidentLabels) {
    labels.push_back(EdgeLabelView::decode(bytes, s_.arena));
  }

  // Prop 2.2 pointer layer.
  std::vector<PointerRecord>& pointers = s_.pointers;
  for (const EdgeLabelView& l : labels) pointers.push_back(l.pointer);
  require(checkPointerAt(view_.selfId, pointers, std::nullopt));
  const std::uint64_t anchorId = pointers[0].rootId;

  // Own certificates (each physically incident edge must be real).
  for (const EdgeLabelView& l : labels) require(l.own.real);
  // Theorem 1 embedding reconstruction.
  reconstructVirtualEdges(labels);

  for (const EdgeLabelView& l : labels) validateCert(l.own, /*isVirtual=*/false);
  for (const EdgeCert& cert : s_.virtualCerts) {
    validateCert(cert, /*isVirtual=*/true);
  }
  topologyChecks();

  // Anchor: the pointer target must be the root child's first in-terminal.
  if (view_.selfId == anchorId) {
    const ChainEntry& root = *rootEntry_;
    const int minLane = root.childSelf.lanes[0];
    require(root.childSelf.inTerm.at(minLane) == view_.selfId);
  }
  return true;
}

}  // namespace

// --- CoreVerifierEngine ---------------------------------------------------

CoreVerifierEngine::ThreadState::ThreadState() = default;
CoreVerifierEngine::ThreadState::~ThreadState() = default;
CoreVerifierEngine::ThreadState::ThreadState(ThreadState&&) noexcept = default;
CoreVerifierEngine::ThreadState& CoreVerifierEngine::ThreadState::operator=(
    ThreadState&&) noexcept = default;

CoreVerifierEngine::CoreVerifierEngine(PropertyPtr prop,
                                       CoreVerifierParams params,
                                       std::size_t maxCacheEntries)
    : prop_(std::move(prop)),
      params_(params),
      // The algebra is built ONCE per engine (it only references the
      // property), not per vertex; it is stateless beyond the property, so
      // one engine can check many vertices concurrently.
      algebra_(std::make_shared<const LaneAlgebra>(*prop_)),
      cache_(maxCacheEntries) {}

CoreVerifierEngine::~CoreVerifierEngine() = default;

bool CoreVerifierEngine::check(const EdgeView& view, ThreadState& state) const {
  // check() never throws: a failed check, a malformed label and an
  // allocation failure in scratch setup all reject.
  try {
    if (!state.impl_) state.impl_ = std::make_unique<VerifierScratch>();
    return Checker(*algebra_, params_, view, *state.impl_, cache_).run();
  } catch (const std::exception&) {
    return false;
  }
}

std::size_t CoreVerifierEngine::sweepCacheSize() const { return cache_.size(); }

SweepCacheStats CoreVerifierEngine::cacheStats() const {
  return cache_.stats();
}

CoreVerifierParams theorem1Params(int k) {
  CoreVerifierParams p;
  // Clamp to practical limits; f/h explode combinatorially in k.
  p.maxLanes = static_cast<int>(std::min<long long>(fLanes(k + 1), 1 << 20));
  p.maxThrough = static_cast<int>(std::min<long long>(hCongestion(k + 1), 1 << 20));
  return p;
}

EdgeVerifier makeCoreVerifier(PropertyPtr prop, CoreVerifierParams params) {
  auto engine = std::make_shared<CoreVerifierEngine>(std::move(prop), params);
  return [engine = std::move(engine)](const EdgeView& view) -> bool {
    // One scratch per OS thread, shared by every verifier closure on that
    // thread (each check resets it), so concurrent sweeps stay allocation-
    // free in steady state without per-closure state.  Validations are
    // shared only through the engine's own cache, so closures multiplexed
    // over one pool never see each other's.
    static thread_local CoreVerifierEngine::ThreadState state;
    return engine->check(view, state);
  };
}

}  // namespace lanecert
