#include "core/prover.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/algebra.hpp"
#include "core/records.hpp"
#include "graph/algorithms.hpp"
#include "klane/hierarchy.hpp"
#include "lane/embedding.hpp"
#include "lanewidth/lanewidth.hpp"
#include "pathwidth/pathwidth.hpp"
#include "pls/pointer.hpp"
#include "runtime/arena.hpp"
#include "runtime/executor.hpp"

namespace lanecert {

namespace {

/// Per-shard scratch of the parallel prover: a bump arena for fold
/// orderings and path buffers plus a reusable chain-reference list.  One
/// instance per executor shard slot, so shards never share mutable state.
struct ProverScratch {
  Arena arena;
  std::vector<std::string_view> chain;
};

/// Writes a SummaryRec encoding straight from a NodeData — byte-identical
/// to filling a SummaryRec from `d` and calling encodeTo(enc), without
/// materializing the record (no vector/string copies on the hot path).
void encodeSummary(Encoder& enc, const NodeData& d, std::int64_t nodeId,
                   std::uint8_t type) {
  enc.i64(nodeId);
  enc.u64(type);
  enc.u64(d.lanes.size());
  for (int l : d.lanes) enc.u64(static_cast<std::uint64_t>(l));
  d.inTerm.encodeTo(enc);
  d.outTerm.encodeTo(enc);
  enc.u64(d.slots.size());
  for (std::uint64_t v : d.slots) enc.u64(v);
  enc.bytes(d.state.encoding());
}

/// Builds every NodeData / record needed for the certificates.
///
/// Phase 1 (computeStates): level-synchronous waves over the hierarchy DAG
/// — a node's hom state depends only on its children's, so all nodes of
/// one bottom-up wave run in parallel through the deterministic shard
/// executor, and every NodeData is the same pure function of its children
/// whatever the thread count.  Subtree-merged data TM(T_child) lives in
/// flat CSR storage indexed by (T-node, child position); fold orderings
/// come from a per-shard arena.
///
/// Phase 2 (encodeEntries): each hierarchy node's chain-entry record is a
/// pure function of the computed states, shared verbatim by every edge
/// whose chain passes through the node — so it is encoded ONCE (in
/// parallel) and certificates later splice the cached bytes.
class CertBuilder {
 public:
  CertBuilder(const Graph& g, const IdAssignment& ids, const Property& prop,
              const Hierarchy& hier, ParallelExecutor& exec,
              std::vector<ProverScratch>& scratch)
      : g_(g), ids_(ids), alg_(prop), exec_(exec), scratch_(scratch),
        nodes_(hier.nodes().data()),
        nodeCount_(hier.nodes().size()),
        rootId_(hier.root()) {}

  /// Computes hom data bottom-up; returns the root NodeData.
  const NodeData& computeStates();

  /// Encodes the per-node owner entries and per-(T, pos) tree entries.
  void encodeEntries();

  /// Appends the full EdgeCert encoding of a completion edge owned by
  /// hierarchy node `ownerNode` (splices cached entry bytes bottom-up).
  void encodeCert(Encoder& enc, bool real, std::uint64_t endA,
                  std::uint64_t endB, int ownerNode,
                  ProverScratch& scratch) const;

  [[nodiscard]] bool accepts(const NodeData& d) const { return alg_.accepts(d); }
  [[nodiscard]] const NodeData& data(int nodeId) const {
    return nodeData_[static_cast<std::size_t>(nodeId)];
  }
  [[nodiscard]] std::string_view rootEntryBytes() const {
    const HierNode& root = node(rootId_);
    return treeBytes_[tmIndex(rootId_, root.rootChildPos)];
  }

 private:
  [[nodiscard]] const HierNode& node(int id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t tmIndex(int tId, int pos) const {
    return tmOffset_[static_cast<std::size_t>(tId)] +
           static_cast<std::size_t>(pos);
  }
  [[nodiscard]] std::span<const int> kidsOf(std::size_t tmSlot) const {
    return std::span<const int>(kids_).subspan(
        kidsOffset_[tmSlot], kidsOffset_[tmSlot + 1] - kidsOffset_[tmSlot]);
  }
  [[nodiscard]] bool edgeIsReal(VertexId u, VertexId v) const {
    return g_.hasEdge(u, v);
  }
  [[nodiscard]] std::uint64_t id(VertexId v) const { return ids_.id(v); }

  /// Lays out the TM-slot CSR, posInParent_, and every node's bottom-up
  /// wave in one ascending-id pass (children precede parents).
  void buildLayout();
  /// Runs the bottom-up waves (children first; a wave below kInlineWave
  /// nodes runs inline instead of paying a fork-join).
  void runWaves();
  void computeNode(int nid, ProverScratch& scratch);
  void encodeOwnerEntry(Encoder& enc, int nid) const;
  void encodeTreeEntry(Encoder& enc, int tId, int pos) const;

  const Graph& g_;
  const IdAssignment& ids_;
  LaneAlgebra alg_;
  ParallelExecutor& exec_;
  std::vector<ProverScratch>& scratch_;

  const HierNode* nodes_ = nullptr;
  std::size_t nodeCount_ = 0;
  int rootId_ = -1;

  std::vector<NodeData> nodeData_;
  /// Subtree-merged data TM(T_child), CSR per T-node: slot tmOffset_[t] + pos.
  std::vector<std::size_t> tmOffset_;  ///< size() + 1 offsets; non-T rows empty
  std::vector<NodeData> tmData_;
  /// Tree-merge child positions per TM slot, sorted by the child's smallest
  /// lane (the deterministic fold order), CSR over TM slots.
  std::vector<std::size_t> kidsOffset_;
  std::vector<int> kids_;
  /// Position of a node inside its T-node parent's children array, or -1.
  std::vector<int> posInParent_;
  /// Bottom-up wave index per node (leaves 0, parents max(child) + 1).
  std::vector<int> waveOf_;

  std::vector<std::string> ownerBytes_;  ///< per node: encoded owner entry (E/P/B)
  std::vector<std::string> treeBytes_;   ///< per TM slot: encoded T entry

  /// Waves below this size run inline on the driving thread — the narrow
  /// top waves of a hierarchy are cheaper to compute than to fan out, and
  /// the choice cannot change any output byte.
  static constexpr std::size_t kInlineWave = 32;
};

void CertBuilder::buildLayout() {
  tmOffset_.assign(1, 0);
  kidsOffset_.assign(1, 0);
  posInParent_.assign(nodeCount_, -1);
  waveOf_.assign(nodeCount_, 0);
  nodeData_.resize(nodeCount_);
  std::vector<std::vector<int>> kidBuckets;
  for (std::size_t nid = 0; nid < nodeCount_; ++nid) {
    const HierNode& n = node(static_cast<int>(nid));
    int w = 0;
    for (int c : n.children) {
      // Guards caller-supplied plans: the wave schedule (and every CSR
      // lookup below) assumes children precede parents in id order.
      if (c < 0 || static_cast<std::size_t>(c) >= nid) {
        throw std::logic_error("CertBuilder: node ids are not topological");
      }
      w = std::max(w, waveOf_[static_cast<std::size_t>(c)] + 1);
    }
    waveOf_[nid] = w;
    const bool isT = n.type == HierNode::Type::kT;
    tmOffset_.push_back(tmOffset_.back() + (isT ? n.children.size() : 0));
    if (!isT) continue;
    const std::size_t cn = n.children.size();
    for (std::size_t p = 0; p < cn; ++p) {
      posInParent_[static_cast<std::size_t>(n.children[p])] =
          static_cast<int>(p);
    }
    // Tree-merge kids per TM slot, sorted by the child's smallest lane
    // (lane sets of siblings are disjoint, so the key is unique and the
    // order deterministic).
    if (kidBuckets.size() < cn) kidBuckets.resize(cn);
    for (std::size_t p = 0; p < cn; ++p) kidBuckets[p].clear();
    for (std::size_t q = 0; q < cn; ++q) {
      const int tp = n.treeParentPos[q];
      if (tp >= 0) {
        kidBuckets[static_cast<std::size_t>(tp)].push_back(
            static_cast<int>(q));
      }
    }
    for (std::size_t p = 0; p < cn; ++p) {
      std::vector<int>& bucket = kidBuckets[p];
      std::sort(bucket.begin(), bucket.end(), [&n, this](int a, int b) {
        return node(n.children[static_cast<std::size_t>(a)]).lanes[0] <
               node(n.children[static_cast<std::size_t>(b)]).lanes[0];
      });
      kids_.insert(kids_.end(), bucket.begin(), bucket.end());
      kidsOffset_.push_back(kids_.size());
    }
  }
  tmData_.resize(tmOffset_.back());
  treeBytes_.resize(tmOffset_.back());
}

void CertBuilder::computeNode(int nid, ProverScratch& s) {
  const HierNode& n = node(nid);
  NodeData& d = nodeData_[static_cast<std::size_t>(nid)];
  s.arena.reset();
  switch (n.type) {
    case HierNode::Type::kV:
      d = alg_.baseV(n.lanes[0], id(n.u));
      break;
    case HierNode::Type::kE:
      d = alg_.baseE(n.laneI, id(n.u), id(n.v), edgeIsReal(n.u, n.v));
      break;
    case HierNode::Type::kP: {
      const std::size_t len = n.pathVertices.size();
      const std::span<std::uint64_t> pathIds = s.arena.allocSpan<std::uint64_t>(len);
      for (std::size_t i = 0; i < len; ++i) pathIds[i] = id(n.pathVertices[i]);
      const std::span<std::uint8_t> flags =
          s.arena.allocSpan<std::uint8_t>(len - 1);
      for (std::size_t i = 0; i + 1 < len; ++i) {
        flags[i] = edgeIsReal(n.pathVertices[i], n.pathVertices[i + 1]) ? 1 : 0;
      }
      d = alg_.baseP(n.lanes, pathIds, flags);
      break;
    }
    case HierNode::Type::kB:
      d = alg_.bridge(data(n.children[0]), data(n.children[1]), n.laneI,
                      n.laneJ, edgeIsReal(n.u, n.v));
      break;
    case HierNode::Type::kT: {
      // Tree children positions, processed leaves-first (tree children
      // always have larger node ids than their tree parents).
      const std::size_t cn = n.children.size();
      const std::span<int> order = s.arena.allocSpan<int>(cn);
      for (std::size_t p = 0; p < cn; ++p) order[p] = static_cast<int>(p);
      std::sort(order.begin(), order.end(), [&n](int a, int b) {
        return n.children[static_cast<std::size_t>(a)] >
               n.children[static_cast<std::size_t>(b)];
      });
      for (int pos : order) {
        NodeData cur = data(n.children[static_cast<std::size_t>(pos)]);
        // Deterministic fold order: tree children by smallest lane (the
        // precomputed CSR segment is already sorted that way).
        for (int q : kidsOf(tmIndex(nid, pos))) {
          cur = alg_.parentMerge(tmData_[tmIndex(nid, q)], cur);
        }
        tmData_[tmIndex(nid, pos)] = std::move(cur);
      }
      d = tmData_[tmIndex(nid, n.rootChildPos)];
      break;
    }
  }
}

void CertBuilder::runWaves() {
  int maxWave = 0;
  for (const int w : waveOf_) maxWave = std::max(maxWave, w);
  std::vector<std::vector<int>> waves(static_cast<std::size_t>(maxWave) + 1);
  for (std::size_t i = 0; i < nodeCount_; ++i) {
    waves[static_cast<std::size_t>(waveOf_[i])].push_back(static_cast<int>(i));
  }
  for (const std::vector<int>& wave : waves) {
    if (wave.size() < kInlineWave || exec_.numThreads() <= 1) {
      for (int nid : wave) computeNode(nid, scratch_[0]);
    } else {
      exec_.forShards(wave.size(), [&](std::size_t shard, std::size_t b,
                                       std::size_t e) {
        ProverScratch& s = scratch_[shard];
        for (std::size_t i = b; i < e; ++i) computeNode(wave[i], s);
      });
    }
  }
}

const NodeData& CertBuilder::computeStates() {
  buildLayout();
  runWaves();
  return data(rootId_);
}

void CertBuilder::encodeOwnerEntry(Encoder& enc, int nid) const {
  const HierNode& n = node(nid);
  const NodeData& d = data(nid);
  switch (n.type) {
    case HierNode::Type::kE:
      enc.u64(static_cast<std::uint64_t>(ChainEntry::Kind::kBaseE));
      encodeSummary(enc, d, nid, static_cast<std::uint8_t>(n.type));
      enc.boolean(edgeIsReal(n.u, n.v));
      break;
    case HierNode::Type::kP:
      enc.u64(static_cast<std::uint64_t>(ChainEntry::Kind::kBaseP));
      encodeSummary(enc, d, nid, static_cast<std::uint8_t>(n.type));
      enc.u64(n.pathVertices.size() - 1);
      for (std::size_t i = 0; i + 1 < n.pathVertices.size(); ++i) {
        enc.boolean(edgeIsReal(n.pathVertices[i], n.pathVertices[i + 1]));
      }
      break;
    case HierNode::Type::kB: {
      enc.u64(static_cast<std::uint64_t>(ChainEntry::Kind::kBridge));
      encodeSummary(enc, d, nid, static_cast<std::uint8_t>(n.type));
      enc.u64(static_cast<std::uint64_t>(n.laneI));
      enc.u64(static_cast<std::uint64_t>(n.laneJ));
      enc.boolean(edgeIsReal(n.u, n.v));
      for (int part : {n.children[0], n.children[1]}) {
        encodeSummary(enc, data(part), part,
                      static_cast<std::uint8_t>(node(part).type));
      }
      break;
    }
    default:
      throw std::logic_error("encodeOwnerEntry: V/T nodes own no edges");
  }
}

void CertBuilder::encodeTreeEntry(Encoder& enc, int tId, int pos) const {
  const HierNode& t = node(tId);
  const int childId = t.children[static_cast<std::size_t>(pos)];
  const auto childType = static_cast<std::uint8_t>(node(childId).type);
  enc.u64(static_cast<std::uint64_t>(ChainEntry::Kind::kTree));
  encodeSummary(enc, data(tId), tId, static_cast<std::uint8_t>(t.type));
  enc.i64(childId);
  enc.boolean(pos == t.rootChildPos);
  encodeSummary(enc, data(childId), childId, childType);
  encodeSummary(enc, tmData_[tmIndex(tId, pos)], childId, childType);
  const std::span<const int> kids = kidsOf(tmIndex(tId, pos));
  enc.u64(kids.size());
  for (int q : kids) {
    const int kidId = t.children[static_cast<std::size_t>(q)];
    encodeSummary(enc, tmData_[tmIndex(tId, q)], kidId,
                  static_cast<std::uint8_t>(node(kidId).type));
  }
}

void CertBuilder::encodeEntries() {
  const std::size_t n = nodeCount_;
  ownerBytes_.resize(n);
  exec_.forShards(n, [&](std::size_t, std::size_t lo, std::size_t hi) {
    Encoder enc;
    for (std::size_t nid = lo; nid < hi; ++nid) {
      const HierNode& hnode = node(static_cast<int>(nid));
      switch (hnode.type) {
        case HierNode::Type::kV:
          break;  // V nodes appear only as bridge parts, never as entries
        case HierNode::Type::kT:
          for (std::size_t p = 0; p < hnode.children.size(); ++p) {
            encodeTreeEntry(enc, static_cast<int>(nid), static_cast<int>(p));
            treeBytes_[tmIndex(static_cast<int>(nid), static_cast<int>(p))] =
                enc.take();
          }
          break;
        default:
          encodeOwnerEntry(enc, static_cast<int>(nid));
          ownerBytes_[nid] = enc.take();
          break;
      }
    }
  });
}

void CertBuilder::encodeCert(Encoder& enc, bool real, std::uint64_t endA,
                             std::uint64_t endB, int ownerNode,
                             ProverScratch& s) const {
  const int rootId = rootId_;
  const HierNode& rootNode = node(rootId);
  const std::int64_t rootChildId =
      rootNode.children[static_cast<std::size_t>(rootNode.rootChildPos)];

  // Chain of cached entry encodings, owner first, root T-node last.  An
  // empty encoding means a V/T node ended up where only E/P/B entries are
  // legal — an internal hierarchy bug that must fail fast in the prover,
  // never ship as a corrupt certificate.
  const auto pushEntry = [&s](std::string_view bytes) {
    if (bytes.empty()) {
      throw std::logic_error("encodeCert: V/T node on an owner chain");
    }
    s.chain.push_back(bytes);
  };
  std::vector<std::string_view>& chain = s.chain;
  chain.clear();
  int cur = ownerNode;
  pushEntry(ownerBytes_[static_cast<std::size_t>(cur)]);
  while (node(cur).parent != -1) {
    const int parent = node(cur).parent;
    if (node(parent).type == HierNode::Type::kT) {
      pushEntry(treeBytes_[tmIndex(
          parent, posInParent_[static_cast<std::size_t>(cur)])]);
    } else {
      pushEntry(ownerBytes_[static_cast<std::size_t>(parent)]);
    }
    cur = parent;
  }

  const std::string_view rootEntry = rootEntryBytes();
  std::size_t total = 64 + (real ? rootEntry.size() : 0);
  for (std::string_view e : chain) total += e.size();
  enc.reserve(enc.str().size() + total);

  enc.boolean(real);
  enc.u64(endA);
  enc.u64(endB);
  enc.i64(rootId);
  enc.i64(rootChildId);
  // Only real edges ship the (large) root record; virtual-edge payloads
  // rely on their endpoints' real edges for it.
  enc.boolean(real);
  if (real) enc.raw(rootEntry);
  enc.u64(chain.size());
  for (std::string_view e : chain) enc.raw(e);
}

/// Prover tail: accept check, entry/cert encoding, embedding distribution,
/// pointer records, and label assembly.
CoreProveResult proveBody(const Graph& g, const IdAssignment& ids,
                          const ProvePlan& plan, CertBuilder& builder,
                          const NodeData& rootData, ParallelExecutor& exec,
                          std::vector<ProverScratch>& scratch) {
  CoreProveResult out;
  const HierarchyResult& hier = plan.hier;
  out.stats.width = plan.rep.width();
  out.stats.numLanes = plan.plan.lanes.numLanes();
  out.stats.hierarchyDepth = hier.hierarchy.depth();
  out.stats.maxCongestion = plan.plan.maxCongestion;

  if (!builder.accepts(rootData)) {
    out.propertyHolds = false;
    return out;
  }
  out.propertyHolds = true;
  builder.encodeEntries();

  // Certificates for every completion edge: each chain splices the cached
  // entry bytes, so the per-edge cost is a walk up the hierarchy plus one
  // buffer append per entry.  Shards write disjoint certBytes slots.
  const Graph& gc = hier.graph;
  std::vector<std::string> certBytes(static_cast<std::size_t>(gc.numEdges()));
  exec.forShards(
      static_cast<std::size_t>(gc.numEdges()),
      [&](std::size_t shard, std::size_t lo, std::size_t hi) {
        ProverScratch& s = scratch[shard];
        Encoder enc;
        for (std::size_t i = lo; i < hi; ++i) {
          const Edge& edge = gc.edge(static_cast<EdgeId>(i));
          builder.encodeCert(enc, g.hasEdge(edge.u, edge.v), ids.id(edge.u),
                             ids.id(edge.v),
                             hier.edgeOwner[i], s);
          certBytes[i] = enc.take();
        }
      });

  // Virtual edges: distribute the cert along the embedding path (Thm 1).
  // Payloads are views into certBytes — no copies until label assembly.
  struct ThroughRef {
    std::uint64_t uId = 0;
    std::uint64_t vId = 0;
    std::uint64_t fwdRank = 0;
    std::uint64_t bwdRank = 0;
    std::string_view payload;
  };
  std::vector<std::vector<ThroughRef>> through(
      static_cast<std::size_t>(g.numEdges()));
  for (const EmbeddedEdge& emb : plan.plan.embeddings) {
    if (g.hasEdge(emb.edge.u, emb.edge.v)) continue;  // real: no simulation
    const EdgeId gcEdge = gc.findEdge(emb.edge.u, emb.edge.v);
    if (gcEdge == kNoEdge) throw std::logic_error("proveCore: lost virtual edge");
    const std::string_view payload = certBytes[static_cast<std::size_t>(gcEdge)];
    const std::uint64_t len = emb.path.size() - 1;
    for (std::size_t i = 0; i + 1 < emb.path.size(); ++i) {
      const EdgeId realEdge = g.findEdge(emb.path[i], emb.path[i + 1]);
      through[static_cast<std::size_t>(realEdge)].push_back(
          ThroughRef{ids.id(emb.edge.u), ids.id(emb.edge.v), i + 1, len - i,
                     payload});
    }
  }

  // Prop 2.2 pointer to the anchor (first initial-path vertex: the root
  // child's in-terminal on the smallest lane).
  const std::vector<PointerRecord> pointer =
      provePointer(g, ids, plan.seq.initialPath[0]);

  // Label assembly: one encoded EdgeLabel per real edge, again sharded with
  // each shard writing disjoint label slots.
  out.labels.resize(static_cast<std::size_t>(g.numEdges()));
  exec.forShards(
      static_cast<std::size_t>(g.numEdges()),
      [&](std::size_t, std::size_t lo, std::size_t hi) {
        Encoder enc;
        for (std::size_t i = lo; i < hi; ++i) {
          const Edge& edge = g.edge(static_cast<EdgeId>(i));
          const EdgeId gcEdge = gc.findEdge(edge.u, edge.v);
          const std::string& own = certBytes[static_cast<std::size_t>(gcEdge)];
          const std::vector<ThroughRef>& thr = through[i];
          std::size_t total = own.size() + 64;
          for (const ThroughRef& t : thr) total += t.payload.size() + 48;
          enc.reserve(total);
          enc.raw(own);
          pointer[i].encodeTo(enc);
          enc.u64(thr.size());
          for (const ThroughRef& t : thr) {
            enc.u64(t.uId);
            enc.u64(t.vId);
            enc.u64(t.fwdRank);
            enc.u64(t.bwdRank);
            enc.bytes(t.payload);
          }
          out.labels[i] = enc.take();
        }
      });
  for (const std::string& l : out.labels) {
    out.stats.maxLabelBits = std::max(out.stats.maxLabelBits, l.size() * 8);
    out.stats.totalLabelBits += l.size() * 8;
  }
  return out;
}

}  // namespace

ProvePlan buildProvePlan(const Graph& g, const IntervalRepresentation* rep,
                         ParallelExecutor* /*unused*/) {
  // Checked up front: the lane plan would reject a disconnected graph too,
  // but only after the whole interval decomposition has run.
  if (!isConnected(g)) {
    throw std::invalid_argument("buildProvePlan: graph must be connected");
  }
  IntervalRepresentation r =
      rep != nullptr ? *rep : bestIntervalRepresentation(g, 18);
  LanePlan plan = buildLanePlan(g, r);
  ConstructionSequence seq = buildConstruction(g, r, plan.lanes);
  HierarchyResult hier = buildHierarchy(seq);
  return ProvePlan{std::move(r), std::move(plan), std::move(seq),
                   std::move(hier)};
}

CoreProveResult proveCore(const Graph& g, const IdAssignment& ids,
                          const Property& prop,
                          const IntervalRepresentation* rep, int numThreads) {
  if (g.numVertices() <= 1) {
    // Degenerate single-vertex (or empty) network: no edges, no labels, no
    // plan — answered before the executor exists, so it never pays a
    // worker-pool spin-up.
    CoreProveResult out;
    out.propertyHolds = g.numVertices() == 1
                            ? LaneAlgebra(prop).acceptsSingleVertex()
                            : prop.accepts(prop.empty());
    return out;
  }
  ParallelExecutor exec(numThreads);
  const ProvePlan plan = buildProvePlan(g, rep);
  return proveCore(g, ids, prop, plan, exec);
}

CoreProveResult proveCore(const Graph& g, const IdAssignment& ids,
                          const Property& prop, const ProvePlan& plan,
                          ParallelExecutor& exec) {
  std::vector<ProverScratch> scratch(
      static_cast<std::size_t>(exec.numThreads()));
  CertBuilder builder(g, ids, prop, plan.hier.hierarchy, exec, scratch);
  const NodeData& rootData = builder.computeStates();
  return proveBody(g, ids, plan, builder, rootData, exec, scratch);
}

}  // namespace lanecert
