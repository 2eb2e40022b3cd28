#pragma once
// Certificate record formats for the core scheme (Section 6.2 + Theorem 1).
//
// Every record lives in IDENTIFIER space (the O(log n)-bit vertex ids of
// the PLS model), never in dense vertex indices: a verifier knows only ids.
//
// An edge of the completion G' carries an EdgeCert: its input flag (real
// edge of G vs completion-only), its endpoints, and the chain of "basic
// information" records B(X) for every hierarchy node X from the edge's
// owner up to the root (Observation 5.5 bounds the chain by 2w entries).
// T-node entries are self-contained Lemma 6.5 records: they carry B(X),
// B(c) for the child c the edge lies in, the subtree summary
// B(Tree-merge(T_c)), and the summaries B(Tree-merge(T_d)) of c's tree
// children, so any holder can replay the Parent-merge fold locally.
//
// Real edges of G carry an EdgeLabel: their own EdgeCert, one spanning-tree
// pointer record (Prop 2.2), and the PathThrough records of every virtual
// edge whose embedding path (Prop 4.6) uses this edge — at most h(k+1) of
// them, each with the virtual edge's full EdgeCert as payload (Theorem 1's
// simulation).

#include <cstdint>
#include <memory_resource>
#include <span>
#include <string>
#include <vector>

#include "pls/codec.hpp"
#include "pls/pointer.hpp"
#include "runtime/arena.hpp"

namespace lanecert {

// Certificate records hold their variable-length payloads in std::pmr
// containers so a decode can land entirely in a caller's bump arena: the
// verifier decodes every incident label per VERTEX, and the nested
// SummaryRec vectors/strings used to pay one heap round trip each, per
// label, per vertex.  Default-constructed records still use the global heap
// (std::pmr::get_default_resource()), so prover-side and test code is
// unaffected; only the decodeFrom(dec, mr) overloads opt in to an arena.

/// lane -> vertex-identifier mapping (terminals in id space).
struct LaneTerms {
  LaneTerms() = default;
  explicit LaneTerms(std::pmr::memory_resource* mr) : entries(mr) {}

  std::pmr::vector<std::pair<int, std::uint64_t>> entries;  ///< sorted by lane

  /// Identifier of `lane`'s terminal; throws DecodeError if absent.
  [[nodiscard]] std::uint64_t at(int lane) const;
  [[nodiscard]] bool has(int lane) const;
  void set(int lane, std::uint64_t id);

  void encodeTo(Encoder& enc) const;
  static LaneTerms decodeFrom(
      Decoder& dec,
      std::pmr::memory_resource* mr = std::pmr::get_default_resource());
  friend bool operator==(const LaneTerms&, const LaneTerms&) = default;
};

/// "Basic information" B(·) of a hierarchy node, or of a merged subtree
/// Tree-merge(T_c): lane set, terminals, the slot layout of the state, and
/// the canonical hom-state bytes.
struct SummaryRec {
  SummaryRec() = default;
  explicit SummaryRec(std::pmr::memory_resource* mr)
      : lanes(mr), inTerm(mr), outTerm(mr), slotOrder(mr), stateBytes(mr) {}

  std::int64_t nodeId = -1;
  std::uint8_t type = 0;  ///< HierNode::Type as integer
  std::pmr::vector<int> lanes;
  LaneTerms inTerm;
  LaneTerms outTerm;
  std::pmr::vector<std::uint64_t> slotOrder;  ///< state slot -> vertex id
  std::pmr::string stateBytes;                ///< canonical hom-state encoding

  void encodeTo(Encoder& enc) const;
  static SummaryRec decodeFrom(
      Decoder& dec,
      std::pmr::memory_resource* mr = std::pmr::get_default_resource());
  friend bool operator==(const SummaryRec&, const SummaryRec&) = default;
};

/// One chain entry.  `kind` selects which payload fields are meaningful.
struct ChainEntry {
  enum class Kind : std::uint8_t {
    kBaseE = 0,  ///< owner E-node
    kBaseP = 1,  ///< owner P-node
    kBridge = 2, ///< B-node (owner of its bridge edge, or intermediate)
    kTree = 3,   ///< T-node entry relative to the child the edge lies in
  };
  ChainEntry() = default;
  explicit ChainEntry(std::pmr::memory_resource* mr)
      : self(mr), pReal(mr), part0(mr), part1(mr), childSelf(mr), subtree(mr),
        treeChildren(mr) {}

  Kind kind = Kind::kBaseE;
  SummaryRec self;  ///< B(X) of this node

  // kBaseE:
  bool eReal = false;  ///< input flag of the E-node's edge
  // kBaseP: input flags of the path's w-1 edges (0/1 bytes rather than
  // std::vector<bool> so the flags can feed span-based algebra calls).
  std::pmr::vector<std::uint8_t> pReal;
  // kBridge:
  int laneI = -1;
  int laneJ = -1;
  bool bridgeReal = false;
  SummaryRec part0;  ///< B(first part): V-node or T-node
  SummaryRec part1;
  // kTree:
  std::int64_t childId = -1;
  bool childIsRoot = false;      ///< c is the Tree-merge root of X
  SummaryRec childSelf;          ///< B(c)
  SummaryRec subtree;            ///< B(Tree-merge(T_c))
  std::pmr::vector<SummaryRec> treeChildren;  ///< B(TM(T_d)) per tree child

  /// Source bytes this entry was decoded from, recorded by decodeFrom when
  /// the decoder BORROWS its buffer (the verifier's zero-copy label path);
  /// empty otherwise.  NOT serialized and NOT part of equality — it is a
  /// memoization key: byte-equal encodings decode to structurally equal
  /// entries (decodeFrom is a pure function of the bytes), so the
  /// verifier's per-vertex list and sweep cache compare this one
  /// contiguous span instead of walking the record graph.  The converse
  /// does not hold (padded varints), so byte INEQUALITY only ever causes a
  /// conservative re-validation, never a verdict change.
  std::string_view srcBytes;

  void encodeTo(Encoder& enc) const;
  static ChainEntry decodeFrom(
      Decoder& dec,
      std::pmr::memory_resource* mr = std::pmr::get_default_resource());
  /// Structural equality; encodeTo is deterministic and injective, so this
  /// agrees with comparing encodings (the verifier relies on that).
  /// srcBytes is excluded — it is provenance, not content.
  friend bool operator==(const ChainEntry& a, const ChainEntry& b) {
    return a.kind == b.kind && a.self == b.self && a.eReal == b.eReal &&
           a.pReal == b.pReal && a.laneI == b.laneI && a.laneJ == b.laneJ &&
           a.bridgeReal == b.bridgeReal && a.part0 == b.part0 &&
           a.part1 == b.part1 && a.childId == b.childId &&
           a.childIsRoot == b.childIsRoot && a.childSelf == b.childSelf &&
           a.subtree == b.subtree && a.treeChildren == b.treeChildren;
  }
};

/// Certificate of one completion edge.
struct EdgeCert {
  EdgeCert() = default;
  explicit EdgeCert(std::pmr::memory_resource* mr)
      : rootEntry(mr), chain(mr) {}

  bool real = false;           ///< input flag: edge of G vs completion-only
  std::uint64_t endA = 0;      ///< identifier of one endpoint
  std::uint64_t endB = 0;
  std::int64_t rootTNode = -1;     ///< hierarchy root (outer T-node)
  std::int64_t rootChildNode = -1; ///< Tree-merge root child of the root
  bool hasRootEntry = false;       ///< virtual-edge certs omit the root record
  ChainEntry rootEntry;            ///< self-contained (rootTNode, rootChild) record
  std::pmr::vector<ChainEntry> chain;  ///< bottom-up, owner first, root T last

  void encodeTo(Encoder& enc) const;
  static EdgeCert decodeFrom(
      Decoder& dec,
      std::pmr::memory_resource* mr = std::pmr::get_default_resource());
  [[nodiscard]] std::string encoded() const;
};

/// One virtual edge routed through a real edge (Theorem 1's simulation).
struct PathThrough {
  std::uint64_t uId = 0;      ///< virtual edge endpoint (path start)
  std::uint64_t vId = 0;      ///< virtual edge endpoint (path end)
  std::uint64_t fwdRank = 0;  ///< 1-based rank of this real edge from u
  std::uint64_t bwdRank = 0;  ///< 1-based rank from v
  std::string payload;        ///< the virtual edge's encoded EdgeCert

  void encodeTo(Encoder& enc) const;
  static PathThrough decodeFrom(Decoder& dec);
};

/// The full label of one real edge of G.
struct EdgeLabel {
  EdgeCert own;
  PointerRecord pointer;
  std::vector<PathThrough> through;

  [[nodiscard]] std::string encoded() const;
  /// Decodes from a borrowed byte view (zero-copy; nested records still own
  /// their payload strings, so the result does not alias `bytes`).
  static EdgeLabel decode(std::string_view bytes);
};

/// PathThrough decoded WITHOUT copying its payload: the view borrows the
/// label bytes.  Payloads dominate label size (every virtual edge's full
/// certificate rides through h real edges), yet an endpoint only ever
/// decodes the few payloads whose path starts or ends at it — so the
/// verifier must not pay a heap copy per record per endpoint.
struct PathThroughView {
  std::uint64_t uId = 0;
  std::uint64_t vId = 0;
  std::uint64_t fwdRank = 0;
  std::uint64_t bwdRank = 0;
  std::string_view payload;  ///< borrows the decoder's buffer

  static PathThroughView decodeFrom(Decoder& dec);
};

/// Verifier-side zero-copy decode of an EdgeLabel: `through` payloads alias
/// `bytes`, which must stay alive while the view is used (the simulators'
/// label store guarantees that for the duration of a vertex check).  The
/// through array AND the decoded certificate's entire chain (every nested
/// SummaryRec vector and state string) live in the caller's bump arena — a
/// per-thread scratch arena makes repeated decodes allocation-free in
/// steady state — and are valid until that arena is reset.
struct EdgeLabelView {
  EdgeCert own;
  PointerRecord pointer;
  std::span<const PathThroughView> through;

  static EdgeLabelView decode(std::string_view bytes, Arena& arena);
};

}  // namespace lanecert
