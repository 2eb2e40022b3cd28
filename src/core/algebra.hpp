#pragma once
// The lane composition algebra of Proposition 6.1, shared by the prover and
// the verifier: hom states of k-lane graphs, keyed by an explicit boundary
// slot layout (slot -> vertex identifier), with the base constructions for
// the five node types and the two merges expressed through the primitive
// property operations (join / addEdge / identify / forget).
//
// Everything operates in identifier space and THROWS (DecodeError or
// logic_error) on any inconsistency — the verifier translates exceptions
// into rejection, the prover treats them as internal bugs.
//
// Thread safety: a LaneAlgebra holds only a const reference to its
// Property, every method is const and pure, and internal scratch is
// thread-local — one instance may run state folds concurrently from any
// number of threads (the wave-parallel prover and the sharded verifier
// both rely on this).

#include <cstdint>
#include <span>
#include <vector>

#include "core/records.hpp"
#include "mso/property.hpp"

namespace lanecert {

/// A k-lane graph summary: lanes, terminals, slot layout, hom state.
struct NodeData {
  std::vector<int> lanes;                ///< sorted, unique
  LaneTerms inTerm;
  LaneTerms outTerm;
  std::vector<std::uint64_t> slots;      ///< state slot -> vertex identifier
  HomState state;
};

/// Per-thread struct-of-arrays scratch for the fold kernels.  Earlier
/// revisions kept one ad-hoc thread_local vector per helper; the folds now
/// stage every intermediate quantity in SEPARATE contiguous lanes — vertex
/// identifiers, sort copies, gluing ids, surviving terminals — so the scans
/// walk flat u64 arrays instead of record structs.  One instance lives per
/// thread inside algebra.cpp; every lane is assign()ed before use, so no
/// state crosses calls.
struct FoldScratch {
  std::vector<std::uint64_t> ids;     ///< merged slot-id lane (parentMerge)
  std::vector<std::uint64_t> sorted;  ///< sort/distinctness lane
  std::vector<std::uint64_t> glue;    ///< gluing-id lane (parentMerge)
  std::vector<std::uint64_t> keep;    ///< surviving-terminal lane
  std::vector<std::uint64_t> terms;   ///< declared-terminal lane (fromSummary)
};

/// Composition algebra for one property.
class LaneAlgebra {
 public:
  explicit LaneAlgebra(const Property& prop) : prop_(prop) {}

  /// Single-vertex k-lane graph (V-node): one lane, in = out = v.
  [[nodiscard]] NodeData baseV(int lane, std::uint64_t vid) const;

  /// Single-edge k-lane graph (E-node): in -- out with the given input flag.
  [[nodiscard]] NodeData baseE(int lane, std::uint64_t inId, std::uint64_t outId,
                               bool real) const;

  /// Path k-lane graph (P-node): vertex i is lane lanes[i]'s terminal;
  /// realFlags[i] is the input flag of path edge (i, i+1).  Spans so that
  /// callers may pass arena-backed scratch without materializing vectors.
  [[nodiscard]] NodeData baseP(std::span<const int> lanes,
                               std::span<const std::uint64_t> pathIds,
                               std::span<const std::uint8_t> realFlags) const;

  /// Bridge-merge(a, b, laneI, laneJ) with the bridge edge's input flag.
  [[nodiscard]] NodeData bridge(const NodeData& a, const NodeData& b, int laneI,
                                int laneJ, bool real) const;

  /// Parent-merge(child, parent): glues child's in-terminals onto parent's
  /// out-terminals lane-wise and demotes vertices that stop being terminals.
  [[nodiscard]] NodeData parentMerge(const NodeData& child,
                                     const NodeData& parent) const;

  /// φ on the finished graph (remaining terminals are ordinary vertices).
  [[nodiscard]] bool accepts(const NodeData& d) const {
    return prop_.accepts(d.state);
  }
  /// φ on the single-vertex graph (the n = 1 degenerate case).
  [[nodiscard]] bool acceptsSingleVertex() const {
    return prop_.accepts(prop_.addVertex(prop_.empty()));
  }

  /// Validates and converts a certificate record (decodes the state bytes,
  /// checks canonicality, slot count, and terminal/slot agreement).
  [[nodiscard]] NodeData fromSummary(const SummaryRec& rec) const;

  [[nodiscard]] const Property& property() const { return prop_; }

 private:
  const Property& prop_;
};

}  // namespace lanecert
