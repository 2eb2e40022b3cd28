#pragma once
// The distributed verifier of the core scheme (Section 6.2 + Theorem 1).
//
// `makeCoreVerifier` returns a strictly local EdgeVerifier: a pure function
// of one vertex's identifier and the multiset of labels on its incident
// (real) edges.  It performs, per vertex:
//
//   1. Prop 2.2 pointer checks (spanning tree to the decomposition anchor).
//   2. Theorem 1 embedding checks: path records of virtual edges must form
//      consistent simple paths; endpoints reconstruct their virtual edges.
//   3. Input-flag checks: physically present edges must be certified as
//      real; reconstructed virtual edges as virtual.
//   4. Chain checks: shape (base/bridge, then alternating T/B up to the
//      root), linkage (each entry names the one below it, byte-exact), and
//      Observation 5.5's length bound.
//   5. Per-entry recomputation: base states from physical endpoints and
//      flags, Bridge-merge composition, and the Parent-merge fold of every
//      T-node entry (Lemma 6.5), all via the Prop 6.1 algebra.
//   6. Cross-certificate consistency: all records naming the same node (or
//      the same merged subtree) must agree byte-for-byte.
//   7. Gluing topology: held children of every T-node must be linked by
//      declared gluings at this vertex (the paper's "no neighbor outside"
//      checks), non-root children must be listed by a held parent entry,
//      and chains entering a B-node must stay within one part.
//   8. Root checks: all certificates agree on the root records and the
//      property accepts the root hom state; the pointer's anchor vertex
//      confirms it is the root child's first in-terminal.
//
// The checks split into two classes, and the split is what makes sweeps
// cacheable: (5) is a PURE function of one chain entry's bytes plus the
// shared algebra — the same entry validates to the same verdict at every
// vertex — while (1)-(4) and (6)-(8) depend on the vertex's view.  Upper
// chain entries (everything near the hierarchy root) are shared by most
// edges of the graph, so `SweepEntryCache` memoizes class-(5) validations
// across vertices and threads: each distinct entry replays the lane algebra
// ONCE per sweep instead of once per vertex.  Cache hits can only skip
// recomputation whose outcome is forced (entry identity is full structural
// equality, and validation is deterministic), so verdicts are byte-for-byte
// independent of cache state, thread count, and sweep order.
//
// `CoreVerifierEngine` is the shareable heart of the verifier: the property
// algebra (built once), the verifier params, and the sweep cache.  One
// engine can check many vertices concurrently; each concurrent caller
// supplies its own `ThreadState` (the per-thread decode arena + flat
// scratch containers).  `makeCoreVerifier` wraps an engine and a
// thread_local state into the classic EdgeVerifier closure; `VerifySession`
// (core/verify_session.hpp) owns an engine plus per-shard states to make
// sweeps resumable.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "mso/property.hpp"
#include "pls/scheme.hpp"

namespace lanecert {

class LaneAlgebra;
struct ChainEntry;
struct VerifierScratch;

/// Verifier-side parameters (the constants of Theorem 1 for the target
/// pathwidth bound).
struct CoreVerifierParams {
  /// Upper bound on lane indices; certifies lanewidth < maxLanes and hence
  /// pathwidth <= maxLanes - 1 of the completion.  Chains longer than
  /// 2 * maxLanes + 2 entries are rejected (Observation 5.5).
  int maxLanes = 64;
  /// Max embedding paths through one edge (0 = unlimited); h(k+1) bounds
  /// honest labelings.
  int maxThrough = 0;
};

/// Monotonic counters of the sweep cache (diagnostics).
struct SweepCacheStats {
  std::uint64_t hits = 0;       ///< probes that found the encoding
  std::uint64_t misses = 0;     ///< probes that did not
  /// Always 0: no memo sits in front of the cache.  Kept only because
  /// lcbench reads it; the benchmark-contract change (ROADMAP.md item 4)
  /// removes it together with those reads.
  std::uint64_t memoHits = 0;
  /// Stripe-lock acquisitions that found the lock held (try_lock failed
  /// and the probe had to wait).
  std::uint64_t stripeContention = 0;
  /// Encodings dropped because an insert found its stripe full (a nonzero
  /// value means the cache hit its growth bound and is recycling, not an
  /// error).
  std::uint64_t evictions = 0;
  std::size_t entries = 0;      ///< distinct validated encodings held
};

/// Sweep-level memo of chain entries whose pure (vertex-independent)
/// validation already passed.  Keyed by ENTRY ENCODING — decodeFrom is a
/// pure function of the bytes, so byte-equal encodings are structurally
/// equal entries and validate to the same (deterministic) verdict; a hit
/// can never conflate two entries that differ in any decoded field.
/// Non-canonical encodings of the same entry (padded varints) key
/// separately, which only ever costs a conservative re-validation.
/// Storing one contiguous byte string per entry also makes a lookup one
/// byte compare instead of a record-graph walk, and an insert a flat copy
/// instead of a deep pmr clone.  Thread-safe: lookups and inserts take a
/// stripe lock hashed on the entry's node id; stored strings live on the
/// global heap, so they outlive the per-thread decode arenas the probes
/// point into.  Entries stay valid for the lifetime of the algebra/params
/// they were validated under (the owning engine never changes either),
/// which is why a session can keep its cache warm across re-verification
/// sweeps.
class SweepEntryCache {
 public:
  /// The cap of a `makeCoreVerifier` closure's cache.  A single labeling at
  /// n = 4096 produces ~18k distinct entries, so it leaves headroom there;
  /// long-lived closures cycling through many labelings (soak runs,
  /// soundness benches) recycle instead of growing.
  static constexpr std::size_t kDefaultMaxEntries = std::size_t{1} << 16;

  /// Bounds the cache at `maxEntries` encodings: each of the 16 stripes
  /// holds at most its share, maxEntries / 16 (at least one).
  explicit SweepEntryCache(std::size_t maxEntries = kDefaultMaxEntries);
  ~SweepEntryCache();

  SweepEntryCache(const SweepEntryCache&) = delete;
  SweepEntryCache& operator=(const SweepEntryCache&) = delete;

  /// True if an entry with this exact encoding already passed validation
  /// for node `nodeId`.  Counts a hit or miss, and counts stripe
  /// contention when the stripe lock was held by another thread.
  [[nodiscard]] bool containsValidated(std::int64_t nodeId,
                                       std::string_view entryBytes) const;
  /// Records an encoding as validated (flat copy; a no-op if present).  An
  /// insert that finds its stripe full clears the stripe first instead of
  /// growing without bound — pure memory management, never invalidation,
  /// so verdicts are unaffected.
  void markValidated(std::int64_t nodeId, std::string_view entryBytes);
  /// Number of distinct validated encodings held.
  [[nodiscard]] std::size_t size() const;
  /// Counters + entry count, summed over the stripes, each read under its
  /// lock.
  [[nodiscard]] SweepCacheStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The shareable core of the verifier: property + algebra + params + sweep
/// cache.  Immutable after construction except for the (internally locked)
/// cache, so any number of threads may call `check` concurrently as long as
/// each passes its own ThreadState.
class CoreVerifierEngine {
 public:
  /// `maxCacheEntries` bounds the sweep cache (see SweepEntryCache).
  explicit CoreVerifierEngine(
      PropertyPtr prop, CoreVerifierParams params = {},
      std::size_t maxCacheEntries = SweepEntryCache::kDefaultMaxEntries);
  ~CoreVerifierEngine();

  CoreVerifierEngine(const CoreVerifierEngine&) = delete;
  CoreVerifierEngine& operator=(const CoreVerifierEngine&) = delete;

  /// Per-thread reusable verifier state: the decode arena plus the flat
  /// cross-certificate containers.  Allocated lazily on first use; reset
  /// per vertex, so steady-state checks stop allocating.  Nothing in it
  /// outlives one check, so engines may share a state.
  class ThreadState {
   public:
    ThreadState();
    ~ThreadState();
    ThreadState(ThreadState&&) noexcept;
    ThreadState& operator=(ThreadState&&) noexcept;

   private:
    friend class CoreVerifierEngine;
    std::unique_ptr<VerifierScratch> impl_;
  };

  /// One vertex's local check; never throws (malformed labels reject).
  /// Safe to call concurrently with DISTINCT states.
  [[nodiscard]] bool check(const EdgeView& view, ThreadState& state) const;

  [[nodiscard]] const CoreVerifierParams& params() const { return params_; }
  /// Distinct entries validated so far (diagnostics / tests).
  [[nodiscard]] std::size_t sweepCacheSize() const;
  [[nodiscard]] SweepCacheStats cacheStats() const;

 private:
  PropertyPtr prop_;
  CoreVerifierParams params_;
  std::shared_ptr<const LaneAlgebra> algebra_;
  mutable SweepEntryCache cache_;
};

/// Builds the local verifier for `prop`: a thin closure over a shared
/// CoreVerifierEngine and a thread_local ThreadState.  The engine's sweep
/// cache persists for the closure's lifetime — sound, because cached
/// validations are pure functions of entry bytes, so reuse across sweeps
/// (or across labelings) can never change a verdict.
[[nodiscard]] EdgeVerifier makeCoreVerifier(PropertyPtr prop,
                                            CoreVerifierParams params = {});

/// The exact constants of Theorem 1 for certifying φ ∧ (pathwidth <= k):
/// maxLanes = f(k+1) (Prop 4.6 lane bound for width-(k+1) representations)
/// and maxThrough = h(k+1) (the completion embedding congestion).  Honest
/// labelings of pathwidth-<=k graphs always pass; any accepted labeling
/// certifies that the real edges embed in a graph of lanewidth <= f(k+1).
[[nodiscard]] CoreVerifierParams theorem1Params(int k);

}  // namespace lanecert
