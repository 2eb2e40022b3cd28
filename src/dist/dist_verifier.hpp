#pragma once
// src/dist — single-machine multi-process verification.
//
// The scheme's verifier is strictly LOCAL (a vertex's verdict is a pure
// function of its own identifier and the multiset of labels on its incident
// edges), so verdicts compose across disjoint partitions with no shared
// state beyond the label bytes themselves.  DistVerifier exploits exactly
// that: it partitions the vertex range by the SAME deterministic shard
// order every in-process sweep uses (ParallelExecutor::shardRange(n, K, k)
// is partition k of K), forks K owner processes over one anonymous shared
// mapping, runs one sweep per process through the unmodified
// CoreVerifierEngine, and assembles the shared verdict plane in ascending
// vertex order — so the SimulationResult is BYTE-IDENTICAL to the
// single-process VerifySession at every (K, threadsPerWorker) point.
// tests/test_dist.cpp asserts that across K ∈ {1,2,4} × t ∈ {1,2,4}, on
// honest labels and on corruptions that straddle partition boundaries.
//
// Memory layout (one mmap(MAP_SHARED | MAP_ANONYMOUS) built before fork):
//
//   [ image: header + sections (dist/image.hpp, snapshot-style framing) ]
//   [ pad to 64 bytes ]
//   [ go flag: 1 byte, padded to 64 ]
//   [ verdict plane: n bytes, 1 = accept, worker k writes only its slice ]
//
// The image is written once and never mutated.  The verdict plane is
// excluded from the image CRC because workers write it concurrently — each
// byte has exactly one writer, so the merged plane is well-defined without
// synchronization.
//
// Lifecycle: each forked worker validates the image, resolves the property
// and builds the sorted label rows of its partition, then blocks on a start
// barrier — the read end of a pipe whose only write end the coordinator
// holds.  Closing that end releases every worker at once; the go flag
// (written first) tells them whether to sweep or to exit without one.
// verifyAll sets it, releases, and reaps every worker with waitpid: a
// worker killed by a signal or exiting non-zero fails the call with
// std::runtime_error, after all K are reaped, so the caller never sees a
// partial verdict plane.  The coordinator never writes to a worker, so a
// dead worker cannot raise SIGPIPE in it.
//
// Fork discipline: fork() without exec from a possibly-threaded parent.
// Only the calling thread exists in the child; glibc's malloc pthread_atfork
// handlers make heap allocation safe there, and the child touches only
// freshly built state plus the shared mapping before _exit — it never
// returns into the parent's stack or runs its atexit handlers.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/verifier.hpp"
#include "graph/graph.hpp"
#include "pls/scheme.hpp"

namespace lanecert::dist {

struct DistOptions {
  /// Partition count K (owner processes).  Clamped to >= 1.
  int workers = 4;
  /// Threads of each worker's private executor (<= 0 = hardware).
  int threadsPerWorker = 1;
};

/// Counters (snapshot via stats()).
struct DistStats {
  std::uint64_t sweeps = 0;        ///< completed sweeps (0 or 1)
  std::uint64_t workerDeaths = 0;  ///< workers reaped as killed by a signal
};

class DistVerifier {
 public:
  /// Builds the shared image (labels are READ once into the mapping, never
  /// retained) and forks the workers, which prepare their partitions and
  /// wait for verifyAll.  Throws std::invalid_argument for an unresolvable
  /// property name or a label/edge count mismatch; std::runtime_error when
  /// the OS denies the mapping, the pipe, or a fork.
  DistVerifier(const Graph& g, const IdAssignment& ids,
               const std::vector<std::string>& labels,
               const std::string& property, CoreVerifierParams params = {},
               DistOptions options = {});
  /// Releases any workers verifyAll has not (they exit without a sweep),
  /// reaps them, and unmaps the image.
  ~DistVerifier();

  DistVerifier(const DistVerifier&) = delete;
  DistVerifier& operator=(const DistVerifier&) = delete;

  /// Runs the one distributed sweep; byte-identical to
  /// VerifySession::verifyAll over the same content at every (K, threads)
  /// point.  Later calls return the same result.  Throws std::runtime_error
  /// when a worker was killed or exited non-zero (every worker is reaped
  /// first; later calls throw the same error).
  SimulationResult verifyAll();

  [[nodiscard]] int workers() const { return static_cast<int>(pids_.size()); }
  /// Pid of partition k's worker process.
  [[nodiscard]] pid_t workerPid(int k) const {
    return pids_[static_cast<std::size_t>(k)];
  }
  /// Owned vertex range of partition k — shardRange(n, K, k).
  [[nodiscard]] std::pair<std::size_t, std::size_t> partitionRange(
      int k) const;
  [[nodiscard]] const DistStats& stats() const { return stats_; }

 private:
  /// Sets the go flag, closes the barrier's write end, and reaps every
  /// spawned worker.  Returns the first failure ("" when all exited 0).
  std::string releaseAndReap(bool sweep);
  void unmap();
  [[nodiscard]] SimulationResult assemble() const;

  std::size_t numVertices_ = 0;
  std::size_t maxLabelBits_ = 0;
  std::size_t totalLabelBits_ = 0;

  char* map_ = nullptr;  ///< the shared mapping (image + go + verdicts)
  std::size_t mapBytes_ = 0;
  std::uint8_t* go_ = nullptr;        ///< 1 = sweep, 0 = exit without one
  std::uint8_t* verdicts_ = nullptr;  ///< n bytes inside the mapping
  int barrierFd_ = -1;                ///< write end of the start barrier

  std::vector<pid_t> pids_;  ///< partition k's worker is pids_[k]
  bool released_ = false;
  std::string failure_;  ///< why the sweep failed; empty on success
  DistStats stats_;
};

}  // namespace lanecert::dist
