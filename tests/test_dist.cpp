// Multi-process distributed verification (src/dist).
//
// The subsystem's contract is BYTE-IDENTITY: the coordinator's assembled
// SimulationResult must equal the single-process VerifySession's, field by
// field, at every (worker count, threads-per-worker) point — on honest
// labels and on corrupted payloads whose corruptions straddle partition
// boundaries.  The failure contract rides on top: a worker that dies fails
// the sweep with std::runtime_error, and every worker process is reaped
// whether or not the sweep ran.
//
// Also covered here: the shared-memory image container (framing validation
// rejects corrupted bytes before interpretation, round-trip accessors).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>

#include <cerrno>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/prover.hpp"
#include "core/verify_session.hpp"
#include "dist/dist_verifier.hpp"
#include "dist/image.hpp"
#include "graph/generators.hpp"
#include "interval/interval.hpp"
#include "mso/properties.hpp"

namespace lanecert {
namespace {

using dist::DistOptions;
using dist::DistVerifier;

// ---------------------------------------------------------------------------
// Shared-memory image container

struct ImageFixture {
  Graph g = pathGraph(6);
  IdAssignment ids = IdAssignment::random(6, 3);
  std::vector<std::string> labels{"a", "bb", "", "dddd", "e"};
  dist::ImageMeta meta;
  std::vector<char> bytes;

  ImageFixture() {
    meta.numVertices = static_cast<std::uint64_t>(g.numVertices());
    meta.numEdges = static_cast<std::uint64_t>(g.numEdges());
    meta.workers = 2;
    meta.threadsPerWorker = 1;
    meta.property = "connectivity";
    bytes.resize(dist::imageSizeBytes(g, labels, meta));
    dist::writeImage(bytes.data(), bytes.size(), g, ids, labels, meta);
  }

  [[nodiscard]] std::string_view view() const {
    return {bytes.data(), bytes.size()};
  }
};

TEST(DistImage, RoundTripsGraphIdsAndLabels) {
  ImageFixture f;
  const dist::ImageView img = dist::ImageView::open(f.view());
  EXPECT_EQ(img.meta().numVertices, 6u);
  EXPECT_EQ(img.meta().numEdges, 5u);
  EXPECT_EQ(img.meta().workers, 2u);
  EXPECT_EQ(img.meta().property, "connectivity");
  for (VertexId v = 0; v < f.g.numVertices(); ++v) {
    EXPECT_EQ(img.vertexIdOf(static_cast<std::uint64_t>(v)), f.ids.id(v));
    // The arc rows cover exactly this vertex's incident edges, in order.
    const auto arcs = f.g.arcs(v);
    const std::uint64_t begin = img.rowPtr(static_cast<std::uint64_t>(v));
    ASSERT_EQ(img.rowPtr(static_cast<std::uint64_t>(v) + 1) - begin,
              static_cast<std::uint64_t>(arcs.size()));
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      EXPECT_EQ(img.arcEdge(begin + i),
                static_cast<std::uint32_t>(arcs[i].edge));
    }
  }
  const std::vector<std::string_view> views = img.labelViews();
  ASSERT_EQ(views.size(), f.labels.size());
  for (std::size_t e = 0; e < f.labels.size(); ++e) {
    EXPECT_EQ(views[e], f.labels[e]);
    EXPECT_EQ(img.label(e), f.labels[e]);
  }
}

TEST(DistImage, OpenRejectsCorruptedBytes) {
  const ImageFixture f;
  // Bad magic.
  {
    std::vector<char> b = f.bytes;
    b[0] ^= 0x01;
    EXPECT_THROW(dist::ImageView::open({b.data(), b.size()}),
                 std::runtime_error);
  }
  // Bad format version.
  {
    std::vector<char> b = f.bytes;
    b[8] ^= 0x01;
    EXPECT_THROW(dist::ImageView::open({b.data(), b.size()}),
                 std::runtime_error);
  }
  // Any flipped payload byte must fail a CRC (or the content hash) before
  // the arrays are interpreted — flip one byte at a spread of offsets.
  const std::size_t tableEnd =
      dist::kImageHeaderBytes +
      dist::kImageSectionCount * dist::kImageSectionEntryBytes;
  for (std::size_t at = tableEnd; at < f.bytes.size();
       at += 1 + f.bytes.size() / 13) {
    std::vector<char> b = f.bytes;
    b[at] ^= 0x40;
    EXPECT_THROW(dist::ImageView::open({b.data(), b.size()}),
                 std::runtime_error)
        << "flipped byte at " << at << " was accepted";
  }
  // Truncation at any section boundary.
  EXPECT_THROW(
      dist::ImageView::open({f.bytes.data(), f.bytes.size() - 1}),
      std::runtime_error);
  EXPECT_THROW(dist::ImageView::open({f.bytes.data(), 7}),
               std::runtime_error);
}

TEST(DistImage, WriteRejectsMismatchedSizes) {
  ImageFixture f;
  std::vector<char> small(f.bytes.size() - 8);
  EXPECT_THROW(dist::writeImage(small.data(), small.size(), f.g, f.ids,
                                f.labels, f.meta),
               std::invalid_argument);
  dist::ImageMeta wrong = f.meta;
  wrong.numEdges += 1;
  EXPECT_THROW(dist::writeImage(f.bytes.data(), f.bytes.size(), f.g, f.ids,
                                f.labels, wrong),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Byte-identity with the single-process session

struct DistFixture {
  Graph g;
  IdAssignment ids;
  std::vector<std::string> labels;

  static const DistFixture& get() {
    static const DistFixture f;
    return f;
  }

 private:
  DistFixture() {
    Rng rng(7);
    BoundedPathwidthGraph bp = randomBoundedPathwidth(240, 2, 0.4, rng);
    const IntervalRepresentation rep =
        IntervalRepresentation::fromPairs(bp.intervals);
    ids = IdAssignment::random(bp.graph.numVertices(), 11);
    CoreProveResult proved =
        proveCore(bp.graph, ids, *makeConnectivity(), &rep, 1);
    EXPECT_TRUE(proved.propertyHolds);
    g = std::move(bp.graph);
    labels = std::move(proved.labels);
  }
};

void expectSame(const SimulationResult& ref, const SimulationResult& got,
                const std::string& where) {
  EXPECT_EQ(got.allAccept, ref.allAccept) << where;
  EXPECT_EQ(got.rejecting, ref.rejecting) << where;
  EXPECT_EQ(got.maxLabelBits, ref.maxLabelBits) << where;
  EXPECT_EQ(got.totalLabelBits, ref.totalLabelBits) << where;
}

/// Labels of payload `round`: byte flips on seeded edges, the same for
/// every (K, t) configuration, plus — crucially — one corrupted edge
/// straddling each partition boundary, so the vertices rejecting it belong
/// to two partitions.
std::vector<std::string> corruptedPayload(const DistFixture& f,
                                          const DistVerifier& dv, int round) {
  std::vector<std::string> labels = f.labels;
  const auto m = static_cast<std::uint64_t>(f.g.numEdges());
  std::uint64_t h = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                                round + 1);
  for (int j = 0; j < 6; ++j) {
    h ^= h << 13, h ^= h >> 7, h ^= h << 17;  // xorshift
    std::string& l = labels[static_cast<std::size_t>(h % m)];
    if ((h & 1) != 0 && !l.empty()) l[l.size() / 2] ^= 0x5a;
  }
  for (int k = 1; k < dv.workers(); ++k) {
    const std::size_t boundary = dv.partitionRange(k).first;
    for (EdgeId e = 0; e < f.g.numEdges(); ++e) {
      const Edge& eg = f.g.edge(e);
      const bool uLeft = static_cast<std::size_t>(eg.u) < boundary;
      const bool vLeft = static_cast<std::size_t>(eg.v) < boundary;
      if (uLeft != vLeft) {
        labels[static_cast<std::size_t>(e)] += "!";
        break;
      }
    }
  }
  return labels;
}

TEST(DistVerify, ByteIdenticalToSessionAcrossWorkersAndThreads) {
  const DistFixture& f = DistFixture::get();
  for (int K : {1, 2, 4}) {
    for (int t : {1, 2, 4}) {
      const std::string cfg =
          "K=" + std::to_string(K) + " t=" + std::to_string(t);
      const DistOptions opt{K, t};
      DistVerifier dv(f.g, f.ids, f.labels, "connectivity", {}, opt);
      const SimulationResult honest = dv.verifyAll();
      expectSame(VerifySession(f.g, f.ids, f.labels, makeConnectivity())
                     .verifyAll(t),
                 honest, cfg + " honest");
      // The one sweep is final: a later call returns the same verdicts.
      expectSame(honest, dv.verifyAll(), cfg + " repeated call");
      EXPECT_EQ(dv.stats().sweeps, 1u) << cfg;
      EXPECT_EQ(dv.stats().workerDeaths, 0u) << cfg;
      for (int round = 0; round < 3; ++round) {
        const std::vector<std::string> labels =
            corruptedPayload(f, dv, round);
        const SimulationResult ref =
            VerifySession(f.g, f.ids, labels, makeConnectivity())
                .verifyAll(t);
        if (K > 1) EXPECT_FALSE(ref.allAccept) << cfg;
        DistVerifier bad(f.g, f.ids, labels, "connectivity", {}, opt);
        expectSame(ref, bad.verifyAll(),
                   cfg + " payload " + std::to_string(round));
      }
    }
  }
}

TEST(DistVerify, RejectsBadConstructionAndBadEdits) {
  const DistFixture& f = DistFixture::get();
  EXPECT_THROW(DistVerifier(f.g, f.ids, f.labels, "no-such-property"),
               std::invalid_argument);
  std::vector<std::string> short1(f.labels.begin(), f.labels.end() - 1);
  EXPECT_THROW(DistVerifier(f.g, f.ids, short1, "connectivity"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Worker failure and reaping

/// True once `pid` is no child of this process any more (reaped).
bool reaped(pid_t pid) {
  return ::waitpid(pid, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

std::vector<pid_t> pidsOf(const DistVerifier& dv) {
  std::vector<pid_t> pids;
  for (int k = 0; k < dv.workers(); ++k) pids.push_back(dv.workerPid(k));
  return pids;
}

TEST(DistVerify, KilledWorkerFailsTheSweepAndEveryWorkerIsReaped) {
  const DistFixture& f = DistFixture::get();
  std::vector<pid_t> pids;
  {
    DistVerifier dv(f.g, f.ids, f.labels, "connectivity", {},
                    DistOptions{4, 1});
    pids = pidsOf(dv);
    ASSERT_GT(dv.workerPid(2), 0);  // never kill(-1, ...) or a group
    ASSERT_EQ(::kill(dv.workerPid(2), SIGKILL), 0);
    EXPECT_THROW((void)dv.verifyAll(), std::runtime_error);
    EXPECT_EQ(dv.stats().workerDeaths, 1u);
    EXPECT_EQ(dv.stats().sweeps, 0u);
    // No partial verdict plane on a later call either.
    EXPECT_THROW((void)dv.verifyAll(), std::runtime_error);
  }
  for (const pid_t pid : pids) EXPECT_TRUE(reaped(pid)) << "pid " << pid;
}

TEST(DistVerify, DestroyedWithoutSweepLeavesNoChildBehind) {
  const DistFixture& f = DistFixture::get();
  std::vector<pid_t> pids;
  {
    const DistVerifier dv(f.g, f.ids, f.labels, "connectivity", {},
                          DistOptions{4, 2});
    pids = pidsOf(dv);
  }
  ASSERT_EQ(pids.size(), 4u);
  for (const pid_t pid : pids) EXPECT_TRUE(reaped(pid)) << "pid " << pid;
}

TEST(DistVerify, TwoLiveVerifiersSweepInEitherOrder) {
  // The younger verifier's workers are forked while the older one's
  // barrier is still held; they must not keep it from being released.
  const DistFixture& f = DistFixture::get();
  const SimulationResult ref =
      VerifySession(f.g, f.ids, f.labels, makeConnectivity()).verifyAll(1);
  for (const bool olderFirst : {true, false}) {
    DistVerifier older(f.g, f.ids, f.labels, "connectivity", {},
                       DistOptions{2, 1});
    DistVerifier younger(f.g, f.ids, f.labels, "connectivity", {},
                         DistOptions{2, 1});
    DistVerifier& first = olderFirst ? older : younger;
    DistVerifier& second = olderFirst ? younger : older;
    expectSame(ref, first.verifyAll(), "first");
    expectSame(ref, second.verifyAll(), "second");
  }
}

}  // namespace
}  // namespace lanecert
