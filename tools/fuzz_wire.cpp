// Wire-frame fuzzing harness.
//
// Mutates ENCODED request frames (core/fuzz_mutator.hpp — bit flips,
// truncations, varint corruption/padding, splices) and asserts the
// serving boundary's robustness contract at two layers:
//
//   * in-process: FrameParser + decodeRequest must, for EVERY input,
//     either parse cleanly or fail with the protocol's own error types
//     (DecodeError / WireError) — never crash, never buffer more than the
//     frame quota (a length lie must be rejected BEFORE any reserve, so
//     bufferedBytes() stays below the cap at all times);
//   * live server (every --server-every iterations): hostile bytes are
//     written to a real connection followed by a valid ping and a padding
//     flood (so a length lie that legitimately waits for more input gets
//     fed until it resolves).  The connection must reach a terminal state
//     — a reply or a close — within the recv timeout (a hang is a
//     violation), and the server must still serve a FRESH connection
//     afterwards (liveness).
//
// Usage: fuzz_wire [campaign flags] [--server-every N]; fuzz_campaign.hpp
// owns the flags, seeds, budget, progress file, artifacts and replay.  A
// replay always runs the live-server probe.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/fuzz_mutator.hpp"
#include "core/prover.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "net/protocol.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"

#include "fuzz_campaign.hpp"

namespace {

using namespace lanecert;
using fuzz::pick;

/// Small on purpose: the padding flood that resolves length lies on the
/// live server is 2x this.
constexpr std::size_t kFuzzMaxFrame = 64 * 1024;
// Tight vertex cap for the campaign: corpus graphs are tiny, so any
// mutant claiming more vertices than this must be REJECTED, not
// materialized as adjacency vectors.
constexpr std::size_t kFuzzMaxVertices = 1u << 12;

struct CorpusEntry {
  const char* name;
  std::string payload;  ///< a VALID request body (pre-framing)
};

std::vector<CorpusEntry> buildCorpus() {
  std::vector<CorpusEntry> corpus;
  corpus.push_back({"ping", net::encodePingRequest(3)});

  const Graph path = pathGraph(8);
  const Graph cycle = cycleGraph(12);
  corpus.push_back({"prove/path8",
                    net::encodeProveRequest(4, path, "forest")});
  corpus.push_back({"prove/cycle12",
                    net::encodeProveRequest(5, cycle, "connectivity")});

  const CoreProveResult honest = proveCore(
      cycle, IdAssignment::identity(cycle.numVertices()), *makeConnectivity());
  corpus.push_back(
      {"verify/cycle12",
       net::encodeVerifyRequest(6, cycle, "connectivity", honest.labels,
                                false)});
  corpus.push_back(
      {"open/cycle12",
       net::encodeVerifyRequest(7, cycle, "connectivity", honest.labels,
                                true)});

  std::vector<EdgeLabelEdit> edits;
  edits.push_back({EdgeId{2}, honest.labels[2]});
  edits.push_back({EdgeId{5}, ""});
  corpus.push_back({"reverify", net::encodeReverifyRequest(8, 1, edits)});
  corpus.push_back({"close", net::encodeCloseSessionRequest(9, 1)});
  return corpus;
}

/// How the iteration built its hostile bytes from the corpus entry.
enum class Shape {
  kMutateFramed,   ///< mutate the framed bytes (length prefix included)
  kMutatePayload,  ///< mutate the body, frame the mutant correctly
  kTruncate,       ///< well-formed prefix cut mid-frame
  kLengthLie,      ///< correct body, corrupted length prefix
  kCount,
};

const char* shapeName(Shape s) {
  static constexpr const char* kNames[] = {"mutateFramed", "mutatePayload",
                                           "truncate", "lengthLie"};
  return kNames[static_cast<int>(s)];
}

/// How the in-process parser and decoder took an iteration's bytes.
const char* const kInProcessResults[] = {"parserRejected", "incomplete",
                                         "bodyRejected", "decoded"};

struct IterationOutcome {
  std::size_t corpusIdx = 0;
  Shape shape = Shape::kMutateFramed;
  FuzzKind kind = FuzzKind::kBitFlip;
  std::string bytes;  ///< what goes on the wire
  /// Index into kInProcessResults; -1 after an in-process violation.
  int inProcess = -1;
  const char* server = "not probed";  ///< serverReplied or connClosed
  bool violation = false;
  std::string detail;
};

/// Builds iteration `iter`'s hostile bytes.  Deterministic in (seed, iter).
IterationOutcome buildIteration(std::uint64_t seed, std::uint64_t iter,
                                const std::vector<CorpusEntry>& corpus) {
  IterationOutcome out;
  FuzzMutator mut(fuzz::iterationSeed(seed, iter));
  Rng& rng = mut.rng();

  out.corpusIdx = pick(rng, corpus.size());
  const std::string& payload = corpus[out.corpusIdx].payload;
  const std::string& donor =
      corpus[(out.corpusIdx + 1 + pick(rng, corpus.size() - 1)) %
             corpus.size()]
          .payload;
  out.shape = static_cast<Shape>(pick(rng, static_cast<std::size_t>(
                                              Shape::kCount)));
  switch (out.shape) {
    case Shape::kMutateFramed:
      out.bytes = mut.mutateRandom(net::encodeFrame(payload), donor, &out.kind);
      break;
    case Shape::kMutatePayload:
      out.bytes = net::encodeFrame(mut.mutateRandom(payload, donor, &out.kind));
      break;
    case Shape::kTruncate: {
      const std::string framed = net::encodeFrame(payload);
      out.bytes = framed.substr(0, pick(rng, framed.size()));
      break;
    }
    case Shape::kLengthLie: {
      // Keep the body, lie about its length: shorter (trailing bytes bleed
      // into the next frame), longer (the parser waits), or hostile-huge
      // (must reject before any reserve).
      Encoder enc;
      const int lie = rng.uniformInt(0, 2);
      if (lie == 0) {
        enc.u64(1 + pick(rng, payload.size()));
      } else if (lie == 1) {
        enc.u64(payload.size() + 1 + pick(rng, 4096));
      } else {
        enc.u64((std::uint64_t{1} << 32) + pick(rng, 1 << 20));
      }
      enc.raw(payload);
      out.bytes = enc.str();
      break;
    }
    case Shape::kCount:
      break;
  }
  return out;
}

/// In-process contract: parser + request decoder survive `bytes` fed in
/// rng-sized slices; failures are typed; buffering never exceeds the cap.
void checkInProcess(IterationOutcome& out, Rng& rng) {
  net::FrameParser parser(kFuzzMaxFrame);
  std::vector<std::string> frames;
  std::size_t off = 0;
  bool parserFailed = false;
  try {
    while (off < out.bytes.size()) {
      const std::size_t step =
          1 + pick(rng, std::min<std::size_t>(out.bytes.size() - off, 4096));
      if (!parser.feed(std::string_view(out.bytes).substr(off, step),
                       frames)) {
        parserFailed = true;
        break;
      }
      off += step;
      if (parser.bufferedBytes() > kFuzzMaxFrame) {
        out.violation = true;
        out.detail = "parser buffered " +
                     std::to_string(parser.bufferedBytes()) +
                     " bytes, above the " + std::to_string(kFuzzMaxFrame) +
                     " cap";
        return;
      }
    }
  } catch (const std::exception& e) {
    out.violation = true;
    out.detail = std::string("parser threw: ") + e.what();
    return;
  }

  std::size_t rejectedBodies = 0;
  for (const std::string& frame : frames) {
    try {
      (void)net::decodeRequest(frame, kFuzzMaxVertices);
    } catch (const DecodeError&) {
      ++rejectedBodies;
    } catch (const net::WireError&) {
      ++rejectedBodies;
    } catch (const std::exception& e) {
      out.violation = true;
      out.detail = std::string("decodeRequest escaped the protocol error "
                               "types: ") +
                   e.what();
      return;
    }
  }
  out.inProcess = parserFailed    ? 0
                  : frames.empty() ? 1
                                   : (rejectedBodies > 0 ? 2 : 3);
}

/// Live-server contract: hostile bytes then a ping then a padding flood;
/// the connection must terminate (reply or close) within the timeout, and
/// a fresh connection must still be served.
void checkLiveServer(IterationOutcome& out, net::WireServer& server) {
  try {
    net::WireClient client;
    client.connect("127.0.0.1", server.port(), 5000);
    client.sendRaw(out.bytes);
    const std::uint64_t pingId = client.sendPing();
    // A length lie larger than what was sent makes the server WAIT —
    // correct behaviour, not a hang.  The flood feeds any such frame to
    // completion; its 0xff filler then breaks the length varint, so the
    // connection always reaches a terminal state.
    client.sendRaw(std::string(2 * kFuzzMaxFrame, '\xff'));
    try {
      (void)client.wait(pingId);
      out.server = "serverReplied";
    } catch (const std::exception& e) {
      if (std::strstr(e.what(), "timeout") != nullptr) {
        out.violation = true;
        out.detail = std::string("server hang: ") + e.what();
        return;
      }
      out.server = "connClosed";
    }
  } catch (const std::exception&) {
    // connect/send-level failure still counts as a terminal state.
    out.server = "connClosed";
  }

  // Liveness: whatever the hostile connection did, a fresh one works.
  try {
    net::WireClient probe;
    probe.connect("127.0.0.1", server.port(), 5000);
    if (!probe.ping().ok()) {
      out.violation = true;
      out.detail = "liveness probe ping not ok";
    }
  } catch (const std::exception& e) {
    out.violation = true;
    out.detail = std::string("liveness probe failed: ") + e.what();
  }
}

struct Counters {
  unsigned long long byShape[static_cast<int>(Shape::kCount)] = {};
  unsigned long long byResult[std::size(kInProcessResults)] = {};
  unsigned long long serverRuns = 0;
};

}  // namespace

int main(int argc, char** argv) {
  fuzz::Campaign campaign("fuzz_wire", 100000);
  std::uint64_t serverEvery = 101;  // prime stride: shapes x corpus rotate
  campaign.flag("--server-every", &serverEvery);
  if (!campaign.parse(argc, argv)) return 2;

  const std::vector<CorpusEntry> corpus = buildCorpus();

  // One live server for the whole campaign: hostile connections come and
  // go, the server must shrug all of them off.
  std::unique_ptr<net::WireServer> server;
  auto ensureServer = [&]() -> net::WireServer& {
    if (!server) {
      net::WireServerOptions sopts;
      sopts.maxFrameBytes = kFuzzMaxFrame;
      sopts.maxVertices = kFuzzMaxVertices;
      sopts.service.numThreads = 1;
      server = std::make_unique<net::WireServer>(sopts);
      server->start();
    }
    return *server;
  };

  Counters count;
  return campaign.run(
      [&](std::uint64_t iter) {
        IterationOutcome it = buildIteration(campaign.seed(), iter, corpus);
        ++count.byShape[static_cast<int>(it.shape)];
        Rng feedRng(fuzz::iterationSeed(campaign.seed(), iter) ^ 0x5eedu);
        checkInProcess(it, feedRng);
        if (!it.violation) {
          ++count.byResult[it.inProcess];
          if (campaign.replaying() ||
              (serverEvery > 0 && iter % serverEvery == 0)) {
            ++count.serverRuns;
            checkLiveServer(it, ensureServer());
          }
        }
        fuzz::Outcome out;
        if (it.violation) out.verdict = fuzz::Verdict::kViolation;
        out.bytes = std::move(it.bytes);
        out.fields = {{"corpus", corpus[it.corpusIdx].name},
                      {"shape", shapeName(it.shape)},
                      {"kind", fuzzKindName(it.kind)},
                      {"inproc", it.inProcess < 0
                                     ? "violation"
                                     : kInProcessResults[it.inProcess]},
                      {"server", it.server},
                      {"detail", it.detail}};
        return out;
      },
      [&] {
        std::printf("  live-server probes %llu\n", count.serverRuns);
        for (int s = 0; s < static_cast<int>(Shape::kCount); ++s) {
          std::printf("  shape %-13s %llu\n", shapeName(static_cast<Shape>(s)),
                      count.byShape[s]);
        }
        std::printf(
            "  parserRejected %llu, incomplete %llu, bodyRejected %llu, "
            "decoded %llu\n",
            count.byResult[0], count.byResult[1], count.byResult[2],
            count.byResult[3]);
      });
}
