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
// Reproducibility mirrors fuzz_cert: every iteration derives its mutant
// from (seed, iter) alone; --replay re-runs one iteration verbosely;
// violations dump crash-wire-* artifacts with a replay line.
//
// Usage:
//   fuzz_wire [--seed N] [--iters N] [--budget-seconds S]
//             [--artifact-dir DIR] [--progress-file PATH]
//             [--server-every N] [--replay ITER] [--quiet]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
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

namespace {

using namespace lanecert;

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
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

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniformInt(0, static_cast<int>(n) - 1));
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
  switch (s) {
    case Shape::kMutateFramed:
      return "mutateFramed";
    case Shape::kMutatePayload:
      return "mutatePayload";
    case Shape::kTruncate:
      return "truncate";
    case Shape::kLengthLie:
      return "lengthLie";
    case Shape::kCount:
      break;
  }
  return "?";
}

struct IterationOutcome {
  std::size_t corpusIdx = 0;
  Shape shape = Shape::kMutateFramed;
  FuzzKind kind = FuzzKind::kBitFlip;
  std::string bytes;       ///< what goes on the wire
  const char* result = ""; ///< human classification
  bool violation = false;
  std::string detail;
};

/// Builds iteration `iter`'s hostile bytes.  Deterministic in (seed, iter).
IterationOutcome buildIteration(std::uint64_t seed, std::uint64_t iter,
                                const std::vector<CorpusEntry>& corpus) {
  IterationOutcome out;
  FuzzMutator mut(seed ^ (kGolden * (iter + 1)));
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

  std::size_t decoded = 0, rejectedBodies = 0;
  for (const std::string& frame : frames) {
    try {
      (void)net::decodeRequest(frame, kFuzzMaxVertices);
      ++decoded;
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
  out.result = parserFailed ? "parserRejected"
               : frames.empty()
                   ? "incomplete"
                   : (rejectedBodies > 0 ? "bodyRejected" : "decoded");
  (void)decoded;
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
      out.result = "serverReplied";
    } catch (const std::exception& e) {
      if (std::strstr(e.what(), "timeout") != nullptr) {
        out.violation = true;
        out.detail = std::string("server hang: ") + e.what();
        return;
      }
      out.result = "connClosed";
    }
  } catch (const std::exception& e) {
    // connect/send-level failure still counts as a terminal state.
    out.result = "connClosed";
    (void)e;
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

void dumpArtifact(const std::string& dir, std::uint64_t seed,
                  std::uint64_t iter, const CorpusEntry& entry,
                  const IterationOutcome& out) {
  const std::string stem = dir + "/crash-wire-seed" + std::to_string(seed) +
                           "-iter" + std::to_string(iter);
  {
    std::ofstream bin(stem + ".bin", std::ios::binary);
    bin.write(out.bytes.data(), static_cast<std::streamsize>(out.bytes.size()));
  }
  std::ofstream meta(stem + ".txt");
  meta << "seed " << seed << "\niter " << iter << "\ncorpus " << entry.name
       << "\nshape " << shapeName(out.shape) << "\nkind "
       << fuzzKindName(out.kind) << "\ndetail " << out.detail
       << "\nreplay fuzz_wire --seed " << seed << " --replay " << iter
       << "\n";
  std::fprintf(stderr, "VIOLATION at iter %llu: wrote %s.{bin,txt}\n",
               static_cast<unsigned long long>(iter), stem.c_str());
}

void hexDump(const std::string& bytes) {
  for (std::size_t i = 0; i < bytes.size() && i < 512; ++i) {
    std::printf("%02x%s", static_cast<unsigned char>(bytes[i]),
                (i + 1) % 16 == 0 ? "\n" : " ");
  }
  if (bytes.size() % 16 != 0 || bytes.size() > 512) std::printf("\n");
  if (bytes.size() > 512) std::printf("(... %zu bytes)\n", bytes.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  std::uint64_t iters = 100000;
  double budgetSeconds = 0;
  std::string artifactDir = ".";
  std::string progressFile;
  std::uint64_t serverEvery = 101;  // prime stride: shapes x corpus rotate
  long long replayIter = -1;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    auto needsValue = [&](const char* flag) {
      if (std::strcmp(argv[i], flag) != 0) return false;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return true;
    };
    if (needsValue("--seed")) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (needsValue("--iters")) {
      iters = std::strtoull(argv[++i], nullptr, 10);
    } else if (needsValue("--budget-seconds")) {
      budgetSeconds = std::strtod(argv[++i], nullptr);
    } else if (needsValue("--artifact-dir")) {
      artifactDir = argv[++i];
    } else if (needsValue("--progress-file")) {
      progressFile = argv[++i];
    } else if (needsValue("--server-every")) {
      serverEvery = std::strtoull(argv[++i], nullptr, 10);
    } else if (needsValue("--replay")) {
      replayIter = std::strtoll(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr,
                   "usage: fuzz_wire [--seed N] [--iters N] "
                   "[--budget-seconds S] [--artifact-dir DIR] "
                   "[--progress-file PATH] [--server-every N] "
                   "[--replay ITER] [--quiet]\n");
      return 2;
    }
  }

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

  if (replayIter >= 0) {
    IterationOutcome out =
        buildIteration(seed, static_cast<std::uint64_t>(replayIter), corpus);
    Rng feedRng(seed ^ (kGolden * (static_cast<std::uint64_t>(replayIter) + 1)) ^
                0x5eedu);
    checkInProcess(out, feedRng);
    const char* inProc = out.result;
    const bool inProcViolation = out.violation;
    const std::string inProcDetail = out.detail;
    if (!out.violation) checkLiveServer(out, ensureServer());
    std::printf("replay seed=%llu iter=%lld\n",
                static_cast<unsigned long long>(seed), replayIter);
    std::printf("corpus   %s\nshape    %s\nkind     %s\n",
                corpus[out.corpusIdx].name, shapeName(out.shape),
                fuzzKindName(out.kind));
    std::printf("inproc   %s%s%s\nserver   %s\n", inProc,
                inProcViolation ? " VIOLATION: " : "",
                inProcViolation ? inProcDetail.c_str() : "", out.result);
    std::printf("bytes    %zu:\n", out.bytes.size());
    hexDump(out.bytes);
    if (out.violation) std::printf("detail   %s\n", out.detail.c_str());
    if (server) server->stop();
    return out.violation ? 1 : 0;
  }

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t done = 0, violations = 0, serverRuns = 0;
  std::uint64_t byShape[static_cast<int>(Shape::kCount)] = {};
  std::uint64_t byResult[4] = {};  // parserRejected/incomplete/bodyRejected/decoded

  for (std::uint64_t iter = 0; iter < iters; ++iter) {
    if (budgetSeconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() >= budgetSeconds) break;
    }
    if (!progressFile.empty()) {
      std::ofstream p(progressFile, std::ios::trunc);
      p << seed << " " << iter << "\n";
    }
    IterationOutcome out = buildIteration(seed, iter, corpus);
    ++byShape[static_cast<int>(out.shape)];
    Rng feedRng(seed ^ (kGolden * (iter + 1)) ^ 0x5eedu);
    checkInProcess(out, feedRng);
    if (!out.violation) {
      if (std::strcmp(out.result, "parserRejected") == 0) ++byResult[0];
      if (std::strcmp(out.result, "incomplete") == 0) ++byResult[1];
      if (std::strcmp(out.result, "bodyRejected") == 0) ++byResult[2];
      if (std::strcmp(out.result, "decoded") == 0) ++byResult[3];
      if (serverEvery > 0 && iter % serverEvery == 0) {
        ++serverRuns;
        checkLiveServer(out, ensureServer());
      }
    }
    ++done;
    if (out.violation) {
      ++violations;
      dumpArtifact(artifactDir, seed, iter, corpus[out.corpusIdx], out);
    }
  }

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (!quiet) {
    std::printf("fuzz_wire: %llu mutants in %.1fs (seed %llu), %llu live-"
                "server probes\n",
                static_cast<unsigned long long>(done), elapsed.count(),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(serverRuns));
    for (int s = 0; s < static_cast<int>(Shape::kCount); ++s) {
      std::printf("  shape %-13s %llu\n", shapeName(static_cast<Shape>(s)),
                  static_cast<unsigned long long>(byShape[s]));
    }
    std::printf("  parserRejected %llu, incomplete %llu, bodyRejected %llu, "
                "decoded %llu\n",
                static_cast<unsigned long long>(byResult[0]),
                static_cast<unsigned long long>(byResult[1]),
                static_cast<unsigned long long>(byResult[2]),
                static_cast<unsigned long long>(byResult[3]));
    std::printf("  violations: %llu\n",
                static_cast<unsigned long long>(violations));
  }
  if (server) server->stop();
  if (!progressFile.empty()) std::remove(progressFile.c_str());
  return violations == 0 ? 0 : 1;
}
