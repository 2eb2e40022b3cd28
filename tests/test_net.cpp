// Wire-level serving front-end: framing, request grammar, and the
// end-to-end socket path (WireServer over LaneCertService on loopback).
//
// The load-bearing invariants:
//   * framing survives ARBITRARY chunking — byte-at-a-time feeds produce
//     the same frames as one-shot feeds (partial reads), and the server's
//     scatter queue survives partial writes (tiny chunk sizes);
//   * a frame header claiming more than the connection quota fails the
//     connection BEFORE any buffer reserve (the socket-layer mirror of
//     the decoder's hostile-length hardening);
//   * a streamed certificate is BYTE-IDENTICAL to the encode of the
//     in-process proveCore result — the wire adds a boundary, never a
//     re-encode;
//   * every request that was ever read gets a terminal response, even
//     under quota rejection and drain-under-load.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/prover.hpp"
#include "core/verifier.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "net/protocol.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"
#include "pls/scheme.hpp"

namespace lanecert::net {
namespace {

// --- Framing ---------------------------------------------------------------

TEST(NetFraming, RoundTripSurvivesArbitraryChunking) {
  const std::vector<std::string> payloads = {
      std::string("\x01", 1), "hello", std::string(1000, 'x'),
      std::string("\x00\xff\x80payload", 10)};
  std::string stream;
  for (const auto& p : payloads) stream += encodeFrame(p);

  // One-shot feed.
  {
    FrameParser parser(1 << 20);
    std::vector<std::string> out;
    ASSERT_TRUE(parser.feed(stream, out));
    ASSERT_EQ(out.size(), payloads.size());
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], payloads[i]);
  }
  // Byte-at-a-time feed (worst-case partial reads).
  {
    FrameParser parser(1 << 20);
    std::vector<std::string> out;
    for (char c : stream) {
      ASSERT_TRUE(parser.feed(std::string_view(&c, 1), out));
    }
    ASSERT_EQ(out.size(), payloads.size());
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], payloads[i]);
  }
}

TEST(NetFraming, OversizedHeaderRejectsBeforeReserve) {
  FrameParser parser(1024);
  std::vector<std::string> out;
  // Header claims 2^40 bytes; the parser must fail on the HEADER, holding
  // zero payload bytes — a hostile length prefix never buys memory.
  Encoder enc;
  enc.u64(std::uint64_t{1} << 40);
  EXPECT_FALSE(parser.feed(enc.str(), out));
  EXPECT_TRUE(parser.failed());
  EXPECT_EQ(parser.bufferedBytes(), 0u);
  EXPECT_TRUE(out.empty());
  // The parser stays failed — the stream is permanently broken.
  EXPECT_FALSE(parser.feed("x", out));
}

TEST(NetFraming, MalformedAndZeroHeadersReject) {
  {
    // An unterminated run of continuation bytes past the 64-bit cap.
    FrameParser parser(1024);
    std::vector<std::string> out;
    const std::string bad(11, '\x80');
    EXPECT_FALSE(parser.feed(bad, out));
  }
  {
    FrameParser parser(1024);
    std::vector<std::string> out;
    const std::string zero("\x00", 1);
    EXPECT_FALSE(parser.feed(zero, out));
  }
}

// --- Request grammar -------------------------------------------------------

TEST(NetProtocol, RequestRoundTripsEveryOp) {
  const Graph g = cycleGraph(8);

  {
    const WireRequest r = decodeRequest(encodePingRequest(7));
    EXPECT_EQ(r.requestId, 7u);
    EXPECT_EQ(r.op, Op::kPing);
  }
  {
    const WireRequest r =
        decodeRequest(encodeProveRequest(9, g, "connectivity"));
    EXPECT_EQ(r.requestId, 9u);
    EXPECT_EQ(r.op, Op::kProve);
    EXPECT_EQ(r.graph.numVertices(), g.numVertices());
    EXPECT_EQ(r.graph.edges(), g.edges());
    EXPECT_EQ(r.property, "connectivity");
  }
  {
    std::vector<std::string> labels(static_cast<std::size_t>(g.numEdges()),
                                    "lbl");
    labels[0] = std::string("\x00\x80z", 3);
    const WireRequest r =
        decodeRequest(encodeVerifyRequest(11, g, "forest", labels, false));
    EXPECT_EQ(r.op, Op::kVerify);
    EXPECT_EQ(r.labels, labels);
    const WireRequest s =
        decodeRequest(encodeVerifyRequest(12, g, "forest", labels, true));
    EXPECT_EQ(s.op, Op::kOpenSession);
  }
  {
    std::vector<EdgeLabelEdit> edits;
    edits.push_back({EdgeId{3}, "new-bytes"});
    edits.push_back({EdgeId{0}, ""});
    const WireRequest r = decodeRequest(encodeReverifyRequest(13, 77, edits));
    EXPECT_EQ(r.op, Op::kReverify);
    EXPECT_EQ(r.session, 77u);
    ASSERT_EQ(r.edits.size(), 2u);
    EXPECT_EQ(r.edits[0].edge, EdgeId{3});
    EXPECT_EQ(r.edits[0].bytes, "new-bytes");
    EXPECT_EQ(r.edits[1].bytes, "");
  }
  {
    const WireRequest r = decodeRequest(encodeCloseSessionRequest(14, 42));
    EXPECT_EQ(r.op, Op::kCloseSession);
    EXPECT_EQ(r.session, 42u);
  }
}

TEST(NetProtocol, HostileRequestBytesReject) {
  // Unknown op.
  {
    Encoder enc;
    enc.u64(1);
    enc.u64(99);
    EXPECT_THROW((void)decodeRequest(enc.str()), WireError);
  }
  // Verify request whose label count lies far past the bytes present:
  // must throw before any proportional reserve.
  {
    Encoder enc;
    enc.u64(1);
    enc.u64(static_cast<std::uint64_t>(Op::kVerify));
    enc.u64(4);  // n
    enc.u64(1);  // m
    enc.u64(0);
    enc.u64(1);
    enc.bytes("connectivity");
    enc.u64(std::uint64_t{1} << 40);  // label count lie, then nothing
    EXPECT_THROW((void)decodeRequest(enc.str()), DecodeError);
  }
  // Edge endpoint out of range.
  {
    Encoder enc;
    enc.u64(1);
    enc.u64(static_cast<std::uint64_t>(Op::kProve));
    enc.u64(3);
    enc.u64(1);
    enc.u64(0);
    enc.u64(9);
    enc.bytes("forest");
    EXPECT_THROW((void)decodeRequest(enc.str()), WireError);
  }
  // Trailing bytes after a complete body.
  {
    std::string payload = encodePingRequest(5);
    payload += "junk";
    EXPECT_THROW((void)decodeRequest(payload), WireError);
  }
  // Truncation at every prefix must throw, never crash or accept.
  {
    const Graph g = pathGraph(5);
    std::vector<std::string> labels(4, "abc");
    const std::string full = encodeVerifyRequest(3, g, "forest", labels);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      EXPECT_THROW((void)decodeRequest(full.substr(0, cut)), std::exception);
    }
  }
}

TEST(NetProtocol, HostileVertexCountRejectsBeforeGraphConstruction) {
  // A ~12-byte frame claiming n = 2^31-1, m = 0 passes the edge-count
  // quota (zero edges need zero bytes) but must NOT buy ~2^31 adjacency
  // vectors: the vertex cap rejects before Graph(n) is constructed.
  for (const Op op : {Op::kProve, Op::kVerify}) {
    Encoder enc;
    enc.u64(1);
    enc.u64(static_cast<std::uint64_t>(op));
    enc.u64((std::uint64_t{1} << 31) - 1);  // n
    enc.u64(0);                             // m
    enc.bytes("forest");
    if (op == Op::kVerify) enc.u64(0);  // label count
    EXPECT_THROW((void)decodeRequest(enc.str()), WireError);
  }
  // The cap is a parameter: n just over rejects, n at the cap decodes.
  {
    Encoder enc;
    enc.u64(1);
    enc.u64(static_cast<std::uint64_t>(Op::kProve));
    enc.u64(9);  // n
    enc.u64(0);  // m
    enc.bytes("forest");
    EXPECT_THROW((void)decodeRequest(enc.str(), 8), WireError);
    const WireRequest r = decodeRequest(enc.str(), 9);
    EXPECT_EQ(r.graph.numVertices(), 9);
  }
}

TEST(NetProtocol, PropertyNameSuffixGrammarIsStrict) {
  // Well-formed parameterized names resolve...
  EXPECT_NE(propertyByName("vc:3"), nullptr);
  EXPECT_NE(propertyByName("dom:0"), nullptr);
  EXPECT_NE(propertyByName("maxdeg:12"), nullptr);
  // ...but a malformed suffix is an UNKNOWN name, never parameter 0.
  EXPECT_EQ(propertyByName("vc:"), nullptr);
  EXPECT_EQ(propertyByName("vc:garbage"), nullptr);
  EXPECT_EQ(propertyByName("vc:3x"), nullptr);
  EXPECT_EQ(propertyByName("vc:-1"), nullptr);
  EXPECT_EQ(propertyByName("vc: 3"), nullptr);
  EXPECT_EQ(propertyByName("maxdeg:999999999999999999999"), nullptr);
  EXPECT_EQ(propertyByName("bogus"), nullptr);
}

TEST(NetProtocol, CertificateStreamRoundTrips) {
  std::vector<std::string> labels = {"", "a", std::string(300, 'q'),
                                     std::string("\x80\x00", 2)};
  const std::string stream = encodeCertificateStream(true, labels);
  const CertificateStream back = decodeCertificateStream(stream);
  EXPECT_TRUE(back.propertyHolds);
  EXPECT_EQ(back.labels, labels);
}

// --- End-to-end over loopback sockets --------------------------------------

WireServerOptions testOptions() {
  WireServerOptions opts;
  opts.service.numThreads = 2;
  return opts;
}

TEST(NetWire, ProveStreamIsByteIdenticalToInProcessResult) {
  WireServer server(testOptions());
  server.start();

  Rng rng(19);
  const Graph g = randomBoundedPathwidth(96, 2, 0.4, rng).graph;
  const PropertyPtr prop = makeConnectivity();

  WireClient client;
  client.connect("127.0.0.1", server.port());
  const WireClient::Reply reply = client.prove(g, "connectivity");
  ASSERT_TRUE(reply.ok()) << reply.error;

  // The in-process ground truth: identical job, identity ids — the serve
  // path is bit-identical to standalone proveCore, and the wire must add
  // exactly nothing.
  const CoreProveResult local =
      proveCore(g, IdAssignment::identity(g.numVertices()), *prop);
  const std::string expected =
      encodeCertificateStream(local.propertyHolds, local.labels);
  EXPECT_EQ(reply.stream, expected);

  const CertificateStream cert = decodeCertificateStream(reply.stream);
  EXPECT_TRUE(cert.propertyHolds);
  const SimulationResult check = simulateEdgeScheme(
      g, IdAssignment::identity(g.numVertices()), cert.labels,
      makeCoreVerifier(prop));
  EXPECT_TRUE(check.allAccept);
  server.stop();
}

TEST(NetWire, VerifyAndPipelinedRequestsCompleteByRequestId) {
  WireServer server(testOptions());
  server.start();

  const Graph g = cycleGraph(24);
  const auto local =
      proveCore(g, IdAssignment::identity(g.numVertices()), *makeConnectivity());
  ASSERT_TRUE(local.propertyHolds);

  WireClient client;
  client.connect("127.0.0.1", server.port());

  // Pipeline several requests, then wait in REVERSE order — correlation
  // is by requestId, not arrival order.
  const std::uint64_t ping1 = client.sendPing();
  const std::uint64_t v1 = client.sendVerify(g, "connectivity", local.labels);
  std::vector<std::string> corrupted = local.labels;
  corrupted[3] = "garbage";
  const std::uint64_t v2 = client.sendVerify(g, "connectivity", corrupted);
  const std::uint64_t ping2 = client.sendPing();

  EXPECT_TRUE(client.wait(ping2).ok());
  const WireClient::Reply bad = client.wait(v2);
  ASSERT_TRUE(bad.ok()) << bad.error;
  EXPECT_FALSE(decodeVerifyResult(bad.body).allAccept);
  const WireClient::Reply good = client.wait(v1);
  ASSERT_TRUE(good.ok()) << good.error;
  const SimulationResult r = decodeVerifyResult(good.body);
  EXPECT_TRUE(r.allAccept);
  // Verdict matches the in-process sweep field by field.
  const SimulationResult localR =
      simulateEdgeScheme(g, IdAssignment::identity(g.numVertices()),
                         local.labels, makeCoreVerifier(makeConnectivity()));
  EXPECT_EQ(r.allAccept, localR.allAccept);
  EXPECT_EQ(r.rejecting, localR.rejecting);
  EXPECT_EQ(r.maxLabelBits, localR.maxLabelBits);
  EXPECT_EQ(r.totalLabelBits, localR.totalLabelBits);
  EXPECT_TRUE(client.wait(ping1).ok());
  server.stop();
}

TEST(NetWire, SessionLifecycleOverTheWire) {
  WireServer server(testOptions());
  server.start();

  const Graph g = pathGraph(40);
  const auto local =
      proveCore(g, IdAssignment::identity(g.numVertices()), *makeConnectivity());
  ASSERT_TRUE(local.propertyHolds);

  WireClient client;
  client.connect("127.0.0.1", server.port());

  const WireClient::Reply opened =
      client.wait(client.sendOpenSession(g, "connectivity", local.labels));
  ASSERT_TRUE(opened.ok()) << opened.error;
  const std::uint64_t session = decodeSessionHandle(opened.body);

  // Initial sweep (empty batch), then corrupt, then restore.
  const WireClient::Reply sweep =
      client.wait(client.sendReverify(session, {}));
  ASSERT_TRUE(sweep.ok()) << sweep.error;
  EXPECT_TRUE(decodeVerifyResult(sweep.body).allAccept);

  std::vector<EdgeLabelEdit> corrupt;
  corrupt.push_back({EdgeId{5}, "not-a-certificate"});
  const WireClient::Reply bad =
      client.wait(client.sendReverify(session, corrupt));
  ASSERT_TRUE(bad.ok()) << bad.error;
  EXPECT_FALSE(decodeVerifyResult(bad.body).allAccept);

  std::vector<EdgeLabelEdit> restore;
  restore.push_back({EdgeId{5}, local.labels[5]});
  const WireClient::Reply fixed =
      client.wait(client.sendReverify(session, restore));
  ASSERT_TRUE(fixed.ok()) << fixed.error;
  EXPECT_TRUE(decodeVerifyResult(fixed.body).allAccept);

  EXPECT_TRUE(client.wait(client.sendCloseSession(session)).ok());
  // A reverify on the closed session is a permanent error, not a crash.
  const WireClient::Reply gone =
      client.wait(client.sendReverify(session, restore));
  EXPECT_EQ(gone.status, Status::kError);
  server.stop();
}

TEST(NetWire, PerConnectionQuotaRejectsWithRetryAfter) {
  WireServerOptions opts = testOptions();
  opts.service.numThreads = 1;
  opts.service.enableResultCache = false;
  opts.maxInflightPerConn = 1;
  WireServer server(opts);
  server.start();

  // A prove big enough to hold the single worker for many milliseconds.
  Rng rng(7);
  const Graph g = randomBoundedPathwidth(512, 2, 0.4, rng).graph;

  WireClient client;
  client.connect("127.0.0.1", server.port());
  std::vector<std::uint64_t> ids;
  ids.push_back(client.sendProve(g, "connectivity"));
  for (int i = 0; i < 7; ++i) ids.push_back(client.sendProve(g, "connectivity"));

  int ok = 0, rejected = 0;
  std::uint64_t minRetry = ~std::uint64_t{0};
  for (const std::uint64_t id : ids) {
    const WireClient::Reply r = client.wait(id);
    if (r.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, Status::kRejected);
      ++rejected;
      minRetry = std::min(minRetry, r.retryAfterMs);
    }
  }
  // The first request is always admitted; with an in-flight quota of 1
  // and all 8 frames landing while the single worker churns, the rest are
  // turned away with a nonzero retry-after hint.
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_GE(minRetry, 1u);
  EXPECT_GE(server.stats().quotaRejected, static_cast<std::uint64_t>(rejected));
  server.stop();
}

TEST(NetWire, MalformedFramesRejectWithoutKillingTheServer) {
  WireServer server(testOptions());
  server.start();

  // Framing violation: the connection dies, the server survives.
  {
    WireClient attacker;
    attacker.connect("127.0.0.1", server.port(), 5000);
    attacker.sendRaw(std::string(11, '\x80'));
    EXPECT_THROW((void)attacker.wait(1), std::runtime_error);
  }
  // Oversized header: rejected before any reserve; connection dies.
  {
    WireClient attacker;
    attacker.connect("127.0.0.1", server.port(), 5000);
    Encoder enc;
    enc.u64(std::uint64_t{1} << 50);
    attacker.sendRaw(enc.str());
    EXPECT_THROW((void)attacker.wait(1), std::runtime_error);
  }
  // Malformed BODY inside a well-framed request: per-request kError, the
  // connection lives and serves the next request.
  {
    WireClient client;
    client.connect("127.0.0.1", server.port());
    Encoder enc;
    enc.u64(31);  // requestId
    enc.u64(99);  // unknown op
    client.sendRaw(encodeFrame(enc.str()));
    const WireClient::Reply err = client.wait(31);
    EXPECT_EQ(err.status, Status::kError);
    EXPECT_TRUE(client.ping().ok());
  }
  // Unknown property: same contract.
  {
    WireClient client;
    client.connect("127.0.0.1", server.port());
    const WireClient::Reply err =
        client.wait(client.sendProve(pathGraph(4), "no-such-property"));
    EXPECT_EQ(err.status, Status::kError);
    EXPECT_TRUE(client.ping().ok());
  }
  EXPECT_GE(server.stats().protocolErrors, 2u);
  EXPECT_GE(server.stats().requestErrors, 2u);
  server.stop();
}

TEST(NetWire, StreamedCertificateEncodedOnceScatteredToSubscribers) {
  WireServerOptions opts = testOptions();
  opts.service.numThreads = 1;
  opts.chunkBytes = 256;  // force many chunks (partial-write pressure)
  WireServer server(opts);
  server.start();

  Rng rng(23);
  const Graph g = randomBoundedPathwidth(128, 2, 0.4, rng).graph;
  const CoreProveResult local =
      proveCore(g, IdAssignment::identity(g.numVertices()), *makeConnectivity());
  const std::string expected =
      encodeCertificateStream(local.propertyHolds, local.labels);

  // Occupy the single worker with an unrelated prove so all three wire
  // requests are queued — and coalesced by the result cache — before any
  // of them starts: their futures then resolve in the SAME completion
  // tick, which is the scatter case the memo exists for.
  Rng blockRng(55);
  const Graph big = randomBoundedPathwidth(512, 2, 0.4, blockRng).graph;
  auto blocker = server.service().submitProve(serve::ProveJob{
      big, IdAssignment::identity(big.numVertices()), makeConnectivity(), {}});

  // Three subscribers ask for the SAME labeling, concurrently.
  WireClient a, b, c;
  a.connect("127.0.0.1", server.port());
  b.connect("127.0.0.1", server.port());
  c.connect("127.0.0.1", server.port());
  const std::uint64_t ra = a.sendProve(g, "connectivity");
  const std::uint64_t rb = b.sendProve(g, "connectivity");
  const std::uint64_t rc = c.sendProve(g, "connectivity");
  const WireClient::Reply replyA = a.wait(ra);
  const WireClient::Reply replyB = b.wait(rb);
  const WireClient::Reply replyC = c.wait(rc);
  ASSERT_TRUE(replyA.ok()) << replyA.error;
  ASSERT_TRUE(replyB.ok()) << replyB.error;
  ASSERT_TRUE(replyC.ok()) << replyC.error;
  EXPECT_EQ(replyA.stream, expected);
  EXPECT_EQ(replyB.stream, expected);
  EXPECT_EQ(replyC.stream, expected);
  blocker.wait();

  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.streamEncodes, 1u);       // encoded exactly once
  EXPECT_GE(stats.streamEncodeReuses, 2u);  // scattered to the others
  EXPECT_GE(stats.chunksQueued, 3u);
  server.stop();
}

TEST(NetWire, DrainUnderLoadResolvesEveryRequestTerminally) {
  WireServerOptions opts = testOptions();
  opts.service.numThreads = 1;
  opts.service.enableResultCache = false;
  WireServer server(opts);
  server.start();

  WireClient client;
  client.connect("127.0.0.1", server.port());

  // Distinct graphs: no coalescing, each is real work for the single
  // worker, so a drain catches most of them not yet started.
  Rng rng(100);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const Graph g = randomBoundedPathwidth(256, 2, 0.4, rng).graph;
    ids.push_back(client.sendProve(g, "connectivity"));
  }
  // Ping barrier: requests are handled in order, so this reply proves the
  // server has READ all six proves — the drain then owes each a terminal
  // frame (cancelPending covers the ones it discards).
  ASSERT_TRUE(client.wait(client.sendPing()).ok());
  server.requestDrain();

  int ok = 0, cancelled = 0, shutdown = 0;
  for (const std::uint64_t id : ids) {
    const WireClient::Reply r = client.wait(id);
    switch (r.status) {
      case Status::kOk:
        ++ok;
        break;
      case Status::kCancelled:
        ++cancelled;
        break;
      case Status::kShuttingDown:
        ++shutdown;
        break;
      default:
        FAIL() << "unexpected status " << statusName(r.status);
    }
  }
  // Every request read before the drain resolves terminally; the
  // cancelPending surface means at least one was discarded (single
  // worker, six multi-ms jobs) unless the race went the other way —
  // the hard assertion is completeness, not the split.
  EXPECT_EQ(ok + cancelled + shutdown, 6);
  EXPECT_GE(server.stats().drains, 1u);
  server.stop();

  // After the drain the listener is gone: new connections fail.
  WireClient late;
  EXPECT_THROW(late.connect("127.0.0.1", server.port(), 1000),
               std::runtime_error);
}

}  // namespace
}  // namespace lanecert::net
