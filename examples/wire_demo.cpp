// Wire-serving demo: the LaneCertService behind a socket.  Boots a
// WireServer on a loopback ephemeral port inside this process, then
// drives it the way a remote client would — same bytes, same protocol,
// just no second machine.
//
//   $ ./wire_demo
//
// Act 1 — the boundary adds nothing: prove a graph over the wire, decode
// the streamed certificate, and byte-compare it against a fresh
// in-process encode of proveCore.  Identical, always.
//
// Act 2 — pipelining: several requests in flight on one connection,
// replies matched by request id (out-of-order completion is fine).
//
// Act 3 — sessions: open a verify session, corrupt one edge label
// (REJECT), restore the honest bytes (ACCEPT) — the incremental
// re-verification path, over the wire.
//
// Act 4 — graceful drain: requestDrain() while requests are in flight;
// every outstanding request still resolves terminally, and the late
// client finds the listener closed.
//
// Exits 1 unless every act ends as described above.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/prover.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "net/protocol.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"

using namespace lanecert;

int main() {
  net::WireServerOptions opts;
  net::WireServer server(opts);
  server.start();
  std::printf("server on 127.0.0.1:%u\n\n", unsigned(server.port()));

  Rng rng(7);
  Graph g = randomBoundedPathwidth(64, 2, 0.4, rng).graph;
  const auto ids = IdAssignment::identity(g.numVertices());

  // --- Act 1: streamed certificate == in-process bytes -------------------
  net::WireClient client;
  client.connect("127.0.0.1", server.port());
  net::WireClient::Reply proved =
      client.wait(client.sendProve(g, "connectivity"));
  if (!proved.ok()) std::abort();
  const auto local = proveCore(g, ids, *makeConnectivity());
  const std::string localStream =
      net::encodeCertificateStream(local.propertyHolds, local.labels);
  const bool identical = proved.stream == localStream;
  std::printf("prove: %zu streamed bytes, byte-identical to proveCore: %s\n",
              proved.stream.size(), identical ? "yes" : "NO");
  const net::CertificateStream cert =
      net::decodeCertificateStream(proved.stream);

  // --- Act 2: pipelined requests, replies matched by id -------------------
  std::vector<std::uint64_t> inflight;
  for (int i = 0; i < 4; ++i) {
    inflight.push_back(client.sendVerify(g, "connectivity", cert.labels));
    inflight.push_back(client.sendProve(g, "connectivity"));
  }
  int accepted = 0;
  for (auto it = inflight.rbegin(); it != inflight.rend(); ++it) {
    if (client.wait(*it).ok()) ++accepted;  // waited in reverse send order
  }
  std::printf("pipeline: %d/%zu replies ok (matched out of order)\n",
              accepted, inflight.size());

  // --- Act 3: a verify session over the wire ------------------------------
  const net::WireClient::Reply opened = client.wait(
      client.sendOpenSession(g, "connectivity", cert.labels));
  if (!opened.ok()) std::abort();
  const std::uint64_t session = net::decodeSessionHandle(opened.body);
  std::string corrupt = cert.labels[0];
  corrupt[corrupt.size() / 2] ^= 0x40;
  const auto tamper = net::decodeVerifyResult(
      client.wait(client.sendReverify(session, {{EdgeId{0}, corrupt}})).body);
  const auto restore = net::decodeVerifyResult(
      client
          .wait(client.sendReverify(session, {{EdgeId{0}, cert.labels[0]}}))
          .body);
  std::printf("session: corrupt edge 0 -> %s, restore -> %s\n",
              tamper.allAccept ? "ACCEPT (bug!)" : "reject",
              restore.allAccept ? "accept" : "REJECT (bug!)");
  client.wait(client.sendCloseSession(session));

  // --- Act 4: graceful drain ----------------------------------------------
  std::vector<std::uint64_t> pending;
  for (int i = 0; i < 4; ++i) pending.push_back(client.sendProve(g, "connectivity"));
  // Read barrier: the ping reply proves the server has READ the proves
  // above (requests on one connection are read in order) — drain promises
  // a terminal reply for every request it has seen, not for bytes still
  // in flight when the listener closes.
  if (!client.wait(client.sendPing()).ok()) std::abort();
  server.requestDrain();
  int terminal = 0;
  for (std::uint64_t id : pending) {
    const net::WireClient::Reply r = client.wait(id);
    if (r.ok() || r.status == net::Status::kCancelled ||
        r.status == net::Status::kShuttingDown) {
      ++terminal;
    }
  }
  std::printf("drain: %d/%zu in-flight requests resolved terminally\n",
              terminal, pending.size());
  bool lateRejected = false;
  try {
    net::WireClient late;
    late.connect("127.0.0.1", server.port());
    late.wait(late.sendPing());
  } catch (const std::exception&) {
    lateRejected = true;
  }
  std::printf("drain: late connection %s\n",
              lateRejected ? "refused (listener closed)" : "ACCEPTED (bug!)");

  server.stop();
  const net::WireServerStats st = server.stats();
  std::printf("\nstats: %llu conns, %llu frames, %llu completed\n",
              static_cast<unsigned long long>(st.connectionsAccepted),
              static_cast<unsigned long long>(st.framesRead),
              static_cast<unsigned long long>(st.requestsCompleted));
  const bool ok = identical &&
                  accepted == static_cast<int>(inflight.size()) &&
                  !tamper.allAccept && restore.allAccept &&
                  terminal == static_cast<int>(pending.size()) && lateRejected;
  return ok ? 0 : 1;
}
