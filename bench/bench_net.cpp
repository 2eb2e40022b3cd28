// Wire-server throughput: the full socket path (frame codec, poll loop,
// admission control, stream scatter) under a sustained mixed workload —
// the in-process serving numbers live in bench_serve; the delta between
// the two is the price of the network boundary.
//
// BM_Net/<conns> drives <conns> loopback connections, each keeping a
// pipeline of 8 requests in flight over a 50/30/20 prove/verify/reverify
// mix against a rotating set of 4 distinct 24-vertex graphs (k = 2).
// Proves repeat, so the result cache coalesces and the stream memo
// scatters — the serving hot path.  Counters report throughput (rps) and
// client-observed latency percentiles; real time is the gated quantity
// (BENCH_net.json, enforced by scripts/check_bench.py --require BM_Net/).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/prover.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"

namespace {

using namespace lanecert;

constexpr int kPipeline = 8;
constexpr int kRequestsPerConn = 48;

struct NetFixture {
  std::unique_ptr<net::WireServer> server;
  std::vector<Graph> graphs;
  std::vector<std::vector<std::string>> labels;  ///< honest, per graph

  NetFixture() {
    net::WireServerOptions opts;
    server = std::make_unique<net::WireServer>(opts);
    server->start();
    Rng rng(42);
    for (int i = 0; i < 4; ++i) {
      Graph g = randomBoundedPathwidth(24, 2, 0.4, rng).graph;
      labels.push_back(
          proveCore(g, IdAssignment::identity(g.numVertices()),
                    *makeConnectivity())
              .labels);
      graphs.push_back(std::move(g));
    }
  }
  ~NetFixture() { server->stop(); }
};

NetFixture& fixture() {
  static NetFixture fx;
  return fx;
}

/// One connection's batch: a session, then kRequestsPerConn mixed ops with
/// kPipeline in flight.  Appends client-observed latencies to `latencyMs`.
void runConnBatch(NetFixture& fx, int threadIdx, std::vector<double>* latencyMs) {
  using Clock = std::chrono::steady_clock;
  net::WireClient client;
  client.connect("127.0.0.1", fx.server->port());
  const std::size_t w0 = static_cast<std::size_t>(threadIdx) % fx.graphs.size();
  const net::WireClient::Reply opened = client.wait(
      client.sendOpenSession(fx.graphs[w0], "connectivity", fx.labels[w0]));
  if (!opened.ok()) throw std::runtime_error("bench: open-session failed");
  const std::uint64_t session = net::decodeSessionHandle(opened.body);

  Rng rng(1000 + static_cast<std::uint64_t>(threadIdx));
  std::vector<std::pair<std::uint64_t, Clock::time_point>> inflight;
  int sent = 0;
  auto sendOne = [&]() {
    const std::size_t w = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(fx.graphs.size()) - 1));
    const int r = rng.uniformInt(0, 9);
    std::uint64_t id;
    if (r < 5) {
      id = client.sendProve(fx.graphs[w], "connectivity");
    } else if (r < 8) {
      id = client.sendVerify(fx.graphs[w], "connectivity", fx.labels[w]);
    } else {
      std::vector<EdgeLabelEdit> edits;
      const auto edge =
          static_cast<EdgeId>(rng.uniformInt(0, fx.graphs[w0].numEdges() - 1));
      edits.push_back({edge, fx.labels[w0][static_cast<std::size_t>(edge)]});
      id = client.sendReverify(session, edits);
    }
    inflight.emplace_back(id, Clock::now());
    ++sent;
  };
  while (sent < kRequestsPerConn || !inflight.empty()) {
    while (sent < kRequestsPerConn &&
           static_cast<int>(inflight.size()) < kPipeline) {
      sendOne();
    }
    const auto [id, t0] = inflight.front();
    inflight.erase(inflight.begin());
    const net::WireClient::Reply reply = client.wait(id);
    if (!reply.ok()) throw std::runtime_error("bench: request failed");
    latencyMs->push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  client.wait(client.sendCloseSession(session));
}

void BM_Net(benchmark::State& state) {
  NetFixture& fx = fixture();
  const int conns = static_cast<int>(state.range(0));
  std::vector<double> all;
  std::uint64_t completed = 0;
  for (auto _ : state) {
    std::vector<std::vector<double>> lat(static_cast<std::size_t>(conns));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(conns));
    for (int t = 0; t < conns; ++t) {
      threads.emplace_back(runConnBatch, std::ref(fx), t, &lat[t]);
    }
    for (std::thread& th : threads) th.join();
    for (const auto& v : lat) {
      completed += v.size();
      all.insert(all.end(), v.begin(), v.end());
    }
  }
  std::sort(all.begin(), all.end());
  auto pct = [&](double p) {
    return all.empty() ? 0.0
                       : all[static_cast<std::size_t>(std::min<double>(
                             static_cast<double>(all.size()) - 1,
                             p * static_cast<double>(all.size())))];
  };
  state.counters["rps"] = benchmark::Counter(static_cast<double>(completed),
                                             benchmark::Counter::kIsRate);
  state.counters["p50_ms"] = pct(0.50);
  state.counters["p99_ms"] = pct(0.99);
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}

BENCHMARK(BM_Net)->Arg(1)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
