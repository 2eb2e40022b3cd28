// The wire workloads: an in-process net::WireServer on loopback (service
// pool = nproc) driven open loop from one thread over at most nproc
// connections.  Every request has a DUE time on a fixed-rate schedule;
// latency is charged from the due time, and the generator's own lateness
// is reported beside it.
//
//   wire_hot   50/30/20 prove/verify/reverify over 8 distinct 64-vertex
//              graphs (ladders and randomBoundedPathwidth k=2); the result
//              cache, stream memo, frame codec and poll loop do the work.
//   wire_cold  40/40/20 at a lower rate; every prove is a graph not seen
//              before, proved under two properties back to back (plan
//              cache hit, result cache miss), and every verify carries
//              the labels an earlier prove of the run returned.
//
// A run: set-up (nine times; the median is setup_s), warm-up, the
// measured window at the nominal rate, then a rate ladder for max_rps.
// With --trace 1 the ladder is skipped; instead a second window runs with
// spans, the same request sequence is replayed through the service's
// submit* calls without a socket, and a sample of requests is timed
// through the standalone core calls.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <set>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/prover.hpp"
#include "core/verifier.hpp"
#include "core/verify_session.hpp"
#include "graph/algorithms.hpp"
#include "mso/properties.hpp"
#include "net/protocol.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"
#include "pathwidth/pathwidth.hpp"
#include "runtime/executor.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "wire.hpp"

namespace lcbench {
namespace {

using namespace lanecert;

enum Op { kProve = 0, kVerify = 1, kReverify = 2, kOps = 3 };
const char* const kOpNames[kOps] = {"prove", "verify", "reverify"};

struct Config {
  bool cold = false;
  double rate = 0;         ///< nominal requests per second
  double limitMs = 0;      ///< p99 limit of a ladder rung
  double ladderStart = 0;  ///< first rung; rungs then grow by kLadderStep
  double warmupSeconds = 0;
  int mix[kOps] = {50, 30, 20};  ///< percent of requests per op
  std::vector<int> coldSizes;    ///< vertex counts of cold proves, in turn
  int sessionVertices = 64;
};

/// Cold verifies carry the reply of a prove due at least this long ago.
constexpr double kVerifyLagSeconds = 0.5;
/// Share of cold proves whose stream is byte-compared after the run.
constexpr double kSampleShare = 0.05;
/// Ops are drawn in shuffled blocks of this many slots holding exactly the
/// mix's share of each op, so every window has the same composition.
constexpr int kMixBlock = 20;

constexpr double kLadderStep = 1.25;
constexpr int kLadderMaxRungs = 10;
/// Bisections between the last passing and the first failing rung.
constexpr int kLadderBisections = 2;
/// Tries of a rung before it counts as failed: host stalls of a second or
/// two failed two 1-s tries in a row at rates far below the knee.
constexpr int kRungTries = 3;
/// Shares of --seconds: the measured window, then the ladder.  A traced
/// run has no ladder; its untraced window, traced window and service
/// replay take kTracedWindowShare each.
constexpr double kWindowShare = 0.6;
constexpr double kLadderShare = 0.4;
constexpr double kTracedWindowShare = 0.3;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

Config configFor(const std::string& workload) {
  Config c;
  if (workload == "wire_hot") {
    c.rate = 300;
    c.limitMs = 150;
    c.ladderStart = 800;
    c.warmupSeconds = 1.5;
    c.sessionVertices = 64;
  } else {
    c.cold = true;
    c.rate = 50;
    c.limitMs = 400;
    c.ladderStart = 100;
    c.warmupSeconds = 1.0;
    // Verifies slightly outnumber proves, so each prove reply finds a
    // verify soon after its lag; the spare verifies carry session labels.
    c.mix[kProve] = 40;
    c.mix[kVerify] = 45;
    c.mix[kReverify] = 15;
    c.coldSizes = {64, 128, 256};
    c.sessionVertices = 256;
  }
  return c;
}

constexpr int kHotDistinct = 8;
constexpr int kHotVertices = 64;
constexpr int kHotLadders = 3;
constexpr std::uint64_t kHotGraphSeed = 64;
/// Every graph is certified for connectivity; a cold graph is also
/// certified for "maxdeg:<its max degree>", which holds by construction.
constexpr const char* kConnectivity = "connectivity";

/// One scheduled request.  Content is fixed when the plan is made; only
/// a cold verify's labels come from a reply received during the run.
struct Req {
  Op op = kProve;
  double due = 0;  ///< seconds from the start of the window
  int conn = 0;
  int graph = -1;   ///< hot: instance index; cold: graph number (a cold
                    ///< verify without a source: session graph index)
  int prop = 0;     ///< 0 = connectivity, 1 = the graph's maxdeg property
  int source = -1;  ///< cold verify: plan index of the prove it checks
  int session = 0;  ///< reverify: session index
  EdgeId edge = kNoEdge;
  bool sample = false;  ///< cold prove: byte-compare after the run
};

/// A window's requests plus the cold proves no verify of the window
/// carries (their replies are verified in-process after the run).
struct Plan {
  std::vector<Req> reqs;
  std::set<int> tails;
};

struct Outcome {
  Timing t;
  bool done = false;
  bool ok = false;
  bool rejected = false;
};

struct Primed {
  Graph g;
  std::vector<std::string> labels;  ///< connectivity certificate
  std::string stream;               ///< its wire certificate stream
};

/// A connection of the load generator: non-blocking, pipelined.
struct Conn {
  int fd = -1;
  net::FrameParser parser{net::kDefaultMaxFrameBytes};
  std::deque<std::string> out;
  std::size_t outOff = 0;
  std::unordered_map<std::uint64_t, std::string> streams;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

int connectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Server, primed instances and load connections of one run.
struct Rig {
  std::unique_ptr<net::WireServer> server;
  net::WireClient primer;  ///< owns the reverify sessions; stays open
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<Primed> hot;       ///< wire_hot's distinct graphs
  std::vector<Primed> sessions;  ///< one reverify session graph per conn
  std::vector<std::uint64_t> sessionHandles;
  std::vector<int> pinned;  ///< the service pool's workers
};

class WireRun {
 public:
  WireRun(const Args& args, Report& report, Config cfg)
      : args_(args), report_(report), cfg_(std::move(cfg)),
        threads_(hardwareThreads()),
        numConns_(std::min(threads_, 4)) {}

  // --- set-up -------------------------------------------------------------

  std::unique_ptr<Rig> makeRig() {
    auto rig = std::make_unique<Rig>();
    net::WireServerOptions opts;
    opts.service.numThreads = threads_;
    // The constructor starts the service pool; pin its workers one per
    // CPU.  Unpinned, for stretches of seconds a job's shard helpers did
    // not start until the posting worker had run every shard itself
    // (probably woken onto its busy CPU): hot verifies took ~5 ms, the
    // serial time, instead of ~2.7 ms, reverifies ~0.6 ms instead of
    // ~1.3 ms, and the per-op medians jumped between runs.
    const std::set<int> before = threadIds();
    rig->server = std::make_unique<net::WireServer>(opts);
    rig->pinned = pinThreadsSince(before);
    rig->server->start();
    rig->primer.connect("127.0.0.1", rig->server->port());
    Rng rng(args_.seed);
    auto prime = [&](Graph g) {
      const net::WireClient::Reply r = rig->primer.prove(g, kConnectivity);
      if (!r.ok()) throw std::runtime_error("priming prove failed");
      net::CertificateStream cs = net::decodeCertificateStream(r.stream);
      if (!cs.propertyHolds) throw std::runtime_error("priming prove false");
      return Primed{std::move(g), std::move(cs.labels), r.stream};
    };
    if (!cfg_.cold) {
      // The same 8 graphs on every seed: the seed drives the request
      // sequence, so hot figures do not move with graph structure.  Three
      // ladders and five rbpw2 graphs: the two families verify at
      // different speeds, and an even split would put every op's median
      // on the boundary between them.
      Rng hotRng(kHotGraphSeed);
      for (int i = 0; i < kHotDistinct; ++i) {
        rig->hot.push_back(prime(i < kHotLadders ? ladder(kHotVertices)
                                                 : rbpw2(kHotVertices, hotRng)));
      }
    }
    // Reverify sessions live on rbpw2 graphs only, for the same reason.
    for (int c = 0; c < numConns_; ++c) {
      rig->sessions.push_back(
          cfg_.cold ? prime(rbpw2(cfg_.sessionVertices, rng))
                    : rig->hot[static_cast<std::size_t>(
                          kHotLadders + c % (kHotDistinct - kHotLadders))]);
      const Primed& s = rig->sessions.back();
      const net::WireClient::Reply r = rig->primer.wait(
          rig->primer.sendOpenSession(s.g, kConnectivity, s.labels));
      if (!r.ok()) throw std::runtime_error("open-session failed");
      rig->sessionHandles.push_back(net::decodeSessionHandle(r.body));
    }
    for (int c = 0; c < numConns_; ++c) {
      auto conn = std::make_unique<Conn>();
      conn->fd = connectLoopback(rig->server->port());
      rig->conns.push_back(std::move(conn));
    }
    return rig;
  }

  // --- plans --------------------------------------------------------------

  /// `seconds` of requests at `rate`, drawn from a generator seeded by
  /// (seed, planId).  Cold graphs are numbered run-wide so none repeats.
  Plan makePlan(double rate, double seconds, int planId) {
    Rng rng(args_.seed * 1000003ull + static_cast<std::uint64_t>(planId));
    const auto n = static_cast<std::size_t>(rate * seconds);
    Plan result;
    std::vector<Req>& plan = result.reqs;
    plan.resize(n);
    std::deque<int> unverified;  // cold prove indices awaiting a verify
    int openPair = -1;           // cold graph proved for connectivity only
    std::vector<Op> block;
    for (std::size_t i = 0; i < n; ++i) {
      Req& r = plan[i];
      r.due = static_cast<double>(i) / rate;
      r.conn = static_cast<int>(i % static_cast<std::size_t>(numConns_));
      if (block.empty()) {
        for (int op = 0; op < kOps; ++op) {
          block.insert(block.end(), cfg_.mix[op] * kMixBlock / 100,
                       static_cast<Op>(op));
        }
        std::shuffle(block.begin(), block.end(), rng.engine());
      }
      r.op = block.back();
      block.pop_back();
      if (r.op == kReverify) {
        r.session = r.conn;
        const Graph& g = sessionGraph(r.session);
        r.edge = static_cast<EdgeId>(rng.uniformInt(0, g.numEdges() - 1));
      } else if (!cfg_.cold) {
        r.graph = rng.uniformInt(0, kHotDistinct - 1);
      } else if (r.op == kProve) {
        if (openPair >= 0) {
          r.graph = openPair;
          r.prop = 1;
          openPair = -1;
        } else {
          r.graph = newColdGraph();
          openPair = r.graph;
        }
        r.sample = rng.flip(kSampleShare);
        unverified.push_back(static_cast<int>(i));
      } else {
        // Verify the oldest reply that is due long enough ago; before
        // one exists, a session graph's primed labels stand in.
        if (!unverified.empty() &&
            plan[static_cast<std::size_t>(unverified.front())].due <=
                r.due - kVerifyLagSeconds) {
          r.source = unverified.front();
          unverified.pop_front();
          r.graph = plan[static_cast<std::size_t>(r.source)].graph;
          r.prop = plan[static_cast<std::size_t>(r.source)].prop;
        } else {
          r.graph = rng.uniformInt(0, numConns_ - 1);
        }
      }
    }
    result.tails.insert(unverified.begin(), unverified.end());
    return result;
  }

  int newColdGraph() {
    const int id = static_cast<int>(coldGraphs_.size());
    const int size =
        cfg_.coldSizes[static_cast<std::size_t>(id) % cfg_.coldSizes.size()];
    Rng g(args_.seed * 7777ull + static_cast<std::uint64_t>(id));
    coldGraphs_.push_back(rbpw2(size, g));
    return id;
  }

  /// Registry name of property `prop` (see Req::prop) for cold graph
  /// `graph`; hot and session graphs only use connectivity.
  std::string propName(int graph, int prop) const {
    if (prop == 0) return kConnectivity;
    return "maxdeg:" +
           std::to_string(maxDegree(coldGraphs_[static_cast<std::size_t>(graph)]));
  }

  const Graph& sessionGraph(int s) const {
    return rig_->sessions[static_cast<std::size_t>(s)].g;
  }
  const Graph& graphOf(const Req& r) const {
    if (r.op == kReverify) return sessionGraph(r.session);
    if (!cfg_.cold) return rig_->hot[static_cast<std::size_t>(r.graph)].g;
    if (r.op == kVerify && r.source < 0) return sessionGraph(r.graph);
    return coldGraphs_[static_cast<std::size_t>(r.graph)];
  }

  // --- the open-loop generator -------------------------------------------

  /// Sends `plan` on its schedule and collects every reply.  `tracer`
  /// records one net.<op> span per request, from send to reply.
  std::vector<Outcome> execute(const std::vector<Req>& plan, Tracer* tracer,
                               const char* window) {
    std::vector<Outcome> out(plan.size());
    coldReplies_.clear();
    const std::uint64_t base = nextId_;
    nextId_ += plan.size();
    std::vector<std::size_t> held;  // cold verifies waiting for a reply
    std::size_t next = 0, outstanding = 0;
    const double lastDue = plan.empty() ? 0 : plan.back().due;
    const double drainSeconds = cfg_.cold ? 8.0 : 3.0;
    backlogAtEnd_ = 0;
    bool endSeen = false;
    const auto start = Clock::now();
    auto now = [&] { return secondsSince(start); };

    auto trySend = [&](std::size_t i) {
      std::optional<std::string> payload = encode(plan[i], base + i);
      if (!payload) return false;
      Conn& c = *rig_->conns[static_cast<std::size_t>(plan[i].conn)];
      c.out.push_back(net::encodeFrame(*payload));
      out[i].t.due = plan[i].due;
      out[i].t.sent = now();
      ++outstanding;
      return true;
    };

    std::vector<pollfd> pfds(rig_->conns.size());
    while (true) {
      const double t = now();
      while (next < plan.size() && plan[next].due <= t) {
        if (!trySend(next)) held.push_back(next);
        ++next;
      }
      for (std::size_t h = 0; h < held.size();) {
        if (trySend(held[h])) {
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(h));
        } else {
          ++h;
        }
      }
      if (!endSeen && t >= lastDue) {
        endSeen = true;
        backlogAtEnd_ = outstanding + held.size() + (plan.size() - next);
      }
      if (next == plan.size() && held.empty() && outstanding == 0) break;
      if (t > lastDue + drainSeconds) break;

      bool wantWrite = false;
      for (std::size_t c = 0; c < rig_->conns.size(); ++c) {
        flush(*rig_->conns[c]);
        pfds[c] = {rig_->conns[c]->fd,
                   static_cast<short>(POLLIN | (rig_->conns[c]->out.empty()
                                                    ? 0
                                                    : POLLOUT)),
                   0};
        wantWrite |= !rig_->conns[c]->out.empty();
      }
      double waitS = next < plan.size() ? plan[next].due - now() : 0.002;
      if (!held.empty() || wantWrite) waitS = std::min(waitS, 0.0005);
      waitS = std::clamp(waitS, 0.0, 0.002);
      const timespec ts{0, static_cast<long>(waitS * 1e9)};
      if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 &&
          errno != EINTR) {
        throw std::runtime_error("ppoll failed");
      }
      for (std::size_t c = 0; c < rig_->conns.size(); ++c) {
        if (pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
          readReplies(*rig_->conns[c], plan, base, out, outstanding, now,
                      tracer);
        }
      }
    }
    std::size_t lost = 0;
    for (const Outcome& o : out) lost += o.done ? 0 : 1;
    if (lost > 0) {
      report_.note(std::string(window) + ": " + std::to_string(lost) +
                   " requests without a reply");
      // Replies still in flight would land in the next window: start it
      // on fresh connections.
      for (auto& c : rig_->conns) {
        auto fresh = std::make_unique<Conn>();
        fresh->fd = connectLoopback(rig_->server->port());
        c = std::move(fresh);
      }
    }
    return out;
  }

  void flush(Conn& c) {
    while (!c.out.empty()) {
      const std::string& front = c.out.front();
      const ssize_t n = ::send(c.fd, front.data() + c.outOff,
                               front.size() - c.outOff, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      c.outOff += static_cast<std::size_t>(n);
      if (c.outOff == front.size()) {
        c.out.pop_front();
        c.outOff = 0;
      }
    }
  }

  template <typename Now>
  void readReplies(Conn& c, const std::vector<Req>& plan, std::uint64_t base,
                   std::vector<Outcome>& out, std::size_t& outstanding,
                   Now&& now, Tracer* tracer) {
    static thread_local std::vector<char> buf(1 << 20);
    for (int rounds = 0; rounds < 8; ++rounds) {
      const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
      }
      std::vector<std::string> frames;
      if (!c.parser.feed(std::string_view(buf.data(),
                                          static_cast<std::size_t>(n)),
                         frames)) {
        throw std::runtime_error("framing error: " + c.parser.error());
      }
      for (const std::string& f : frames) {
        const net::WireResponse resp = net::decodeResponse(f);
        if (resp.requestId < base || resp.requestId >= base + plan.size()) {
          continue;  // a late reply of an earlier window
        }
        const std::size_t i = resp.requestId - base;
        std::string body;
        switch (resp.status) {
          case net::Status::kStreamBegin:
            c.streams[resp.requestId].clear();
            continue;
          case net::Status::kChunk: {
            Decoder dec{std::string_view(resp.body)};
            (void)dec.u64();
            c.streams[resp.requestId].append(resp.body, dec.pos());
            continue;
          }
          case net::Status::kStreamEnd:
            body = std::move(c.streams[resp.requestId]);
            c.streams.erase(resp.requestId);
            break;
          default:
            body = resp.body;
        }
        Outcome& o = out[i];
        if (o.done) continue;
        o.done = true;
        o.t.done = now();
        --outstanding;
        o.rejected = resp.status == net::Status::kRejected;
        const bool terminalOk = resp.status == net::Status::kOk ||
                                resp.status == net::Status::kStreamEnd;
        o.ok = terminalOk && checkReply(plan, i, body);
        if (tracer != nullptr) {
          tracer->record(std::string("net.") + kOpNames[plan[i].op],
                         o.t.sent * 1e3 + windowOriginMs_,
                         o.t.done * 1e3 + windowOriginMs_, -1, base + i);
        }
      }
    }
  }

  std::optional<std::string> encode(const Req& r, std::uint64_t id) {
    switch (r.op) {
      case kProve:
        return net::encodeProveRequest(id, graphOf(r), propName(r.graph, r.prop));
      case kReverify: {
        const Primed& s = rig_->sessions[static_cast<std::size_t>(r.session)];
        return net::encodeReverifyRequest(
            id, rig_->sessionHandles[static_cast<std::size_t>(r.session)],
            {{r.edge, s.labels[static_cast<std::size_t>(r.edge)]}});
      }
      case kVerify:
      case kOps:
        break;
    }
    if (!cfg_.cold) {
      const Primed& p = rig_->hot[static_cast<std::size_t>(r.graph)];
      return net::encodeVerifyRequest(id, p.g, kConnectivity, p.labels);
    }
    if (r.source < 0) {
      const Primed& p = rig_->sessions[static_cast<std::size_t>(r.graph)];
      return net::encodeVerifyRequest(id, p.g, kConnectivity, p.labels);
    }
    const auto it = coldReplies_.find(r.source);
    if (it == coldReplies_.end()) return std::nullopt;  // not replied yet
    const std::string payload =
        net::encodeVerifyRequest(id, graphOf(r), propName(r.graph, r.prop), it->second);
    coldReplies_.erase(it);
    return payload;
  }

  /// Checks one terminal reply; keeps what later requests and the
  /// post-run checks need.
  bool checkReply(const std::vector<Req>& plan, std::size_t i,
                  const std::string& body) {
    const Req& r = plan[i];
    if (r.op != kProve) {
      return net::decodeVerifyResult(body).allAccept;
    }
    if (!cfg_.cold) {
      return body == rig_->hot[static_cast<std::size_t>(r.graph)].stream;
    }
    net::CertificateStream cs = net::decodeCertificateStream(body);
    if (!cs.propertyHolds ||
        cs.labels.size() != static_cast<std::size_t>(graphOf(r).numEdges())) {
      return false;
    }
    windowCertBytes_ += labelBytes(cs.labels);
    if (!measured_) {
      // Warm-up and ladder windows: the reply still has to certify, and a
      // verify of the window may carry it; no post-run checks.
      if (currentPlan_->tails.count(static_cast<int>(i)) == 0) {
        coldReplies_[static_cast<int>(i)] = std::move(cs.labels);
      }
      return true;
    }
    if (r.sample) samples_.push_back({r.graph, r.prop, body});
    if (currentPlan_->tails.count(static_cast<int>(i)) != 0) {
      tails_.push_back({r.graph, r.prop, std::move(cs.labels)});
    } else {
      coldReplies_[static_cast<int>(i)] = std::move(cs.labels);
    }
    return true;
  }

  // --- windows ------------------------------------------------------------

  /// Runs one window.  `measured` windows feed the post-run checks.
  std::vector<Outcome> window(const Plan& plan, Tracer* tracer,
                              const char* name, bool measured) {
    currentPlan_ = &plan;
    measured_ = measured;
    windowCertBytes_ = 0;
    if (tracer != nullptr) windowOriginMs_ = tracer->nowMs();
    std::vector<Outcome> out = execute(plan.reqs, tracer, name);
    currentPlan_ = nullptr;
    return out;
  }

  /// Counts a measured window's requests against the run.
  void account(const std::vector<Req>& plan, const std::vector<Outcome>& out) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      report_.attempt(out[i].ok, std::string(kOpNames[plan[i].op]) + " #" +
                                     std::to_string(i) +
                                     (out[i].rejected ? " rejected"
                                      : out[i].done  ? " wrong reply"
                                                     : " no reply"));
    }
  }

  static std::vector<double> latencies(const std::vector<Req>& plan,
                                       const std::vector<Outcome>& out,
                                       int op, bool fromDue = true) {
    std::vector<double> v;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (op >= 0 && plan[i].op != op) continue;
      // A failed or missing reply misses every limit.
      if (!out[i].ok) {
        v.push_back(1e9);
        continue;
      }
      v.push_back(fromDue ? latencyFromDueMs(out[i].t)
                          : latencyFromSendMs(out[i].t));
    }
    return v;
  }

  /// One ladder rung: a fresh plan at `rate`, drained before it starts.
  Rung rung(double rate, double seconds, int planId) {
    const Plan plan = makePlan(rate, seconds, planId);
    const std::vector<Outcome> out = window(plan, nullptr, "ladder", false);
    Rung r;
    r.rate = rate;
    r.p99Ms = percentile(latencies(plan.reqs, out, -1), 0.99);
    r.backlogGrew = backlogGrew(backlogAtEnd_, rate, cfg_.limitMs);
    for (const Outcome& o : out) {
      if (!o.ok) ++r.failed;
      // Overload may reject or delay a request; it may never answer wrongly.
      report_.check(!o.done || o.rejected || o.ok,
                    "wrong reply under ladder load");
    }
    report_.note("ladder: " + std::to_string(rate) + " req/s p99 " +
                 std::to_string(r.p99Ms) + " ms backlog " +
                 std::to_string(backlogAtEnd_) + " failed " +
                 std::to_string(r.failed));
    return r;
  }

  /// Geometric rungs from ladderStart until one fails, then bisection
  /// between the last pass and the first failure.  A failing rung is run
  /// again, up to kRungTries times in all, and counts as failed only if
  /// every try fails, so a stall of the machine does not end the ladder.
  double maxRps() {
    const double rungSeconds =
        args_.seconds * kLadderShare / (kLadderMaxRungs + kLadderBisections);
    std::vector<Rung> rungs;
    int planId = 100;
    auto probe = [&](double rate) {
      Rung r = rung(rate, rungSeconds, planId++);
      for (int t = 1; t < kRungTries && !rungPasses(r, cfg_.limitMs); ++t) {
        r = rung(rate, rungSeconds, planId++);
      }
      rungs.push_back(r);
      return rungPasses(r, cfg_.limitMs);
    };
    double lo = 0, hi = 0;
    for (double rate = cfg_.ladderStart;
         rungs.size() < static_cast<std::size_t>(kLadderMaxRungs);
         rate *= kLadderStep) {
      if (!probe(rate)) {
        hi = rate;
        break;
      }
      lo = rate;
    }
    for (int b = 0; b < kLadderBisections && lo > 0 && hi > 0; ++b) {
      const double mid = std::sqrt(lo * hi);
      (probe(mid) ? lo : hi) = mid;
    }
    return selectMaxRps(rungs, cfg_.limitMs);
  }

  // --- post-run checks (untimed) -----------------------------------------

  void postChecks() {
    ParallelExecutor exec(threads_);
    auto verifies = [&](const Graph& g, const std::string& prop,
                        const std::vector<std::string>& labels) {
      return simulateEdgeScheme(g, IdAssignment::identity(g.numVertices()),
                                labels, makeCoreVerifier(propertyByName(prop)),
                                exec)
          .allAccept;
    };
    auto reference = [&](const Graph& g, const std::string& prop) {
      const CoreProveResult r =
          proveCore(g, IdAssignment::identity(g.numVertices()),
                    *propertyByName(prop), nullptr, threads_);
      return net::encodeCertificateStream(r.propertyHolds, r.labels);
    };
    // Hot: every prove reply equals its graph's primed stream, so checking
    // the primed streams checks them all.
    for (const Primed& p : rig_->hot) {
      report_.attempt(reference(p.g, kConnectivity) == p.stream,
                      "wire stream differs from in-process proveCore");
      report_.attempt(verifies(p.g, kConnectivity, p.labels),
                      "primed certificate rejected");
    }
    for (const Sample& s : samples_) {
      report_.attempt(reference(coldGraphs_[static_cast<std::size_t>(s.graph)],
                                propName(s.graph, s.prop)) == s.stream,
                      "sampled wire stream differs from in-process proveCore");
    }
    // Cold proves no later verify of the run carried: verify them here.
    for (const Tail& t : tails_) {
      report_.attempt(verifies(coldGraphs_[static_cast<std::size_t>(t.graph)],
                               propName(t.graph, t.prop), t.labels),
                      "cold prove reply rejected");
    }
    report_.note("checks: " + std::to_string(samples_.size() + rig_->hot.size()) +
                 " streams byte-compared, " + std::to_string(tails_.size()) +
                 " tail replies verified in-process");
  }

  void run(Metrics& m);

 private:
  struct Sample {
    int graph, prop;
    std::string stream;
  };
  struct Tail {
    int graph, prop;
    std::vector<std::string> labels;
  };

  void traced(Metrics& m, const Plan& warm, double untracedP50);
  void serveReplay(Metrics& m, Tracer& tr, const Plan& warm, const Plan& plan,
                   const std::vector<Outcome>& wire);
  void standaloneCore(Metrics& m, Tracer& tr, const Plan& plan,
                      const std::vector<double>& serveMs);

  const Args& args_;
  Report& report_;
  Config cfg_;
  int threads_;
  int numConns_;
  std::unique_ptr<Rig> rig_;
  std::uint64_t nextId_ = 1;
  std::vector<Graph> coldGraphs_;
  std::unordered_map<int, std::vector<std::string>> coldReplies_;
  const Plan* currentPlan_ = nullptr;
  bool measured_ = false;
  std::vector<Sample> samples_;
  std::vector<Tail> tails_;
  std::uint64_t windowCertBytes_ = 0;
  std::size_t backlogAtEnd_ = 0;
  double windowOriginMs_ = 0;
};

std::vector<double> pickOp(const std::vector<double>& v,
                           const std::vector<Req>& plan, Op op) {
  std::vector<double> out;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].op == op) out.push_back(v[i]);
  }
  return out;
}

void WireRun::run(Metrics& m) {
  std::vector<double> setup;
  for (int i = 0; i < kSetups; ++i) {
    rig_.reset();  // the previous set-up is torn down untimed
    const auto t0 = Clock::now();
    rig_ = makeRig();
    setup.push_back(secondsSince(t0));
  }
  m["setup_s"] = median(setup);

  const Plan warm = makePlan(cfg_.rate, cfg_.warmupSeconds, 0);
  for (const Outcome& o : window(warm, nullptr, "warm-up", false)) {
    report_.check(!o.done || o.rejected || o.ok, "wrong reply in warm-up");
  }

  const Plan plan = makePlan(
      cfg_.rate,
      args_.seconds * (args_.trace ? kTracedWindowShare : kWindowShare), 1);
  const std::vector<Outcome> out = window(plan, nullptr, "window", true);
  account(plan.reqs, out);
  const std::vector<double> all = latencies(plan.reqs, out, -1);
  m["p50_ms"] = percentile(all, 0.50);
  m["p99_ms"] = windowedPercentile(all, 0.99);
  m["prove_s"] = median(latencies(plan.reqs, out, kProve)) / 1e3;
  m["verify_s"] = median(latencies(plan.reqs, out, kVerify)) / 1e3;
  m["reverify_ms"] = median(latencies(plan.reqs, out, kReverify));
  if (cfg_.cold) {
    m["cert_bytes"] = static_cast<double>(windowCertBytes_);
  } else {
    std::uint64_t bytes = 0;
    for (const Primed& p : rig_->hot) bytes += labelBytes(p.labels);
    m["cert_bytes"] = static_cast<double>(bytes);
  }
  std::vector<double> late;
  for (const Outcome& o : out) late.push_back(latenessMs(o.t));
  report_.note(args_.workload + ": " + std::to_string(plan.reqs.size()) +
               " requests at " + std::to_string(cfg_.rate) + " req/s over " +
               std::to_string(numConns_) + " connections; p99 has " +
               std::to_string(samplesBeyond(all.size(), 0.99)) +
               " samples beyond it; generator late p99 " +
               std::to_string(percentile(late, 0.99)) + " ms");
  for (int op = 0; op < kOps; ++op) {
    const std::vector<double> v = latencies(plan.reqs, out, op);
    report_.note(std::string("  ") + kOpNames[op] + ": " +
                 std::to_string(v.size()) + " requests, p50 " +
                 std::to_string(percentile(v, 0.5)) + " ms, p99 " +
                 std::to_string(percentile(v, 0.99)) + " ms");
  }

  if (args_.trace) {
    traced(m, warm, m["p50_ms"]);
  } else {
    // The ladder runs unpinned: at saturation every pinned worker is busy
    // and the poll loop and the generator queue behind them; pinned,
    // max_rps spread 0.25 of its median over ten seeds.
    unpinThreads(rig_->pinned);
    m["max_rps"] = maxRps();
  }
  postChecks();
}

void WireRun::traced(Metrics& m, const Plan& warm, double untracedP50) {
  Tracer tr(true);
  const Plan plan =
      makePlan(cfg_.rate, args_.seconds * kTracedWindowShare, 2);
  const net::WireServerStats before = rig_->server->stats();
  const std::vector<Outcome> out = window(plan, &tr, "traced window", true);
  const net::WireServerStats after = rig_->server->stats();
  account(plan.reqs, out);

  const double p50 = percentile(latencies(plan.reqs, out, -1), 0.5);
  m["trace.overhead_pct"] = 100.0 * (p50 - untracedP50) / untracedP50;
  for (int op = 0; op < kOps; ++op) {
    m[std::string("client.") + kOpNames[op] + "_p99_ms"] =
        percentile(latencies(plan.reqs, out, op), 0.99);
  }
  std::vector<double> late;
  for (const Outcome& o : out) late.push_back(latenessMs(o.t));
  m["gen.late_p99_ms"] = percentile(late, 0.99);

  auto delta = [&](std::uint64_t net::WireServerStats::*f) {
    return static_cast<double>(after.*f - before.*f);
  };
  m["net.frames_read"] = delta(&net::WireServerStats::framesRead);
  m["net.stream_encodes"] = delta(&net::WireServerStats::streamEncodes);
  const double reuses = delta(&net::WireServerStats::streamEncodeReuses);
  const double scatters = reuses + m["net.stream_encodes"];
  m["net.stream_reuse_ratio"] = scatters > 0 ? reuses / scatters : 0;
  m["net.cert_bytes_queued"] =
      delta(&net::WireServerStats::certificateBytesQueued);
  m["net.short_writes"] = delta(&net::WireServerStats::shortWrites);
  m["net.quota_rejected"] = delta(&net::WireServerStats::quotaRejected);

  serveReplay(m, tr, warm, plan, out);
  for (const auto& [layer, ms] : selfTimeByLayerMs(tr.spans())) {
    m["self." + layer + "_ms"] = ms;
  }
  tr.dump(args_.scratchDir + "/trace-" + args_.workload + "-" +
          std::to_string(args_.seed) + ".jsonl");
}

/// Replays the traced window's request sequence through a fresh service's
/// submit* calls (no socket), on the same schedule, after replaying the
/// warm-up too so the caches start in the state the wire run had.
void WireRun::serveReplay(Metrics& m, Tracer& tr, const Plan& warm,
                          const Plan& plan, const std::vector<Outcome>& wire) {
  serve::ServiceOptions so;
  so.numThreads = threads_;
  const std::set<int> before = threadIds();
  serve::LaneCertService svc(so);
  pinThreadsSince(before);  // as the wire server's pool (see makeRig)
  std::vector<std::uint64_t> handles;
  for (const Primed& s : rig_->sessions) {
    handles.push_back(svc.openVerifySession(serve::VerifyJob{
        s.g, IdAssignment::identity(s.g.numVertices()),
        std::make_shared<const std::vector<std::string>>(s.labels),
        propertyByName(kConnectivity), {}, 0, {}}));
  }

  std::vector<double> serveMs(plan.reqs.size(), 0);
  double hits[kOps] = {0, 0, 0}, submits[kOps] = {0, 0, 0};
  serve::ServiceStats statsBefore{};

  auto replay = [&](const Plan& p, bool traced) {
    const std::vector<Req>& reqs = p.reqs;
    struct Pending {
      std::size_t i;
      double submitted;
      std::shared_future<CoreProveResult> prove;
      std::shared_future<SimulationResult> verify;
    };
    std::vector<Pending> pending;
    std::unordered_map<int, std::vector<std::string>> proved;
    std::vector<std::size_t> held;
    std::size_t next = 0;
    const double originMs = tr.nowMs();
    const auto start = Clock::now();
    auto submit = [&](std::size_t i) {
      const Req& r = reqs[i];
      const Graph& g = graphOf(r);
      const IdAssignment ids = IdAssignment::identity(g.numVertices());
      const std::uint64_t hitsBefore = svc.stats().resultCacheHits;
      Pending pd{i, secondsSince(start), {}, {}};
      if (r.op == kProve) {
        pd.prove = svc.submitProve(
            serve::ProveJob{g, ids, propertyByName(propName(r.graph, r.prop)), {}, {}});
      } else if (r.op == kReverify) {
        const Primed& s = rig_->sessions[static_cast<std::size_t>(r.session)];
        pd.verify = svc.submitReverify(serve::ReverifyJob{
            handles[static_cast<std::size_t>(r.session)],
            {{r.edge, s.labels[static_cast<std::size_t>(r.edge)]}},
            {}});
      } else {
        // A fresh payload per request, as the wire server decodes one.
        std::vector<std::string> labels;
        int prop = 0;
        if (!cfg_.cold) {
          labels = rig_->hot[static_cast<std::size_t>(r.graph)].labels;
        } else if (r.source < 0) {
          labels = rig_->sessions[static_cast<std::size_t>(r.graph)].labels;
        } else {
          const auto it = proved.find(r.source);
          if (it == proved.end()) return false;
          labels = std::move(it->second);
          proved.erase(it);
          prop = r.prop;
        }
        pd.verify = svc.submitVerify(serve::VerifyJob{
            g, ids,
            std::make_shared<const std::vector<std::string>>(
                std::move(labels)),
            propertyByName(propName(r.graph, prop)), {}, 0, {}});
      }
      if (traced) {
        submits[r.op] += 1;
        hits[r.op] +=
            static_cast<double>(svc.stats().resultCacheHits - hitsBefore);
      }
      pending.push_back(std::move(pd));
      return true;
    };
    while (next < reqs.size() || !held.empty() || !pending.empty()) {
      const double t = secondsSince(start);
      while (next < reqs.size() && reqs[next].due <= t) {
        if (!submit(next)) held.push_back(next);
        ++next;
      }
      for (std::size_t h = 0; h < held.size();) {
        if (submit(held[h])) {
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(h));
        } else {
          ++h;
        }
      }
      for (std::size_t k = 0; k < pending.size();) {
        Pending& pd = pending[k];
        const bool ready =
            pd.prove.valid()
                ? pd.prove.wait_for(std::chrono::seconds(0)) ==
                      std::future_status::ready
                : pd.verify.wait_for(std::chrono::seconds(0)) ==
                      std::future_status::ready;
        if (!ready) {
          ++k;
          continue;
        }
        const double done = secondsSince(start);
        const Req& r = reqs[pd.i];
        bool ok = false;
        if (pd.prove.valid()) {
          const CoreProveResult& res = pd.prove.get();
          ok = res.propertyHolds;
          if (cfg_.cold && p.tails.count(static_cast<int>(pd.i)) == 0) {
            proved[static_cast<int>(pd.i)] = res.labels;
          }
        } else {
          ok = pd.verify.get().allAccept;
        }
        report_.check(ok, "serve replay: wrong result");
        if (traced) {
          serveMs[pd.i] = (done - pd.submitted) * 1e3;
          tr.record(std::string("serve.") + kOpNames[r.op],
                    originMs + pd.submitted * 1e3, originMs + done * 1e3, -1,
                    pd.i);
        }
        pending[k] = std::move(pending.back());
        pending.pop_back();
      }
      if (!pending.empty() || !held.empty() || next < reqs.size()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  };

  replay(warm, false);
  statsBefore = svc.stats();
  replay(plan, true);
  const serve::ServiceStats s = svc.stats();

  for (int op = 0; op < kOps; ++op) {
    const std::vector<double> v = pickOp(serveMs, plan.reqs, static_cast<Op>(op));
    m[std::string("serve.") + kOpNames[op] + "_ms"] = median(v);
    std::vector<double> wireMs;
    for (std::size_t i = 0; i < plan.reqs.size(); ++i) {
      if (plan.reqs[i].op == op && wire[i].ok) {
        wireMs.push_back(latencyFromSendMs(wire[i].t));
      }
    }
    m[std::string("net.overhead_ms.") + kOpNames[op]] =
        median(wireMs) - median(v);
  }
  m["serve.result_cache_hit_ratio.prove"] =
      submits[kProve] > 0 ? hits[kProve] / submits[kProve] : 0;
  m["serve.result_cache_hit_ratio.verify"] =
      submits[kVerify] > 0 ? hits[kVerify] / submits[kVerify] : 0;
  const double planHits =
      static_cast<double>(s.planCacheHits - statsBefore.planCacheHits);
  const double planBuilds =
      static_cast<double>(s.planBuilds - statsBefore.planBuilds);
  const double coalesced = static_cast<double>(
      s.planBuildsCoalesced - statsBefore.planBuildsCoalesced);
  const double lookups = planHits + planBuilds + coalesced;
  m["serve.plan_cache_hit_ratio"] = lookups > 0 ? planHits / lookups : 0;
  m["serve.plan_builds"] = planBuilds;
  m["serve.rejected"] =
      static_cast<double>(s.rejectedJobs - statsBefore.rejectedJobs);

  standaloneCore(m, tr, plan, serveMs);
}

/// Times a sample of the traced window's requests through the standalone
/// core calls, so serve.wait_ms = serve time - core time per request.
void WireRun::standaloneCore(Metrics& m, Tracer& tr, const Plan& plan,
                             const std::vector<double>& serveMs) {
  constexpr std::size_t kPerOp = 24;
  ParallelExecutor exec(threads_);
  std::vector<double> waits, repMs, planMs, proveMs, verifyMs, reverifyMs,
      applyMs;
  double dirty = 0;
  SweepCacheStats cache{};
  auto addCache = [&](const SweepCacheStats& c) {
    cache.hits += c.hits;
    cache.misses += c.misses;
    cache.memoHits += c.memoHits;
    cache.stripeContention += c.stripeContention;
  };
  std::vector<std::unique_ptr<VerifySession>> sessions;
  for (const Primed& s : rig_->sessions) {
    sessions.push_back(std::make_unique<VerifySession>(
        s.g, IdAssignment::identity(s.g.numVertices()), s.labels,
        propertyByName(kConnectivity)));
    (void)sessions.back()->verifyAll(exec);
  }
  std::size_t taken[kOps] = {0, 0, 0};
  for (std::size_t i = 0; i < plan.reqs.size(); ++i) {
    const Req& r = plan.reqs[i];
    if (taken[r.op] >= kPerOp) continue;
    ++taken[r.op];
    const Graph& g = graphOf(r);
    const IdAssignment ids = IdAssignment::identity(g.numVertices());
    double coreMs = 0;
    if (r.op == kProve) {
      const PropertyPtr prop = propertyByName(propName(r.graph, r.prop));
      ScopedSpan root(tr, "bench.request", -1, i);
      auto t0 = Clock::now();
      IntervalRepresentation rep;
      {
        ScopedSpan s(tr, "pathwidth.rep", root.id(), i);
        rep = bestIntervalRepresentation(g, 18, &exec);
      }
      repMs.push_back(msSince(t0));
      m["pathwidth.width"] = std::max<double>(m["pathwidth.width"], rep.width());
      t0 = Clock::now();
      ProvePlan pp;
      {
        ScopedSpan s(tr, "core.plan", root.id(), i);
        pp = buildProvePlan(g, &rep, &exec);
      }
      planMs.push_back(msSince(t0));
      t0 = Clock::now();
      CoreProveResult res;
      {
        ScopedSpan s(tr, "core.prove", root.id(), i);
        res = proveCore(g, ids, *prop, pp, exec);
      }
      proveMs.push_back(msSince(t0));
      coreMs = repMs.back() + planMs.back() + proveMs.back();
      m["core.lanes"] = std::max<double>(m["core.lanes"], res.stats.numLanes);
      m["core.hier_depth"] =
          std::max<double>(m["core.hier_depth"], res.stats.hierarchyDepth);
      m["core.label_bytes_max"] = std::max<double>(
          m["core.label_bytes_max"],
          static_cast<double>(maxLabelBytes(res.labels)));
    } else if (r.op == kVerify) {
      std::vector<std::string> labels;
      int prop = 0;
      if (!cfg_.cold) {
        labels = rig_->hot[static_cast<std::size_t>(r.graph)].labels;
      } else if (r.source < 0) {
        labels = rig_->sessions[static_cast<std::size_t>(r.graph)].labels;
      } else {
        prop = r.prop;
        labels = proveCore(g, ids, *propertyByName(propName(r.graph, prop)), nullptr,
                           threads_)
                     .labels;
      }
      VerifySession session(g, ids, std::move(labels),
                            propertyByName(propName(r.graph, prop)));
      ScopedSpan root(tr, "bench.request", -1, i);
      const auto t0 = Clock::now();
      {
        ScopedSpan s(tr, "core.verify", root.id(), i);
        report_.check(session.verifyAll(exec).allAccept,
                      "standalone verify rejected");
      }
      verifyMs.push_back(msSince(t0));
      coreMs = verifyMs.back();
      addCache(session.cacheStats());
    } else {
      VerifySession& session = *sessions[static_cast<std::size_t>(r.session)];
      const Primed& s = rig_->sessions[static_cast<std::size_t>(r.session)];
      const std::vector<EdgeLabelEdit> edits = {
          {r.edge, s.labels[static_cast<std::size_t>(r.edge)]}};
      ScopedSpan root(tr, "bench.request", -1, i);
      auto t0 = Clock::now();
      std::vector<VertexId> d;
      {
        ScopedSpan sp(tr, "runtime.apply_edits", root.id(), i);
        d = session.applyEdits(edits);
      }
      applyMs.push_back(msSince(t0));
      t0 = Clock::now();
      {
        ScopedSpan sp(tr, "core.reverify", root.id(), i);
        report_.check(session.reverify(d, exec).allAccept,
                      "standalone reverify rejected");
      }
      reverifyMs.push_back(msSince(t0));
      dirty += static_cast<double>(d.size());
      coreMs = applyMs.back() + reverifyMs.back();
    }
    waits.push_back(serveMs[i] - coreMs);
  }
  for (const auto& s : sessions) {
    addCache(s->cacheStats());
    m["runtime.epoch_slots"] += static_cast<double>(s->epochSlots());
  }
  m["serve.wait_ms"] = median(waits);
  m["pathwidth.rep_ms"] = median(repMs);
  m["core.plan_ms"] = median(planMs);
  m["core.prove_ms"] = median(proveMs);
  m["core.verify_ms"] = median(verifyMs);
  m["core.reverify_ms"] = median(reverifyMs);
  m["runtime.apply_edits_ms"] = median(applyMs);
  m["core.dirty_vertices"] =
      reverifyMs.empty() ? 0 : dirty / static_cast<double>(reverifyMs.size());
  m["core.sweep_cache_hits"] = static_cast<double>(cache.hits);
  m["core.sweep_cache_misses"] = static_cast<double>(cache.misses);
  m["core.sweep_memo_hits"] = static_cast<double>(cache.memoHits);
  const double probes =
      static_cast<double>(cache.hits + cache.misses + cache.memoHits);
  m["core.sweep_cache_hit_ratio"] =
      probes > 0 ? static_cast<double>(cache.hits + cache.memoHits) / probes
                 : 0;
  m["core.stripe_contention"] = static_cast<double>(cache.stripeContention);
}

}  // namespace

void runWire(const Args& args, Report& report, Metrics& m) {
  WireRun run(args, report, configFor(args.workload));
  run.run(m);
}

}  // namespace lcbench
