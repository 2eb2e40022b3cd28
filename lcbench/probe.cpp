// Probe mode: runs the (generator x property) matrix once and lists the
// pairs the code cannot certify.  Each pair runs in a forked child with an
// address-space cap and a time limit, so a pair that throws bad_alloc,
// crashes or hangs is reported instead of taking the probe down.  A pair
// passes when the prover reports that the property holds and the one-shot
// verifier accepts the honest labels at every vertex.  Where a direct
// oracle exists, the verdict the property should have is printed beside it.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/prover.hpp"
#include "core/verifier.hpp"
#include "graph/algorithms.hpp"
#include "mso/properties.hpp"
#include "probe.hpp"

namespace lcbench {
namespace {

using namespace lanecert;

constexpr int kTimeoutSeconds = 30;
constexpr rlim_t kAddressSpaceCap = 4ull << 30;

struct Gen {
  std::string name;
  std::function<Graph()> make;
};

/// "maxdeg:max" stands for the graph's own maximum degree — the second
/// property wire_cold certifies.
std::string resolve(const std::string& prop, const Graph& g) {
  return prop == "maxdeg:max" ? "maxdeg:" + std::to_string(maxDegree(g))
                              : prop;
}

/// "yes"/"no" when a direct oracle decides the property, "?" otherwise.
std::string oracle(const std::string& name, const Graph& g) {
  const std::string prop = resolve(name, g);
  auto yn = [](bool b) { return std::string(b ? "yes" : "no"); };
  if (prop == "connectivity") return yn(isConnected(g));
  if (prop == "forest") return yn(isForest(g));
  if (prop == "bipartite") return yn(bipartition(g).has_value());
  if (prop == "triangle-free") return yn(countTriangles(g) == 0);
  if (prop.rfind("maxdeg:", 0) == 0) {
    return yn(maxDegree(g) <= std::stoi(prop.substr(7)));
  }
  if (prop == "3col" && bipartition(g).has_value()) return "yes";
  return "?";
}

/// Runs one pair in this (child) process; returns the outcome line.
std::string certify(const Graph& g, const std::string& propName) {
  const PropertyPtr prop = propertyByName(resolve(propName, g));
  const IdAssignment ids = IdAssignment::identity(g.numVertices());
  const int threads = hardwareThreads();
  const CoreProveResult r = proveCore(g, ids, *prop, nullptr, threads);
  if (!r.propertyHolds) return "prover-false";
  SimulationOptions so;
  so.numThreads = threads;
  const SimulationResult v =
      simulateEdgeScheme(g, ids, r.labels, makeCoreVerifier(prop), so);
  if (!v.allAccept) {
    return "verifier-rejects-honest-labels(" +
           std::to_string(v.rejecting.size()) + "/" +
           std::to_string(g.numVertices()) + " vertices, " +
           std::to_string(r.stats.numLanes) + " lanes)";
  }
  return "ok";
}

std::string runIsolated(const Graph& g, const std::string& prop) {
  int fds[2];
  if (::pipe(fds) != 0) return "pipe-failed";
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    rlimit cap{kAddressSpaceCap, kAddressSpaceCap};
    ::setrlimit(RLIMIT_AS, &cap);
    ::alarm(kTimeoutSeconds);
    std::string out;
    try {
      out = certify(g, prop);
    } catch (const std::exception& e) {
      out = std::string("exception(") + e.what() + ")";
    }
    (void)!::write(fds[1], out.data(), out.size());
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) out.append(buf, n);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFSIGNALED(status)) {
    return WTERMSIG(status) == SIGALRM
               ? "timeout(" + std::to_string(kTimeoutSeconds) + "s)"
               : "killed-by-signal-" + std::to_string(WTERMSIG(status));
  }
  return out.empty() ? "no-result" : out;
}

}  // namespace

int runProbe(const Args& args) {
  Rng rng(args.seed);
  const std::vector<Gen> gens = {
      {"ladder(64)", [] { return ladder(64); }},
      {"ladder(1024)", [] { return ladder(1024); }},
      {"rbpw2(64)",
       [&] { return randomBoundedPathwidth(64, 2, 0.4, rng).graph; }},
      {"rbpw2(512)",
       [&] { return randomBoundedPathwidth(512, 2, 0.4, rng).graph; }},
      {"rbpw2(4096)",
       [&] { return randomBoundedPathwidth(4096, 2, 0.4, rng).graph; }},
      {"randomTree(256)", [&] { return randomTree(256, rng); }},
      {"randomTree(1024)", [&] { return randomTree(1024, rng); }},
  };
  const std::vector<std::string> props = {
      "connectivity", "forest", "bipartite", "triangle-free",
      "maxdeg:16",    "maxdeg:max", "ind:1",   "3col",
      "vc:600",
  };
  int excluded = 0;
  std::printf("%-18s %-14s %-6s %s\n", "generator", "property", "truth",
              "outcome");
  for (const Gen& gen : gens) {
    const Graph g = gen.make();
    for (const std::string& p : props) {
      const std::string truth = oracle(p, g);
      const std::string out = runIsolated(g, p);
      // A prover refusing a property that does not hold is correct.
      const bool pass = out == "ok" || (out == "prover-false" && truth == "no");
      if (!pass) ++excluded;
      std::printf("%-18s %-14s %-6s %s%s\n", gen.name.c_str(), p.c_str(),
                  truth.c_str(), out.c_str(), pass ? "" : "   <- EXCLUDED");
      std::fflush(stdout);
    }
  }
  std::printf("probe: %d pairs excluded\n", excluded);
  return 0;
}

}  // namespace lcbench
