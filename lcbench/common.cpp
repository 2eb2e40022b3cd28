#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "runtime/topology.hpp"

namespace lcbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    // The first few failures say what went wrong; the count says the rest.
    if (failureNotes_++ < 8) notes_.push_back("FAILED: " + what);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  notes_.push_back("CHECK FAILED: " + what);
}

void Report::print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  const double share =
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0;
  std::printf("failed_share %.6f (%llu of %llu)\n", share,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::ostringstream js;
  js.precision(10);
  js << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    std::printf("%-40s %14.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
    js << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << vu.first
       << ", \"unit\": \"" << vu.second << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

int hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::set<int> threadIds() {
  std::set<int> ids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(std::stoi(e.path().filename().string()));
  }
  return ids;
}

std::vector<int> pinThreadsSince(const std::set<int>& before) {
  std::vector<int> pinned;
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return pinned;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  for (const int tid : threadIds()) {
    if (before.count(tid) != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[pinned.size() % cpus.size()], &one);
    (void)::sched_setaffinity(tid, sizeof one, &one);  // advisory
    pinned.push_back(tid);
  }
  return pinned;
}

void unpinThreads(const std::vector<int>& tids) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (const int tid : tids) {
    (void)::sched_setaffinity(tid, sizeof allowed, &allowed);
  }
}

double peakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string machineFacts() {
  std::ostringstream os;
  os << "machine: nproc=" << hardwareThreads()
     << " numa_nodes=" << lanecert::NumaTopology::detect().nodeCount()
     << " build=" << LCBENCH_BUILD_TYPE << " compiler=\"" << __VERSION__
     << "\" LANECERT_SIMD=" << LANECERT_SIMD;
  return os.str();
}

lanecert::Graph ladder(int n) { return lanecert::gridGraph(n / 2, 2); }

lanecert::Graph rbpw2(int n, lanecert::Rng& rng) {
  return lanecert::randomBoundedPathwidth(n, 2, 0.4, rng).graph;
}

std::uint64_t labelBytes(const std::vector<std::string>& labels) {
  std::uint64_t total = 0;
  for (const std::string& l : labels) total += l.size();
  return total;
}

std::uint64_t maxLabelBytes(const std::vector<std::string>& labels) {
  std::uint64_t best = 0;
  for (const std::string& l : labels) {
    best = std::max<std::uint64_t>(best, l.size());
  }
  return best;
}

}  // namespace lcbench
