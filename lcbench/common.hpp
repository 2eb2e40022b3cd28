#pragma once
// Shared plumbing of the benchmark: arguments, the result line, machine
// facts, and the generated inputs every workload draws from.

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace lcbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double msSince(Clock::time_point t0) { return secondsSince(t0) * 1e3; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory inside the checkout for snapshot files and span dumps.
  std::string scratchDir = ".bench_build/scratch";
};

/// Everything one run reports.  Human-readable lines go to stdout first;
/// the contract's JSON object is the last line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A line of the text report (metrics outside the JSON, facts, checks).
  void note(const std::string& line);
  /// Counts one attempted operation; `ok == false` counts it failed.
  void attempt(bool ok, const std::string& what = {});
  /// A correctness check outside the attempt count (e.g. a byte compare).
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// A run that attempted nothing checked nothing, so it is not correct.
  [[nodiscard]] bool correct() const {
    return correct_ && failed_ == 0 && attempted_ > 0;
  }

  /// Prints the text lines, then the JSON result line.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::size_t failureNotes_ = 0;
};

[[nodiscard]] int hardwareThreads();
/// Ids of this process's threads (Linux: /proc/self/task).
[[nodiscard]] std::set<int> threadIds();
/// Pins every thread of this process that is not in `before` to a CPU of
/// its own, round robin over the process's allowed CPUs; returns their ids.
std::vector<int> pinThreadsSince(const std::set<int>& before);
/// Lets `tids` run on every CPU the process may use again.
void unpinThreads(const std::vector<int>& tids);
/// Peak resident set of this process, MiB.
[[nodiscard]] double peakRssMb();
/// nproc, NUMA nodes, build type, compiler, LANECERT_SIMD — recorded with
/// every result.
[[nodiscard]] std::string machineFacts();

/// A 2 x (n/2) ladder: pathwidth 2, fixed structure for every seed.
[[nodiscard]] lanecert::Graph ladder(int n);

/// randomBoundedPathwidth(n, k=2, density 0.4): the random family of
/// every workload.
[[nodiscard]] lanecert::Graph rbpw2(int n, lanecert::Rng& rng);

/// Total bytes of a label vector.
[[nodiscard]] std::uint64_t labelBytes(const std::vector<std::string>& labels);
/// Largest label, bytes.
[[nodiscard]] std::uint64_t maxLabelBytes(
    const std::vector<std::string>& labels);

}  // namespace lcbench
