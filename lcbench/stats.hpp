#pragma once
// Statistics of the benchmark: percentiles, open-loop latency accounting
// and max-rate ladder selection.  Header-only and free of lanecert
// dependencies so stats_test.cpp can pin every rule on synthetic data.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace lcbench {

/// Nearest-rank percentile: the smallest sample with at least p of the
/// samples at or below it (p in [0, 1]).  0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Samples strictly above the nearest-rank p-th percentile's rank.  A
/// percentile says something about the tail it names only with at least
/// ten samples beyond it.
inline std::size_t samplesBeyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// One open-loop request, in seconds from the start of its schedule.
struct Timing {
  double due = 0;   ///< when the schedule said to send it
  double sent = 0;  ///< when the generator actually sent it
  double done = 0;  ///< when its terminal reply arrived
};

/// Latency charged to the request: from its DUE time, so a generator or
/// server stall is charged to every request that was due during it.
inline double latencyFromDueMs(const Timing& t) {
  return (t.done - t.due) * 1e3;
}
/// How late the generator sent the request.
inline double latenessMs(const Timing& t) { return (t.sent - t.due) * 1e3; }

/// Latency from the actual send — what a closed-loop load generator
/// reports; it hides the waiting a stall imposes on requests queued behind
/// it.
inline double latencyFromSendMs(const Timing& t) {
  return (t.done - t.sent) * 1e3;
}

/// One rung of a fixed-rate ladder.
struct Rung {
  double rate = 0;         ///< offered requests per second
  double p99Ms = 0;        ///< p99 latency from due time over the rung
  bool backlogGrew = false;  ///< requests outstanding at the end of the rung
                             ///< exceeded what the limit allows
  std::size_t failed = 0;  ///< errors, rejections, wrong verdicts
};

inline bool rungPasses(const Rung& r, double limitMs) {
  return r.failed == 0 && !r.backlogGrew && r.p99Ms <= limitMs;
}

/// The highest probed rate that passed while every lower probed rate
/// passed too: a rung above a failure does not count, whatever its own
/// figures say.  0 when the lowest rung already fails.
inline double selectMaxRps(std::vector<Rung> rungs, double limitMs) {
  std::sort(rungs.begin(), rungs.end(),
            [](const Rung& a, const Rung& b) { return a.rate < b.rate; });
  double best = 0;
  for (const Rung& r : rungs) {
    if (!rungPasses(r, limitMs)) break;
    best = r.rate;
  }
  return best;
}

/// Backlog rule of a rung: requests still outstanding when its send window
/// closes must fit within what the rate serves inside the latency limit.
inline bool backlogGrew(std::size_t outstandingAtEnd, double rate,
                        double limitMs) {
  const double allowed = std::max(2.0, rate * limitMs / 1e3);
  return static_cast<double>(outstandingAtEnd) > allowed;
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// The p-th percentile of consecutive sub-windows of at least `perWindow`
/// samples each (in arrival order; the last window absorbs the remainder),
/// and the median of those: one stall moves one window's figure, not the
/// result.  With fewer than 2 * perWindow samples this is the plain
/// percentile of all of them.
inline double windowedPercentile(const std::vector<double>& inOrder, double p,
                                 std::size_t perWindow = 1000) {
  const std::size_t n = inOrder.size();
  const std::size_t windows = std::max<std::size_t>(1, n / perWindow);
  std::vector<double> figures(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = static_cast<std::ptrdiff_t>(w * n / windows);
    const auto end = static_cast<std::ptrdiff_t>((w + 1) * n / windows);
    figures[w] = percentile(
        std::vector<double>(inOrder.begin() + begin, inOrder.begin() + end), p);
  }
  std::sort(figures.begin(), figures.end());
  return figures[(windows - 1) / 2];
}

}  // namespace lcbench
