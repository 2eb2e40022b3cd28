#pragma once
// In-memory spans recorded by the benchmark around its calls into each
// lanecert layer.  A span's name is "<layer>.<call>"; the layer is the
// part before the first dot.  Spans of one request share a request id and
// name their cause through `parent`.  The recorder is single-threaded: every
// caller that records spans runs on the benchmark's driving thread.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace lcbench {

struct Span {
  std::string name;
  double startMs = 0;
  double endMs = 0;
  int parent = -1;  ///< index of the causing span, -1 for a root
  std::uint64_t request = 0;

  [[nodiscard]] std::string layer() const {
    return name.substr(0, name.find('.'));
  }
  [[nodiscard]] double durationMs() const { return endMs - startMs; }
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when tracing is off).
  int begin(std::string name, int parent = -1, std::uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::move(name), nowMs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].endMs = nowMs();
  }
  /// Records an already-measured interval (e.g. a request whose start and
  /// end were observed by an event loop).
  int record(std::string name, double startMs, double endMs, int parent = -1,
             std::uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::move(name), startMs, endMs, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  [[nodiscard]] double nowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON object per line.
  void dump(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ms\":" << s.startMs << ",\"end_ms\":" << s.endMs
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Closes its span when the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, int parent = -1,
             std::uint64_t request = 0)
      : t_(t), id_(t.begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Length of the union of `intervals` clipped to [lo, hi].
inline double coveredMs(std::vector<std::pair<double, double>> intervals,
                        double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0, curL = 0, curR = 0;
  bool open = false;
  for (auto [l, r] : intervals) {
    l = std::max(l, lo);
    r = std::min(r, hi);
    if (r <= l) continue;
    if (open && l <= curR) {
      curR = std::max(curR, r);
      continue;
    }
    if (open) covered += curR - curL;
    curL = l;
    curR = r;
    open = true;
  }
  if (open) covered += curR - curL;
  return covered;
}

/// Per span: the part of its interval its direct children cover.
inline std::vector<double> childCoverageMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.startMs,
                                                            s.endMs);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = coveredMs(std::move(kids[i]), spans[i].startMs, spans[i].endMs);
  }
  return out;
}

/// Self time per layer: each span's duration minus the part of it its
/// children cover, summed by layer.
inline std::map<std::string, double> selfTimeByLayerMs(
    const std::vector<Span>& spans) {
  const std::vector<double> covered = childCoverageMs(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].layer()] += spans[i].durationMs() - covered[i];
  }
  return out;
}

}  // namespace lcbench
