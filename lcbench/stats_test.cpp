// Tests of the benchmark's own statistics (stats.hpp) and span arithmetic
// (trace.hpp) on synthetic data.  Run through `python3 lcbench/run.py
// --self-test`, or directly as the lcbench_stats_test binary.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace lcbench;

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::printf("FAIL line %d: %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void percentileRules() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT(near(percentile(v, 0.50), 50));
  EXPECT(near(percentile(v, 0.99), 99));
  EXPECT(near(percentile(v, 1.0), 100));
  EXPECT(near(percentile(v, 0.0), 1));
  EXPECT(near(percentile({}, 0.5), 0));
  EXPECT(near(percentile({7}, 0.99), 7));
  // p99 needs at least ten samples beyond it: 1000 samples is the least.
  EXPECT(samplesBeyond(1000, 0.99) == 10);
  EXPECT(samplesBeyond(999, 0.99) == 9);
  EXPECT(samplesBeyond(100, 0.99) == 1);
  EXPECT(samplesBeyond(200, 0.95) == 10);
}

/// A schedule of one request per millisecond, served in 1 ms each, whose
/// generator stalls for 50 ms at request 100: every request due during the
/// stall goes out when it ends.
void stalledSchedule() {
  std::vector<Timing> ts;
  const double stallStart = 0.100, stallEnd = 0.150;
  for (int i = 0; i < 1000; ++i) {
    Timing t;
    t.due = i * 0.001;
    t.sent = (t.due >= stallStart && t.due < stallEnd) ? stallEnd : t.due;
    t.done = t.sent + 0.001;
    ts.push_back(t);
  }
  std::vector<double> fromDue, fromSend, late;
  for (const Timing& t : ts) {
    fromDue.push_back(latencyFromDueMs(t));
    fromSend.push_back(latencyFromSendMs(t));
    late.push_back(latenessMs(t));
  }
  // Timed from the send, the stall disappears...
  EXPECT(near(percentile(fromSend, 0.99), 1.0, 1e-6));
  // ...timed from the due time, the 50 requests behind it carry it: 5% of
  // requests wait 2..51 ms, so p99 sees the stall.
  EXPECT(percentile(fromDue, 0.99) > 40.0);
  EXPECT(near(percentile(fromDue, 0.50), 1.0, 1e-6));
  // The generator's lateness shows where it came from.
  // 950 on-time sends, then lateness 1..50 ms: the 990th value is 40 ms.
  EXPECT(near(percentile(late, 0.99), 40.0, 1e-6));
  EXPECT(near(percentile(late, 0.90), 0.0, 1e-6));
}

void windowedTail() {
  // 3000 samples of 1 ms with one 100-sample stall at 500 ms in the first
  // third: the plain p99 is the stall, the windowed p99 is not.
  std::vector<double> v(3000, 1.0);
  for (int i = 100; i < 200; ++i) v[static_cast<std::size_t>(i)] = 500.0;
  EXPECT(near(percentile(v, 0.99), 500.0));
  EXPECT(near(windowedPercentile(v, 0.99), 1.0));
  // Under two windows' worth it is the plain percentile.
  std::vector<double> w(1500, 1.0);
  for (int i = 0; i < 30; ++i) w[static_cast<std::size_t>(i)] = 9.0;
  EXPECT(near(windowedPercentile(w, 0.99), percentile(w, 0.99)));
  // Every window figure is itself a supported p99: windows hold >= 1000.
  std::vector<double> x;
  for (int i = 0; i < 2999; ++i) x.push_back(i % 100);
  EXPECT(near(windowedPercentile(x, 0.99), 98.0));
}

void ladderSelection() {
  const double limit = 20;
  auto rung = [](double rate, double p99, bool grew = false,
                 std::size_t failed = 0) {
    Rung r;
    r.rate = rate;
    r.p99Ms = p99;
    r.backlogGrew = grew;
    r.failed = failed;
    return r;
  };
  // Highest rung under the limit.
  EXPECT(near(selectMaxRps({rung(100, 5), rung(200, 9), rung(300, 25)}, limit),
              200));
  // Order of probing does not matter.
  EXPECT(near(selectMaxRps({rung(300, 25), rung(100, 5), rung(200, 9)}, limit),
              200));
  // A rung above a failure does not count, however good it looks.
  EXPECT(near(selectMaxRps({rung(100, 5), rung(200, 30), rung(300, 4)}, limit),
              100));
  // A growing backlog or any failure fails the rung.
  EXPECT(near(selectMaxRps({rung(100, 5), rung(200, 9, true)}, limit), 100));
  EXPECT(near(selectMaxRps({rung(100, 5), rung(200, 9, false, 1)}, limit),
              100));
  // Nothing passes: 0.
  EXPECT(near(selectMaxRps({rung(100, 50)}, limit), 0));
  // Backlog rule: what the rate serves inside the limit, at least 2.
  EXPECT(!backlogGrew(20, 1000, 20));
  EXPECT(backlogGrew(21, 1000, 20));
  EXPECT(!backlogGrew(2, 10, 20));
  EXPECT(backlogGrew(3, 10, 20));
}

void selfTime() {
  std::vector<Span> spans = {
      {"bulk.prove", 0, 10, -1, 0},   {"pathwidth.rep", 1, 3, 0, 0},
      {"core.plan", 2, 5, 0, 0},      {"core.prove", 8, 9, 0, 0},
      {"core.prove", 20, 22, -1, 1},
  };
  const std::vector<double> covered = childCoverageMs(spans);
  EXPECT(near(covered[0], 5));  // [1,5] and [8,9]
  EXPECT(near(covered[1], 0));
  const auto self = selfTimeByLayerMs(spans);
  EXPECT(near(self.at("bulk"), 5));
  EXPECT(near(self.at("pathwidth"), 2));
  EXPECT(near(self.at("core"), 3 + 1 + 2));
  // Children reaching outside their parent count only inside it.
  EXPECT(near(coveredMs({{-5, 2}, {9, 15}}, 0, 10), 3));
}

}  // namespace

int main() {
  percentileRules();
  stalledSchedule();
  windowedTail();
  ladderSelection();
  selfTime();
  if (failures == 0) std::printf("lcbench_stats_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
