// lcbench — the benchmark of record.  run.py builds it and calls
//
//   lcbench --workload <wire_hot|wire_cold|bulk> --seed N --seconds S
//           --trace 0|1 [--scratch DIR]
//   lcbench --probe [--scratch DIR]
//   lcbench --list-metrics
//
// See README.md in this directory for the workloads and every metric.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <set>
#include <string>

#include "bulk.hpp"
#include "common.hpp"
#include "metrics.hpp"
#include "probe.hpp"
#include "wire.hpp"

namespace {

using namespace lcbench;

int usage() {
  std::fprintf(stderr,
               "usage: lcbench --workload W --seed N --seconds S --trace 0|1 "
               "[--scratch DIR]\n       lcbench --probe [--scratch DIR]\n"
               "       lcbench --list-metrics\n");
  return 2;
}

/// Emits the metrics of the run's mode in table order.  A workload that
/// never calls a layer leaves that layer's per-layer metrics unset; they
/// read 0.  An end-to-end metric must always be measured.
void emit(const Args& args, const Metrics& m, Report& report) {
  std::set<std::string> table;
  const auto& defs = args.trace ? perLayerMetrics() : endToEndMetrics();
  for (const MetricDef& d : defs) {
    table.insert(d.name);
    const auto it = m.find(d.name);
    if (it == m.end() && !args.trace) {
      report.check(false, std::string("metric not measured: ") + d.name);
    }
    report.metric(d.name, it == m.end() ? 0.0 : it->second, d.unit);
  }
  // Figures outside this mode's table (bulk's warm_prove_s, the other
  // mode's metrics the run measured on the way) go to the text report.
  for (const auto& [name, value] : m) {
    if (table.count(name) == 0) {
      report.note("also: " + name + " " + std::to_string(value));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricDef& d : endToEndMetrics()) {
        std::printf("end_to_end %s %s\n", d.name, d.unit);
      }
      for (const MetricDef& d : perLayerMetrics()) {
        std::printf("per_layer %s %s\n", d.name, d.unit);
      }
      return 0;
    }
    if (flag == "--probe") {
      probe = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scratch") {
      args.scratchDir = value;
    } else {
      return usage();
    }
  }
  std::filesystem::create_directories(args.scratchDir);
  if (probe) return runProbe(args);
  if (args.seconds <= 0) return usage();

  Report report;
  Metrics m;
  try {
    report.note(machineFacts());
    if (args.workload == "bulk") {
      runBulk(args, report, m);
    } else if (args.workload == "wire_hot" || args.workload == "wire_cold") {
      runWire(args, report, m);
    } else {
      std::fprintf(stderr, "lcbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  m["peak_rss_mb"] = peakRssMb();
  emit(args, m, report);
  report.print();
  return report.correct() ? 0 : 1;
}
