#pragma once

#include "common.hpp"
#include "metrics.hpp"

namespace lcbench {

/// Runs the `bulk` workload: library calls over one large graph.
void runBulk(const Args& args, Report& report, Metrics& m);

}  // namespace lcbench
