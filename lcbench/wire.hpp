#pragma once

#include "common.hpp"
#include "metrics.hpp"

namespace lcbench {

/// Runs `wire_hot` or `wire_cold`: open-loop traffic against an in-process
/// net::WireServer on loopback.
void runWire(const Args& args, Report& report, Metrics& m);

}  // namespace lcbench
