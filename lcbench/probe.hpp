#pragma once

#include "common.hpp"

namespace lcbench {

/// Runs the (generator x property) matrix; prints one line per pair.
int runProbe(const Args& args);

}  // namespace lcbench
