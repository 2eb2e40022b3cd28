#include "runtime/topology.hpp"

#include <algorithm>
#include <fstream>
#include <string>

namespace lanecert {

NumaTopology NumaTopology::detect() {
  // Nodes are probed by id rather than by directory listing: the kernel
  // numbers online nodes densely from 0, so the first gap ends the probe,
  // and a fixed ceiling keeps detection directory-API-free.
  constexpr int kMaxProbedNodes = 256;
  std::size_t nodes = 0;
  for (int id = 0; id < kMaxProbedNodes; ++id) {
    std::ifstream in("/sys/devices/system/node/node" + std::to_string(id) +
                     "/cpulist");
    if (!in) break;
    std::string cpus;
    std::getline(in, cpus);
    // Memory-only nodes list no CPUs.
    if (cpus.find_first_of("0123456789") != std::string::npos) ++nodes;
  }
  return NumaTopology(std::max<std::size_t>(nodes, 1));
}

}  // namespace lanecert
