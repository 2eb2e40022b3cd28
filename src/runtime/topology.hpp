#pragma once
// The machine's NUMA node count, for reports that record where a
// measurement was taken.  Nothing in the library places threads or memory
// by node: shard content never depends on placement, and the deterministic
// executor runs the same on every topology.

#include <cstddef>

namespace lanecert {

class NumaTopology {
 public:
  /// Counts the nodes listed under /sys/devices/system/node that own at
  /// least one CPU; one node when that tree is unreadable (non-Linux,
  /// sandboxed sysfs).  Never throws.
  [[nodiscard]] static NumaTopology detect();

  [[nodiscard]] std::size_t nodeCount() const { return nodeCount_; }

 private:
  explicit NumaTopology(std::size_t nodeCount) : nodeCount_(nodeCount) {}

  std::size_t nodeCount_;
};

}  // namespace lanecert
