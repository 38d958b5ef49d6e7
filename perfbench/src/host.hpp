// Host time: all host times are CPU time of the simulating thread, which
// leaves out time the thread waits for a CPU on a shared machine.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Thread CPU time in seconds.
double cpu_now();

/// Gauge of the host's speed. On a shared host the simulating thread runs
/// faster or slower for seconds to minutes at a time as other tenants load
/// the caches; pointer chases over fixed rings slow down with it. The gauge
/// is benchmark code only, so a change to the program does not move it.
class HostGauge {
 public:
  HostGauge();
  /// Geometric mean of the CPU nanoseconds per step of two chases: one over
  /// a 256-KB ring warmed into the core's private cache first (its latency),
  /// one over a 2-MB ring, as large as that cache, picked up wherever the
  /// program left it (mostly the shared cache's latency).
  [[nodiscard]] double read();

 private:
  struct Ring {
    explicit Ring(std::uint32_t entries);
    /// Median of three timed runs of `steps` steps.
    double time(std::uint32_t steps);
    std::vector<std::uint32_t> next;
    std::uint32_t at = 0;
  };
  Ring private_;
  Ring shared_;
};

/// Gauge reading that normalized host times are expressed at: a host CPU
/// second measured while the gauge reads g counts as kNominalNsPerStep / g
/// nominal seconds.
inline constexpr double kNominalNsPerStep = 12.0;

}  // namespace perfbench
