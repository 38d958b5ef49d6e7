// The three benchmark workloads and the measured run around each: set-up,
// warm-up to steady state, a fixed simulated window cut into one-second
// slices, and the metrics computed from what the harness observed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Host seconds the window should roughly take; converted into a fixed
  /// simulated length per workload, so simulated results depend only on
  /// (workload, seed, seconds, scale).
  double seconds = 10.0;
  bool trace = false;
  bool mini = false;  // miniature scale for the self-test
  /// Opens the window right after the ramp (self-test of the flatness
  /// check); the warm-up check then fails.
  bool skip_warmup = false;
  /// Traced runs write their spans here (empty: do not write).
  std::string span_file;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  std::string digest;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // traced runs only
  std::vector<Metric> info;       // context: sample counts, window size
};

[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] Result run_workload(const RunOptions& opt);

}  // namespace perfbench
