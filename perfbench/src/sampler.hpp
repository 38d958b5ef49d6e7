// Statistical self-time profiler for the traced run. A SIGPROF interval
// timer interrupts the simulating thread every few milliseconds of CPU
// time; while sampling is enabled the handler stores the raw return
// addresses from backtrace(). Classification happens after the run: each
// sample goes to the innermost frame whose function lives in an
// ftvod::<module> namespace, read from the executable's own symbol table.
// SmallFunction trampolines count for the callable they wrap, so a
// scheduler event is charged to the layer that scheduled it.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace perfbench {

/// Layers a sample can land in; "ext" is everything outside ftvod (libc,
/// the allocator, the benchmark itself) with no ftvod frame above it.
inline constexpr std::array<std::string_view, 9> kLayers = {
    "sim", "net", "gcs", "vod", "util", "mpeg", "testing", "workload", "ext"};

class Sampler {
 public:
  /// Installs the handler and starts a CPU-time interval timer.
  explicit Sampler(int period_us);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Samples are recorded only while enabled.
  void set_enabled(bool on);
  [[nodiscard]] std::size_t sample_count() const;
  /// Samples per layer (indexed like kLayers).
  [[nodiscard]] std::array<std::uint64_t, kLayers.size()> classify() const;
};

}  // namespace perfbench
