#include "host.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <random>

namespace perfbench {

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

HostGauge::Ring::Ring(std::uint32_t entries) : next(entries) {
  // One random cycle through every entry, the same in every run.
  std::vector<std::uint32_t> order(entries);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), std::mt19937(20240601u));
  for (std::uint32_t i = 0; i < entries; ++i) {
    next[order[i]] = order[(i + 1) % entries];
  }
}

double HostGauge::Ring::time(std::uint32_t steps) {
  // The median of three, so a single interruption does not count.
  std::uint32_t x = at;
  double ns[3];
  for (double& n : ns) {
    const double t0 = cpu_now();
    for (std::uint32_t i = 0; i < steps; ++i) x = next[x];
    n = (cpu_now() - t0) * 1e9 / steps;
  }
  at = x;
  std::sort(std::begin(ns), std::end(ns));
  return ns[1];
}

HostGauge::HostGauge() : private_(1u << 16), shared_(1u << 19) {}

double HostGauge::read() {
  // Three timed runs of the 2-MB ring stay within one lap, so none of its
  // steps hits a line the chase itself just brought in.
  const double shared_ns = shared_.time(1u << 17);
  private_.time(1u << 16);  // one lap: the ring is now in the private cache
  const double private_ns = private_.time(1u << 18);
  return std::sqrt(private_ns * shared_ns);
}

}  // namespace perfbench
