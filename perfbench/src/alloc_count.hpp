// Global heap-allocation counter, maintained by the replacement operator
// new in main.cpp (compiled out under AddressSanitizer, where it reads 0).
#pragma once

#include <cstdint>

namespace perfbench {

std::uint64_t alloc_count();

}  // namespace perfbench
