// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78), the
// checksum of every datagram's integrity header (util/frame.hpp).
//
// crc32c() picks its implementation once per process: on x86-64 CPUs with
// SSE4.2 it runs the `crc32` instruction, which computes exactly this
// polynomial, eight bytes per step; everywhere else it runs the portable
// slice-by-4 table loop. Both return the same value for every input (the
// unit tests compare them over lengths, alignments and chained seeds), so
// a run reproduces bit-for-bit from its seed on any host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ftvod::util {

/// CRC32C of `data`. `seed` chains incremental computations: pass the
/// previous return value to continue a running checksum.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data,
                                   std::uint32_t seed = 0);

/// The portable slice-by-4 implementation behind crc32c().
[[nodiscard]] std::uint32_t crc32c_portable(std::span<const std::byte> data,
                                            std::uint32_t seed = 0);

/// True when this CPU can run crc32c_hardware() (x86-64 with SSE4.2).
[[nodiscard]] bool crc32c_hardware_available();

/// The SSE4.2 implementation behind crc32c(). Only call it when
/// crc32c_hardware_available() is true.
[[nodiscard]] std::uint32_t crc32c_hardware(std::span<const std::byte> data,
                                            std::uint32_t seed = 0);

}  // namespace ftvod::util
