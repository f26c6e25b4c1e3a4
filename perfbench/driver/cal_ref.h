// The benchmark's calibration reference op.
//
// A fixed ~10 ms mini discrete-event loop: closures popped from a binary
// heap, small allocations from a std::pmr pool, scattered over 16k lists.
// It is built like the simulator it calibrates (branchy, allocating, with
// a working set past the L2) so that host drift that slows the simulator
// slows it by about the same factor, but it shares no code
// with the repository: its translation unit includes no repository header
// and allocates only from its own static buffer (the pool's upstream is
// std::pmr::null_memory_resource, so an allocation can never fall through
// to the global operator new that src/core/arena.cpp interposes). No
// program change can therefore move it; only the machine can.
#pragma once

#include <cstdint>

namespace perfbench {

/// Run the reference op once. Returns its checksum, which is a pure
/// function of the fixed workload (see cal_ref_checksum).
std::uint64_t cal_ref_op();

/// The checksum every cal_ref_op() call must return.
inline constexpr std::uint64_t cal_ref_checksum = 0x44b0947c54ca053bULL;

/// Ask the op's pool for more than its buffer holds. Returns true when the
/// request is refused (std::bad_alloc), i.e. the pool has no upstream.
bool cal_ref_pool_is_closed();

}  // namespace perfbench
