#pragma once
// Heap-allocation counters fed by this binary's replacement operator new
// (alloc_count.cpp). Read a counter before and after a region and take
// the difference, as bench/perf_eval does.

#include <cstdint>

namespace perfbench {

/// Allocations made by every thread since process start.
std::uint64_t allocs_total() noexcept;

/// Allocations made by the calling thread since it started. Exact for a
/// region that runs on one thread while other threads allocate.
std::uint64_t allocs_this_thread() noexcept;

}  // namespace perfbench
