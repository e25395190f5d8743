#pragma once
// Heap-allocation counter for the perf probes (perf_eval,
// perf_event_core, perf_runtime). Linking alloc_count.cpp into a binary
// replaces its global operator new/delete with a counting hook; read the
// counter before and after a region and take the difference.

namespace gasched::bench {

/// Heap allocations made by every thread since process start.
unsigned long long allocs_total() noexcept;

}  // namespace gasched::bench
