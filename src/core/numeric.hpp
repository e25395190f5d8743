#pragma once
// Pricing is exact-only: every path sums left to right, and every golden
// and figure CSV pins those doubles (docs/evaluation.md, "Exact-only
// pricing"). NumericMode survives as the type of GaConfig::numeric_mode
// and of the evaluator's mode parameter, which the benchmark harness
// names in its provenance line; kExact is its only value.

namespace gasched::core {

enum class NumericMode { kExact };

inline const char* numeric_mode_name(NumericMode) noexcept { return "exact"; }
inline NumericMode default_numeric_mode() noexcept { return NumericMode::kExact; }

}  // namespace gasched::core
