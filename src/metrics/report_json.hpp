#pragma once
// JSON export of experiment results: a machine-readable companion to the
// ASCII tables and CSV files the bench binaries emit, for plotting
// pipelines and regression tracking.

#include <string>
#include <vector>

#include "metrics/aggregate.hpp"
#include "util/json.hpp"

namespace gasched::metrics {

/// Emits `cell` as a JSON object into an in-progress writer (used by the
/// streaming JSONL sink to embed cells inside its per-row objects).
void write_cell_json(util::JsonWriter& w, const CellSummary& cell);

/// Serialises one aggregated cell as a JSON object string:
/// {"scheduler": ..., "replications": n, "makespan": {summary...}, ...}.
std::string cell_to_json(const CellSummary& cell);

/// Serialises an experiment (name + cells) as a JSON document string.
std::string experiment_to_json(const std::string& experiment,
                               const std::vector<CellSummary>& cells);

}  // namespace gasched::metrics
