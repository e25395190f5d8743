#pragma once
// Replication runner: executes a (scenario, scheduler) cell R times with
// deterministic per-replication substreams, optionally in parallel across
// a thread pool. Every scheduler sees the *same* workload and cluster in
// replication r (paper §4.2: "All schedulers were presented with the same
// set of tasks for scheduling").
//
// Schedulers are addressed by SchedulerRegistry name (case-insensitive),
// so any registered entry — built-in or user-added — can run a cell.

#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "metrics/aggregate.hpp"
#include "metrics/bounds.hpp"
#include "sim/engine.hpp"

namespace gasched::exp {

/// Runs `scenario` under the named scheduler for scenario.replications
/// runs and returns the per-run results in replication order. Thread-safe
/// and deterministic: replication r derives its RNG streams from
/// (scenario.seed, r) regardless of execution order. Throws
/// std::runtime_error (listing all registered names) for unknown
/// schedulers.
std::vector<sim::SimulationResult> run_replications(
    const Scenario& scenario, const std::string& scheduler,
    const SchedulerParams& params = {}, bool parallel = true);

/// Convenience: run and aggregate into a CellSummary labelled with the
/// scheduler's canonical registry name.
metrics::CellSummary run_cell(const Scenario& scenario,
                              const std::string& scheduler,
                              const SchedulerParams& params = {},
                              bool parallel = true);

/// Runs one replication index `rep` of the cell (exposed for tests).
/// With `record_task_trace` the engine keeps the per-task placement
/// trace (for Gantt rendering / timelines) — identical run otherwise.
/// Every result passes check_run() before it is returned.
sim::SimulationResult run_one(const Scenario& scenario,
                              const std::string& scheduler,
                              const SchedulerParams& params, std::size_t rep,
                              bool record_task_trace = false);

/// The invariants every finished run satisfies, checked in every build:
/// each of the scenario's workload.count tasks completed, efficiency lies
/// in [0, 1], and no processor was busy longer than the makespan. Throws
/// std::runtime_error naming the broken check, the scenario, the
/// scheduler, the seed and the replication.
void check_run(const sim::SimulationResult& result, const Scenario& scenario,
               const std::string& scheduler, std::size_t rep);

/// The scheduler-visible bound instance of replication `rep`: the same
/// workload and cluster streams as run_one (so every scheduler's run in
/// that replication is bounded by it), Linpack base rates, true per-link
/// comm means, no pending load. Feed to metrics::makespan_lower_bound /
/// relaxation_lower_bound / optimal_makespan_exact.
metrics::BoundInstance bound_instance(const Scenario& scenario,
                                      std::size_t rep);

/// Certified makespan lower bounds of a scenario, averaged over its
/// replications (each replication's workload/cluster has its own pair):
/// `lb_comb` is metrics::makespan_lower_bound, `lb_qp` is
/// metrics::relaxation_lower_bound under `options` (== lb_comb when
/// options.enabled is false). Deterministic at any thread count.
struct CertifiedBounds {
  double lb_comb = 0.0;
  double lb_qp = 0.0;
};
CertifiedBounds certified_bounds(const Scenario& scenario,
                                 const metrics::RelaxationBoundOptions& options,
                                 bool parallel = true);

}  // namespace gasched::exp
