#include "exp/runner.hpp"

#include <stdexcept>
#include <string>

#include "exp/registry.hpp"
#include "util/thread_pool.hpp"

namespace gasched::exp {

namespace {

/// Replication rep's inputs: the workload and cluster every scheduler
/// sees in that replication, and the streams its simulation draws from.
struct Replication {
  workload::Workload workload;
  sim::Cluster cluster;
  util::Rng sim_rng;
  util::Rng failure_rng;
};

/// The one place the (seed, rep) stream layout is written down: the
/// workload and the cluster depend only on (seed, rep), so every
/// scheduler sees identical tasks and machines in replication rep.
Replication realise(const Scenario& scenario, std::size_t rep) {
  const util::Rng base(scenario.seed);
  util::Rng workload_rng = base.split(3 * rep);
  util::Rng cluster_rng = base.split(3 * rep + 1);
  const auto dist = make_distribution(scenario.workload);
  return {workload::generate(*dist, scenario.workload.count, workload_rng,
                             make_arrival(scenario.workload)),
          sim::build_cluster(scenario.cluster, cluster_rng),
          base.split(3 * rep + 2), base.split(3 * rep + 1'000'000)};
}

}  // namespace

sim::SimulationResult run_one(const Scenario& scenario,
                              const std::string& scheduler,
                              const SchedulerParams& params, std::size_t rep,
                              bool record_task_trace) {
  Replication r = realise(scenario, rep);
  const auto policy = SchedulerRegistry::instance().create(scheduler, params);

  sim::EngineConfig ecfg;
  ecfg.record_task_trace = record_task_trace;
  ecfg.sched_time_scale = scenario.sched_time_scale;
  ecfg.comm_nu = scenario.comm_nu;
  ecfg.rate_nu = scenario.rate_nu;
  sim::FailureTrace trace;
  if (scenario.failures) {
    trace = sim::FailureTrace(*scenario.failures,
                              scenario.cluster.num_processors, r.failure_rng);
    ecfg.failures = &trace;
  }
  sim::SimulationResult result =
      sim::simulate(r.cluster, r.workload, *policy, r.sim_rng, ecfg);
  check_run(result, scenario, scheduler, rep);
  return result;
}

void check_run(const sim::SimulationResult& result, const Scenario& scenario,
               const std::string& scheduler, std::size_t rep) {
  auto fail = [&](const std::string& what) {
    throw std::runtime_error("run_one: " + what + " (scenario '" +
                             scenario.name + "', scheduler " + scheduler +
                             ", seed " + std::to_string(scenario.seed) +
                             ", replication " + std::to_string(rep) + ")");
  };
  if (result.tasks_completed != scenario.workload.count) {
    fail(std::to_string(result.tasks_completed) + " of " +
         std::to_string(scenario.workload.count) + " tasks completed");
  }
  const double eff = result.efficiency();
  if (!(eff >= 0.0 && eff <= 1.0)) {
    fail("efficiency " + std::to_string(eff) + " outside [0, 1]");
  }
  for (std::size_t j = 0; j < result.per_proc.size(); ++j) {
    if (!(result.per_proc[j].busy_time <= result.makespan)) {
      fail("processor " + std::to_string(j) + " busy " +
           std::to_string(result.per_proc[j].busy_time) +
           " s, longer than the makespan " + std::to_string(result.makespan) +
           " s");
    }
  }
}

std::vector<sim::SimulationResult> run_replications(
    const Scenario& scenario, const std::string& scheduler,
    const SchedulerParams& params, bool parallel) {
  // Resolve once up front: an unknown name should throw here, on the
  // caller's thread, not inside the pool workers.
  const std::string name =
      SchedulerRegistry::instance().canonical_name(scheduler);
  std::vector<sim::SimulationResult> results(scenario.replications);
  auto body = [&](std::size_t rep) {
    results[rep] = run_one(scenario, name, params, rep);
  };
  if (parallel && scenario.replications > 1) {
    util::global_pool().parallel_for(0, scenario.replications, body);
  } else {
    for (std::size_t rep = 0; rep < scenario.replications; ++rep) body(rep);
  }
  return results;
}

metrics::CellSummary run_cell(const Scenario& scenario,
                              const std::string& scheduler,
                              const SchedulerParams& params, bool parallel) {
  const std::string name =
      SchedulerRegistry::instance().canonical_name(scheduler);
  const auto runs = run_replications(scenario, name, params, parallel);
  return metrics::aggregate(name, runs);
}

metrics::BoundInstance bound_instance(const Scenario& scenario,
                                      std::size_t rep) {
  const Replication r = realise(scenario, rep);
  metrics::BoundInstance inst;
  inst.task_sizes.reserve(r.workload.tasks.size());
  for (const auto& task : r.workload.tasks) {
    inst.task_sizes.push_back(task.size_mflops);
  }
  inst.rates.reserve(r.cluster.size());
  inst.comm_costs.reserve(r.cluster.size());
  for (std::size_t j = 0; j < r.cluster.size(); ++j) {
    inst.rates.push_back(r.cluster.processors[j].base_rate);
    inst.comm_costs.push_back(
        r.cluster.comm->true_mean(static_cast<sim::ProcId>(j)));
  }
  return inst;
}

CertifiedBounds certified_bounds(const Scenario& scenario,
                                 const metrics::RelaxationBoundOptions& options,
                                 bool parallel) {
  const std::size_t reps = scenario.replications;
  std::vector<CertifiedBounds> per_rep(reps);
  auto body = [&](std::size_t rep) {
    const metrics::BoundInstance inst = bound_instance(scenario, rep);
    per_rep[rep].lb_comb = metrics::makespan_lower_bound(inst);
    per_rep[rep].lb_qp = metrics::relaxation_lower_bound(inst, options);
  };
  if (parallel && reps > 1) {
    util::global_pool().parallel_for(0, reps, body);
  } else {
    for (std::size_t rep = 0; rep < reps; ++rep) body(rep);
  }
  CertifiedBounds mean;
  for (const auto& b : per_rep) {
    mean.lb_comb += b.lb_comb;
    mean.lb_qp += b.lb_qp;
  }
  if (reps > 0) {
    mean.lb_comb /= static_cast<double>(reps);
    mean.lb_qp /= static_cast<double>(reps);
  }
  return mean;
}

}  // namespace gasched::exp
