// Extension: scheduler computation costs simulated time (§3.4). When the
// GA's wall time is charged to the simulation (sched_time_scale > 0),
// unlimited evolution delays dispatch and hurts makespan; the wall-clock
// budget (the "stop when a processor becomes idle" condition) restores
// the balance.

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/genetic_scheduler.hpp"
#include "exp/registry.hpp"

using namespace gasched;

namespace {

/// One PN configuration under a charged-time engine.
struct OverheadCase {
  const char* label;
  double time_scale;
  double budget;
  std::size_t gens;
};

}  // namespace

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/600, /*reps=*/3,
                                     /*generations=*/400);
  bench::print_banner(
      "Extension", "charging scheduler computation to simulated time",
      "paper-consistent hypothesis (§3.4): when GA time delays dispatch, "
      "capping evolution (the processor-idle stop) beats unlimited "
      "evolution; with free scheduling, more generations only help",
      p);

  // 1 wall second of GA time = `charge` simulated seconds. Large values
  // emulate a slow scheduler processor relative to the cluster.
  const double charge = 2000.0;
  const std::size_t gens = p.scale.generations;
  const std::vector<OverheadCase> cases{
      {"free scheduling, 50 gens", 0.0, 0.0, 50},
      {"free scheduling, 400 gens", 0.0, 0.0, gens},
      {"charged time, 400 gens, no budget", charge, 0.0, gens},
      {"charged time, 400 gens, 20 ms budget", charge, 0.02, gens},
  };

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  exp::Sweep sweep =
      exp::fig_sweep("sched-overhead", p.scale, spec, /*mean_comm=*/10.0);
  // Each case is a registry entry "PN#<i>" (max_wall_seconds lives on
  // GeneticSchedulerConfig, not in the registry's parameter surface), and
  // its time scale is the cell's Scenario::sched_time_scale.
  std::vector<exp::Sweep::Value> values;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    core::GeneticSchedulerConfig cfg;
    cfg.ga.max_generations = cases[i].gens;
    cfg.ga.population = p.scale.population;
    cfg.max_wall_seconds = cases[i].budget;
    exp::SchedulerRegistry::instance().add(
        {.name = "PN#" + std::to_string(i),
         .summary = cases[i].label,
         .factory = [cfg](const exp::SchedulerParams&) {
           return core::make_pn_scheduler(cfg);
         }});
    const double time_scale = cases[i].time_scale;
    values.push_back({cases[i].label, [time_scale](exp::SweepCell& c) {
                        c.scenario.sched_time_scale = time_scale;
                      }});
  }
  sweep.axis("configuration", std::move(values));
  // The cells keep an empty scheduler column: the configuration axis
  // names them.
  sweep.runner([](const exp::SweepCell& cell, bool parallel) {
    exp::CellOutcome out;
    out.summary = metrics::aggregate(
        cell.coord("configuration"),
        exp::run_replications(cell.scenario,
                              "PN#" + std::to_string(cell.index),
                              cell.params, parallel));
    return out;
  });

  bench::run_sweep(sweep, p);
  return 0;
}
