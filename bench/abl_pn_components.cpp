// Ablation: factorial decomposition of the PN scheduler. PN differs from
// the ZO baseline in exactly three ingredients — (C) communication-cost
// prediction in the fitness function, (R) the re-balancing heuristic,
// (B) dynamic batch sizing — but the paper only ever evaluates the full
// bundle. This bench runs all 2³ combinations so each ingredient's
// marginal contribution is visible. 000 = ZO, 111 = PN.

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/genetic_scheduler.hpp"
#include "exp/registry.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/600, /*reps=*/4,
                                     /*generations=*/80);
  bench::print_banner(
      "Ablation", "PN component decomposition (C=comm, R=rebalance, B=batch)",
      "design-choice study (not in paper): the paper bundles three changes "
      "over ZO; hypothesis per its SS5: comm prediction carries the "
      "efficiency gain, re-balancing the makespan gain, dynamic batch "
      "removes a tuning knob at little cost",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  exp::Sweep sweep =
      exp::fig_sweep("pn-components", p.scale, spec, /*mean_comm=*/10.0);
  // Each PN/ZO hybrid is a registry entry "PN:<label>", so the cells run
  // through exp::run_replications like any built-in scheduler.
  std::vector<exp::Sweep::Value> variants;
  for (int mask = 0; mask < 8; ++mask) {
    core::GeneticSchedulerConfig cfg;
    cfg.ga.max_generations = p.scale.generations;
    cfg.ga.population = p.scale.population;
    cfg.use_comm_estimates = (mask & 4) != 0;
    cfg.rebalance = (mask & 2) != 0;
    cfg.ga.improvement_passes = cfg.rebalance ? 1 : 0;
    cfg.dynamic_batch = (mask & 1) != 0;
    cfg.fixed_batch = p.scale.batch;
    cfg.max_batch = p.scale.batch;
    const std::string label = std::string(cfg.use_comm_estimates ? "C" : "-") +
                              (cfg.rebalance ? "R" : "-") +
                              (cfg.dynamic_batch ? "B" : "-");
    exp::SchedulerRegistry::instance().add(
        {.name = "PN:" + label,
         .summary = "PN component ablation variant " + label,
         .factory = [cfg, label](const exp::SchedulerParams&) {
           return std::make_unique<core::GeneticBatchScheduler>(cfg, label);
         }});
    variants.push_back({label, {}});
  }
  sweep.axis("variant", std::move(variants));
  // The cells keep an empty scheduler column: the variant axis names them.
  sweep.runner([](const exp::SweepCell& cell, bool parallel) {
    const std::string& label = cell.coord("variant");
    exp::CellOutcome out;
    out.summary = metrics::aggregate(
        label, exp::run_replications(cell.scenario, "PN:" + label,
                                     cell.params, parallel));
    return out;
  });

  bench::run_sweep(sweep, p);
  std::cout << "\nRow '---' is the ZO baseline; row 'CRB' is full PN.\n";
  return 0;
}
