// Ablation: island-model parallelisation of the PN genetic scheduler
// (reference [2], Chipperfield & Fleming). Sweeps the island count with
// the per-island generation budget held fixed, so K islands spend K×
// the search effort of the paper's single micro-population — the
// question is how much schedule quality that extra (parallelisable)
// effort buys, and what migration contributes on top of isolation.

#include "bench_common.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/600, /*reps=*/3,
                                     /*generations=*/80);
  bench::print_banner(
      "Ablation", "island count for the PN scheduler (PNI)",
      "design-choice study (not in paper): quality improves with islands "
      "at diminishing returns; migration beats isolated islands",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  exp::Sweep sweep =
      exp::fig_sweep("island", p.scale, spec, /*mean_comm=*/10.0);

  std::vector<exp::Sweep::Value> configs;
  // Single-population PN is the islands=1 reference.
  configs.push_back(
      {"PN (1 island)", [](exp::SweepCell& c) { c.scheduler = "PN"; }});
  for (const std::size_t islands : {2u, 4u, 8u}) {
    configs.push_back({"PNI x" + std::to_string(islands),
                       [islands](exp::SweepCell& c) {
                         c.scheduler = "PNI";
                         c.params.set("islands", islands);
                         c.params.set("migration_interval", 20);
                       }});
  }
  // Migration off (isolated demes) at 4 islands, via a huge migration
  // interval: epochs never complete a migration.
  configs.push_back({"PNI x4 (no migration)", [](exp::SweepCell& c) {
                       c.scheduler = "PNI";
                       c.params.set("islands", 4);
                       c.params.set("migration_interval", 1000000);
                     }});
  sweep.axis("config", std::move(configs));

  bench::run_sweep(sweep, p);
  return 0;
}
