// Ablation: population size. The paper uses a micro GA of 20 individuals
// (§4.2, citing Chipperfield & Flemming) "which speeds up computation time
// without impacting greatly on the final result". This bench quantifies
// that trade-off end-to-end (full simulation, PN scheduler).

#include "bench_common.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/600, /*reps=*/3,
                                     /*generations=*/80);
  bench::print_banner(
      "Ablation", "GA population size (PN, full simulation)",
      "paper claim: population 20 (micro GA) is fast without much quality "
      "loss vs larger populations",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  exp::Sweep sweep =
      exp::fig_sweep("abl-pop", p.scale, spec, /*mean_comm=*/10.0);
  sweep.scheduler("PN");
  sweep.param_axis("population", {6, 12, 20, 40, 80});
  bench::run_sweep(sweep, p);
  return 0;
}
