// Ablation: smoothing factor ν of the per-link communication estimators
// (§3.6). ν controls how strongly the newest observation moves the
// estimate Γ: ν = 0 freezes the first observation, ν = 1 tracks the
// latest sample verbatim. The paper motivates smoothing ("minimise
// localised fluctuations") but does not report a value; this bench
// sweeps ν for the PN scheduler on a cluster with noisy per-dispatch
// communication costs.

#include "bench_common.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/600, /*reps=*/4,
                                     /*generations=*/80);
  bench::print_banner(
      "Ablation", "comm-estimator smoothing factor nu (SS3.6)",
      "design-choice study (not in paper): intermediate nu performs best "
      "under jittery links — nu=1 chases noise, nu~0 never adapts",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  exp::Scenario base =
      exp::fig_scenario(p.scale, spec, /*mean_comm=*/15.0, "smoothing");
  base.cluster.comm.jitter_cv = 0.8;  // strongly noisy per-dispatch costs

  exp::Sweep sweep("abl-smoothing");
  sweep.base(base)
      .params(exp::fig_params(p.scale))
      .scheduler("PN")
      .axis("nu", {0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0},
            [](exp::SweepCell& c, double nu) { c.scenario.comm_nu = nu; });
  bench::run_sweep(sweep, p);
  return 0;
}
