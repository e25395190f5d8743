// Ablation: batch-size policy (§3.7). Compares fixed batch sizes against
// the paper's dynamic H = ⌊√(Γs+1)⌋ rule on full simulations.
//
// Larger batches usually give better schedules (as the paper notes, citing
// Zomaya & Teh) but cost more scheduler time; the dynamic rule trades the
// two automatically.

#include "bench_common.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/800, /*reps=*/3,
                                     /*generations=*/80);
  bench::print_banner(
      "Ablation", "batch size policy (PN, full simulation)",
      "paper claim: a larger batch usually yields a more efficient "
      "schedule; the dynamic rule balances quality against scheduler time",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  exp::Sweep sweep =
      exp::fig_sweep("abl-batch", p.scale, spec, /*mean_comm=*/10.0);
  sweep.scheduler("PN");

  std::vector<exp::Sweep::Value> policies;
  for (const std::size_t batch : {25, 50, 100, 200, 400}) {
    policies.push_back({"fixed " + std::to_string(batch),
                        [batch](exp::SweepCell& c) {
                          c.params.set("pn_dynamic_batch", false);
                          c.params.set("batch_size", batch);
                        }});
  }
  policies.push_back({"dynamic sqrt(Gs+1)", [](exp::SweepCell& c) {
                        c.params.set("pn_dynamic_batch", true);
                      }});
  sweep.axis("batch_policy", std::move(policies));

  bench::run_sweep(sweep, p);
  return 0;
}
