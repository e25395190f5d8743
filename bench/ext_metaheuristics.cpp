// Extension: meta-heuristic shoot-out. The paper's §2 frames GAs, tabu
// search (ref [6]) and ant colony optimisation (ref [3]) as the
// applicable meta-heuristic family but evaluates only GAs; this bench
// completes the comparison. All searchers share the PN information model
// (smoothed rates, pending load, smoothed per-link comm estimates) and
// the same FCFS batch protocol, so differences isolate the search
// strategy itself: PN/PNI (genetic + re-balance), ZO (comm-oblivious
// genetic), SA (annealing), TS (tabu), ACO (ant colony), HC (restart
// hill climbing).

#include <iostream>

#include "bench_common.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/800, /*reps=*/3,
                                     /*generations=*/100);
  bench::print_banner(
      "Extension", "meta-heuristic shoot-out (PN, ZO, SA, TS, ACO, HC, PNI)",
      "literature-consistent hypothesis: all informed searchers land in "
      "one band well below RR; the GA variants with comm prediction (PN, "
      "PNI) lead on efficiency; HC is the floor of the family",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  auto kinds = exp::metaheuristic_schedulers();
  kinds.push_back("RR");  // uninformed reference

  exp::Sweep sweep =
      exp::fig_sweep("metaheuristics", p.scale, spec, /*mean_comm=*/10.0);
  sweep.schedulers(kinds);
  const auto result = bench::run_sweep(sweep, p);

  double pn_ms = 0.0, hc_ms = 0.0, rr_ms = 0.0;
  for (const auto& row : result.rows) {
    if (row.scheduler == "PN") pn_ms = row.cell.makespan.mean;
    if (row.scheduler == "HC") hc_ms = row.cell.makespan.mean;
    if (row.scheduler == "RR") rr_ms = row.cell.makespan.mean;
  }
  std::cout << "\nPN/RR makespan ratio " << util::fmt(pn_ms / rr_ms, 4)
            << " (<< 1 expected); HC/RR " << util::fmt(hc_ms / rr_ms, 4)
            << " (< 1 expected).\n";
  return 0;
}
