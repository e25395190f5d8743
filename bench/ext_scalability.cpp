// Extension: scalability in the processor count. The paper reports
// results for "up to 50 heterogeneous processors"; this bench sweeps M
// and reports makespan and efficiency for PN against a fast immediate
// heuristic (EF) and a batch heuristic (MM). Ideal strong scaling would
// halve the makespan when M doubles; the efficiency column shows how
// much of that each scheduler keeps as coordination and communication
// overheads grow with M.

#include <iostream>

#include "bench_common.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/800, /*reps=*/3,
                                     /*generations=*/80);
  bench::print_banner(
      "Extension", "processor-count scaling (M = 5..50)",
      "literature-consistent hypothesis: makespan falls ~1/M while the "
      "cluster stays work-starved; PN holds the best efficiency at every "
      "M; the PN advantage widens with M as placement mistakes compound",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  exp::Sweep sweep =
      exp::fig_sweep("scalability", p.scale, spec, /*mean_comm=*/10.0);
  sweep.axis("procs", {5, 10, 20, 35, 50},
             [](exp::SweepCell& c, double m) {
               c.scenario.cluster.num_processors =
                   static_cast<std::size_t>(m);
             });
  sweep.schedulers({"PN", "EF", "MM"});
  const auto result = bench::run_sweep(sweep, p);

  std::vector<double> pn_by_m;
  for (const auto& row : result.rows) {
    if (row.scheduler == "PN") pn_by_m.push_back(row.cell.makespan.mean);
  }
  if (pn_by_m.size() >= 2) {
    std::cout << "\nPN makespan M=5 over M=50: "
              << util::fmt(pn_by_m.front() / pn_by_m.back(), 3)
              << "x (close to 10x = ideal scaling).\n";
  }
  return 0;
}
