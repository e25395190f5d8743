// Extension: the full ten-scheduler comparison — the paper's seven plus
// MET, KPB, and Sufferage from its reference [11] (Maheswaran et al.
// 1999), on the paper's normal workload.

#include <iostream>

#include "bench_common.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/800, /*reps=*/3,
                                     /*generations=*/100);
  bench::print_banner(
      "Extension", "ten-scheduler comparison (adds MET, KPB, SUF)",
      "literature-consistent hypothesis: MET collapses onto the fastest "
      "machine (terrible on heterogeneous rates), KPB sits between MET "
      "and EF, Sufferage is competitive with min-min",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  exp::Sweep sweep =
      exp::fig_sweep("baselines", p.scale, spec, /*mean_comm=*/10.0);
  sweep.schedulers(exp::extended_schedulers());
  const auto result = bench::run_sweep(sweep, p);

  double met_ms = 0.0, ef_ms = 0.0, kpb_ms = 0.0;
  for (const auto& row : result.rows) {
    if (row.scheduler == "MET") met_ms = row.cell.makespan.mean;
    if (row.scheduler == "EF") ef_ms = row.cell.makespan.mean;
    if (row.scheduler == "KPB") kpb_ms = row.cell.makespan.mean;
  }
  std::cout << "\nMET/EF makespan ratio " << util::fmt(met_ms / ef_ms, 4)
            << " (>> 1 expected); KPB between: "
            << util::fmt(ef_ms, 5) << " <= " << util::fmt(kpb_ms, 5)
            << " <= " << util::fmt(met_ms, 5) << " roughly.\n";
  return 0;
}
