// Extension: non-dedicated processors that fail and recover. The paper's
// §3 design keeps all task queues at the scheduler so that "when a machine
// is switched off" its work can be reassigned; this bench exercises that
// path end-to-end and compares scheduler robustness.

#include <iostream>

#include "bench_common.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/600, /*reps=*/3,
                                     /*generations=*/100);
  bench::print_banner(
      "Extension", "processor failures and recoveries",
      "paper-consistent hypothesis: all schedulers still complete every "
      "task (work is requeued at the scheduler); makespans stretch; "
      "comm-aware batch scheduling retains its lead",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  sim::FailureConfig fcfg;
  fcfg.mean_uptime = 400.0;
  fcfg.mean_downtime = 100.0;
  fcfg.horizon = 1e6;
  fcfg.failing_fraction = 0.5;  // half the machines are flaky

  exp::Sweep sweep =
      exp::fig_sweep("failures", p.scale, spec, /*mean_comm=*/10.0);
  sweep.axis("cluster",
             {exp::Sweep::Value{"healthy", {}},
              exp::Sweep::Value{"flaky", [fcfg](exp::SweepCell& c) {
                                  c.scenario.failures = fcfg;
                                }}});
  sweep.schedulers(exp::all_schedulers());
  const auto result = bench::run_sweep(sweep, p);

  // Pair healthy/flaky rows per scheduler for the slowdown summary and
  // the no-task-lost invariant.
  const auto healthy = result.where("cluster", "healthy");
  const auto flaky = result.where("cluster", "flaky");
  bool lost = false;
  util::Table slowdown({"scheduler", "slowdown", "requeued"});
  for (std::size_t i = 0; i < healthy.size() && i < flaky.size(); ++i) {
    slowdown.add_row(
        flaky[i]->scheduler,
        {flaky[i]->cell.makespan.mean / healthy[i]->cell.makespan.mean,
         flaky[i]->cell.requeued.mean});
    if (flaky[i]->cell.completed.min <
        static_cast<double>(p.scale.tasks)) {
      std::cerr << "ERROR: task lost under failures (" << flaky[i]->scheduler
                << ")!\n";
      lost = true;
    }
  }
  std::cout << "\n";
  slowdown.print(std::cout);
  if (lost) return 1;
  std::cout << "\nNo tasks were lost: scheduler-side queues make failures "
               "survivable, as §3 argues.\n";
  return 0;
}
