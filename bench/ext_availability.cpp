// Extension: time-varying processor availability. §3 designs for
// processors that "are not dedicated and may have other tasks that
// partially use their resources", yet the paper's §4.2 experiments fix
// every execution rate. This bench runs the schedulers under the three
// non-dedicated availability models the simulator ships — sinusoidal
// (periodic background load), random-walk (drifting load), and two-state
// (bursty on/off load) — plus the paper's fixed setup as reference, and
// additionally under drifting per-link communication costs.

#include <iostream>

#include "bench_common.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/600, /*reps=*/3,
                                     /*generations=*/80);
  bench::print_banner(
      "Extension", "variable resource availability (SS3's setting)",
      "literature-consistent hypothesis: every scheduler loses efficiency "
      "when processors are non-dedicated; schedulers that track observed "
      "rates (PN, and EF through pending loads) degrade most gracefully, "
      "RR degrades worst",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;

  exp::Sweep sweep =
      exp::fig_sweep("availability", p.scale, spec, /*mean_comm=*/10.0);

  const std::pair<const char*, sim::AvailabilityKind> models[] = {
      {"fixed", sim::AvailabilityKind::kFixed},
      {"sinusoidal", sim::AvailabilityKind::kSinusoidal},
      {"random_walk", sim::AvailabilityKind::kRandomWalk},
      {"two_state", sim::AvailabilityKind::kTwoState},
  };
  std::vector<exp::Sweep::Value> cases;
  for (const auto& [label, kind] : models) {
    const auto k = kind;
    cases.push_back({label, [k](exp::SweepCell& c) {
                       c.scenario.cluster.availability = k;
                     }});
  }
  cases.push_back({"fixed+drift_comm", [](exp::SweepCell& c) {
                     c.scenario.cluster.availability =
                         sim::AvailabilityKind::kFixed;
                     c.scenario.cluster.drifting_comm = true;
                   }});
  sweep.axis("availability", std::move(cases));
  sweep.schedulers({"PN", "EF", "MM", "RR"});
  const auto result = bench::run_sweep(sweep, p);

  double pn_fixed = 0.0, pn_twostate = 0.0;
  for (const auto& row : result.rows) {
    if (row.scheduler != "PN") continue;
    const auto& label = row.coords.front().second;
    if (label == "fixed") pn_fixed = row.cell.makespan.mean;
    if (label == "two_state") pn_twostate = row.cell.makespan.mean;
  }
  if (pn_fixed > 0.0) {
    std::cout << "\nPN makespan two_state/fixed = "
              << util::fmt(pn_twostate / pn_fixed, 3)
              << "x (> 1: non-dedicated processors cost real time).\n";
  }
  return 0;
}
