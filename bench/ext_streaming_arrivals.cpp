// Extension: the dynamic setting the scheduler is designed for. Unlike
// the paper's experiments (§4.2, all tasks present at t = 0), tasks here
// arrive continuously — the scheduler must operate on-line, exactly the
// §3 protocol. Reports makespan, efficiency, and mean task response time
// per scheduler across four arrival regimes at the same mean rate, all
// realised by the shared workload::ArrivalSource λ(t) implementation
// (workload/arrival.hpp, also the serving runtime's arrival source):
// plain Poisson, bursty (two-state MMPP), diurnal λ(t), and a flash
// crowd.

#include "bench_common.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/800, /*reps=*/3,
                                     /*generations=*/100);
  bench::print_banner(
      "Extension", "streaming (Poisson) task arrivals",
      "paper-consistent hypothesis: PN retains its lead when tasks arrive "
      "continuously rather than all at t=0; response time matters here",
      p);

  exp::WorkloadSpec spec;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;
  spec.all_at_start = false;
  // Keep the system loaded: mean service need per task ≈ 1256 MFLOPs /
  // (55 Mflop/s avg rate) ≈ 23 s across `procs` processors.
  spec.mean_interarrival =
      23.0 / static_cast<double>(p.scale.procs) * 0.7;  // ~70% offered load

  exp::Sweep sweep =
      exp::fig_sweep("streaming", p.scale, spec, /*mean_comm=*/10.0);
  // Four regimes at the same mean rate: plain Poisson; bursty MMPP (the
  // clumping real submission streams show; dwell ≈ 30 mean
  // inter-arrivals, so each ON burst carries a few dozen tasks); a
  // diurnal λ(t) cycle spanning the run; and a mid-run flash crowd.
  sweep.axis(
      "arrivals",
      {exp::Sweep::Value{"poisson",
                         [](exp::SweepCell& c) {
                           c.scenario.workload.burstiness = 1.0;
                         }},
       exp::Sweep::Value{"bursty x8",
                         [](exp::SweepCell& c) {
                           c.scenario.workload.burstiness = 8.0;
                           c.scenario.workload.burst_dwell =
                               30.0 * c.scenario.workload.mean_interarrival;
                         }},
       exp::Sweep::Value{"diurnal",
                         [](exp::SweepCell& c) {
                           auto& w = c.scenario.workload;
                           w.arrival = "diurnal";
                           // One full cycle over the expected arrival span.
                           w.params.set("arrival_period",
                                        w.mean_interarrival *
                                            static_cast<double>(w.count));
                           w.params.set("arrival_amplitude", 0.8);
                         }},
       exp::Sweep::Value{"flash x10", [](exp::SweepCell& c) {
                           auto& w = c.scenario.workload;
                           w.arrival = "flash";
                           const double span =
                               w.mean_interarrival *
                               static_cast<double>(w.count);
                           // A single 10x spike over the middle tenth.
                           w.params.set("arrival_flash_start", 0.45 * span);
                           w.params.set("arrival_flash_width", 0.1 * span);
                           w.params.set("arrival_flash_mult", 10.0);
                         }}});
  sweep.schedulers(exp::all_schedulers());
  bench::run_sweep(sweep, p);
  return 0;
}
