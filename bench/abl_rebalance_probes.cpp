// Ablation: probe budget of the re-balancing heuristic. §3.5 fixes "a
// maximum of 5 random searches for a smaller task"; this bench sweeps
// that cap on one scheduling batch to show what the choice trades —
// more probes find a swap more often (better makespan per generation)
// but cost time linearly, the same trade Fig. 4 shows for the number of
// re-balances.

#include <chrono>

#include "bench_common.hpp"
#include "core/fitness.hpp"
#include "core/init.hpp"
#include "ga/engine.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/200, /*reps=*/8,
                                     /*generations=*/300);
  bench::print_banner(
      "Ablation", "re-balance probe cap (paper SS3.5 fixes 5)",
      "design-choice study (not in paper): makespan improves with more "
      "probes at diminishing returns; GA wall time grows with the cap",
      p);

  // GA-batch cells (exp::run_ga_batch_study) need no base scenario.
  exp::Sweep sweep("abl-probes");
  sweep.axis("probes", {0, 1, 2, 5, 10, 20}, {});
  sweep.extra_columns(
      {"final_makespan", "reduction_vs_init", "ga_wall_s"});
  sweep.runner([&](const exp::SweepCell& cell, bool parallel) {
    const std::size_t pi = cell.index;
    const auto probes = static_cast<std::size_t>(
        cell.coord_value("probes"));
    const std::size_t reps = p.scale.reps;
    std::vector<double> finals(reps), reductions(reps), walls(reps);
    exp::run_ga_batch_study(p.scale, parallel, [&](std::size_t rep,
                                                   const exp::GaBatch& b) {
      const core::ScheduleProblem problem(b.codec, b.eval, probes);
      ga::GaConfig cfg;
      cfg.population = p.scale.population;
      cfg.max_generations = p.scale.generations;
      cfg.record_history = true;
      // probes = 0 disables the improvement pass entirely (pure GA).
      cfg.improvement_passes = probes == 0 ? 0 : 1;
      static const ga::RouletteSelection sel;
      static const ga::CycleCrossover cx;
      static const ga::SwapMutation mut;
      const ga::GaEngine engine(cfg, sel, cx, mut);
      util::Rng ga_rng = b.streams.split(1000 + 100 * rep + pi);
      auto init = core::initial_population(b.codec, b.eval, cfg.population,
                                           0.5, ga_rng);
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = engine.run(problem, std::move(init), ga_rng);
      const auto t1 = std::chrono::steady_clock::now();
      finals[rep] = r.best_objective;
      reductions[rep] =
          1.0 - r.best_objective / r.objective_history.front();
      walls[rep] = std::chrono::duration<double>(t1 - t0).count();
    });
    exp::CellOutcome out;
    out.extras = {{"final_makespan", util::summarize(finals).mean},
                  {"reduction_vs_init", util::summarize(reductions).mean},
                  {"ga_wall_s", util::summarize(walls).mean}};
    return out;
  });

  bench::run_sweep(sweep, p);
  return 0;
}
