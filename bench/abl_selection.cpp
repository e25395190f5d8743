// Ablation: selection scheme. The paper uses weighted roulette wheel
// selection (§3.3); this bench compares tournament, rank, and stochastic
// universal sampling on the same batch-scheduling problem.

#include <memory>

#include "bench_common.hpp"
#include "core/fitness.hpp"
#include "core/init.hpp"
#include "ga/engine.hpp"

using namespace gasched;

int main(int argc, char** argv) {
  const auto p = bench::parse_params(argc, argv, /*tasks=*/200, /*reps=*/8,
                                     /*generations=*/300);
  bench::print_banner(
      "Ablation", "selection schemes on one scheduling batch",
      "design-choice study (not in paper): roulette is the paper's choice",
      p);

  const std::vector<std::pair<std::string, std::shared_ptr<ga::SelectionOp>>>
      ops{
          {"roulette", std::make_shared<ga::RouletteSelection>()},
          {"tournament2", std::make_shared<ga::TournamentSelection>(2)},
          {"tournament4", std::make_shared<ga::TournamentSelection>(4)},
          {"rank", std::make_shared<ga::RankSelection>()},
          {"sus", std::make_shared<ga::SusSelection>()},
      };

  // GA-batch cells (exp::run_ga_batch_study) need no base scenario.
  exp::Sweep sweep("abl-selection");
  std::vector<exp::Sweep::Value> values;
  for (const auto& [label, op] : ops) values.push_back({label, {}});
  sweep.axis("selection", std::move(values));
  sweep.extra_columns({"final_makespan", "reduction_vs_init"});
  sweep.runner([&](const exp::SweepCell& cell, bool parallel) {
    const std::size_t oi = cell.index;
    std::vector<double> finals(p.scale.reps), reductions(p.scale.reps);
    exp::run_ga_batch_study(p.scale, parallel, [&](std::size_t rep,
                                                   const exp::GaBatch& b) {
      const core::ScheduleProblem problem(b.codec, b.eval);
      ga::GaConfig cfg;
      cfg.population = p.scale.population;
      cfg.max_generations = p.scale.generations;
      cfg.record_history = true;
      const ga::CycleCrossover cx;
      const ga::SwapMutation mut;
      const ga::GaEngine engine(cfg, *ops[oi].second, cx, mut);
      util::Rng ga_rng = b.streams.split(1000 + 10 * rep + oi);
      auto init = core::initial_population(b.codec, b.eval, cfg.population,
                                           0.5, ga_rng);
      const auto r = engine.run(problem, std::move(init), ga_rng);
      finals[rep] = r.best_objective;
      reductions[rep] =
          1.0 - r.best_objective / r.objective_history.front();
    });
    exp::CellOutcome out;
    out.extras = {{"final_makespan", util::summarize(finals).mean},
                  {"reduction_vs_init", util::summarize(reductions).mean}};
    return out;
  });

  bench::run_sweep(sweep, p);
  return 0;
}
