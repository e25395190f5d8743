// Ablation: crossover operator choice. The paper uses cycle crossover
// (following Zomaya & Teh); this bench compares it with PMX, order, and
// position-based crossover on the same batch-scheduling problem.

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
      "Ablation", "crossover operators on one scheduling batch",
      "design-choice study (not in paper): cycle crossover is the paper's "
      "choice; alternatives should be in the same quality band",
      p);

  const std::vector<std::pair<std::string, std::shared_ptr<ga::CrossoverOp>>>
      ops{
          {"cycle", std::make_shared<ga::CycleCrossover>()},
          {"pmx", std::make_shared<ga::PmxCrossover>()},
          {"order", std::make_shared<ga::OrderCrossover>()},
          {"position", std::make_shared<ga::PositionCrossover>()},
      };

  // GA-batch cells (exp::run_ga_batch_study) need no base scenario.
  exp::Sweep sweep("abl-crossover");
  std::vector<exp::Sweep::Value> values;
  for (const auto& [label, op] : ops) values.push_back({label, {}});
  sweep.axis("crossover", std::move(values));
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
      const ga::RouletteSelection sel;
      const ga::SwapMutation mut;
      const ga::GaEngine engine(cfg, sel, *ops[oi].second, mut);
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
