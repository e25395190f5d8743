// Cached-fitness evaluation tests: dirty tracking must skip untouched
// survivors without changing any result.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/fitness.hpp"
#include "core/init.hpp"
#include "ga/engine.hpp"

namespace gasched::ga {
namespace {

/// Toy problem (inversions of a permutation) with an evaluation counter.
class CountingSortProblem final : public GaProblem {
 public:
  double fitness(const Chromosome& c) const override {
    return 1.0 / (1.0 + inversions(c));
  }
  double objective(const Chromosome& c) const override {
    return inversions(c);
  }
  Evaluation evaluate(const Chromosome& c, Workspace* ws) const override {
    evaluations.fetch_add(1, std::memory_order_relaxed);
    return GaProblem::evaluate(c, ws);
  }

  mutable std::atomic<std::size_t> evaluations{0};

 private:
  static double inversions(const Chromosome& c) {
    double inv = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      for (std::size_t j = i + 1; j < c.size(); ++j) {
        if (c[i] > c[j]) ++inv;
      }
    }
    return inv;
  }
};

std::vector<Chromosome> random_population(std::size_t count, std::size_t n,
                                          util::Rng& rng) {
  std::vector<Chromosome> pop;
  for (std::size_t p = 0; p < count; ++p) {
    Chromosome c(n);
    std::iota(c.begin(), c.end(), Gene{0});
    rng.shuffle(c);
    pop.push_back(std::move(c));
  }
  return pop;
}

GaEngine make_engine(GaConfig cfg) {
  static const RouletteSelection sel;
  static const CycleCrossover cx;
  static const SwapMutation mut;
  return GaEngine(cfg, sel, cx, mut);
}

TEST(CachedEval, FrozenPopulationEvaluatesOnlyOnce) {
  // No crossover, no mutation, no improvement: after the initial sweep no
  // individual is ever dirty again, so the evaluation count stays at the
  // population size no matter how many generations run.
  GaConfig cfg;
  cfg.population = 12;
  cfg.max_generations = 40;
  cfg.crossover_rate = 0.0;
  cfg.mutants_per_generation = 0;
  cfg.improvement_passes = 0;
  const GaEngine engine = make_engine(cfg);
  CountingSortProblem problem;
  util::Rng rng(1);
  const GaResult r = engine.run(problem, random_population(12, 10, rng), rng);
  EXPECT_EQ(problem.evaluations.load(), 12u);
  EXPECT_EQ(r.evaluations, 12u);
  EXPECT_EQ(r.generations, 40u);
}

TEST(CachedEval, DefaultConfigSkipsSurvivorsAndElites) {
  // With the paper's operator mix some pairs skip crossover; their clean
  // copies and the elite slot must not be re-evaluated.
  GaConfig cfg;
  cfg.population = 20;
  cfg.max_generations = 50;
  const GaEngine engine = make_engine(cfg);
  CountingSortProblem problem;
  util::Rng rng(2);
  const GaResult r = engine.run(problem, random_population(20, 12, rng), rng);
  const std::size_t naive = 20 * (r.generations + 1);
  EXPECT_EQ(problem.evaluations.load(), r.evaluations);
  EXPECT_LT(r.evaluations, naive);
  EXPECT_GE(r.evaluations, 20u);
}

TEST(CachedEval, ResultsIdenticalWithCachingDisabledByForce) {
  // A run where every generation dirties everything (improvement pass
  // that always reports a change) must agree with the plain run on what
  // it reports for identical chromosomes — i.e. caching changes counts,
  // never values. Here we simply check the engine is deterministic across
  // two identical configs (the caching path is always on; the golden
  // tests pin the absolute values).
  GaConfig cfg;
  cfg.population = 14;
  cfg.max_generations = 60;
  const GaEngine engine = make_engine(cfg);
  CountingSortProblem p1, p2;
  util::Rng ra(3), rb(3);
  auto popa = random_population(14, 11, ra);
  auto popb = random_population(14, 11, rb);
  const GaResult x = engine.run(p1, popa, ra);
  const GaResult y = engine.run(p2, popb, rb);
  EXPECT_EQ(x.best, y.best);
  EXPECT_EQ(x.best_objective, y.best_objective);
  EXPECT_EQ(x.evaluations, y.evaluations);
}

/// Forwarding problem whose make_workspace() returns null (the GaProblem
/// default): the engine has no workspace to carry between generations,
/// so every improve() decodes its chromosome from scratch.
class NoWorkspaceProblem final : public GaProblem {
 public:
  explicit NoWorkspaceProblem(const GaProblem& inner) : inner_(inner) {}
  double fitness(const Chromosome& c) const override {
    return inner_.fitness(c);
  }
  double objective(const Chromosome& c) const override {
    return inner_.objective(c);
  }
  Evaluation evaluate(const Chromosome& c, Workspace* ws) const override {
    return inner_.evaluate(c, ws);
  }
  bool improve(Chromosome& c, util::Rng& rng, Workspace* ws) const override {
    return inner_.improve(c, rng, ws);
  }

 private:
  const GaProblem& inner_;
};

/// Cycle crossover that counts the children it breeds.
class CountingCrossover final : public CrossoverOp {
 public:
  void apply_into(const Chromosome& a, const Chromosome& b, Chromosome& c1,
                  Chromosome& c2, util::Rng& rng) const override {
    children += 2;
    cx_.apply_into(a, b, c1, c2, rng);
  }
  std::string name() const override { return cx_.name(); }

  mutable std::size_t children = 0;

 private:
  CycleCrossover cx_;
};

/// A paper-shaped batch: `tasks` uniform sizes on `procs` heterogeneous
/// processors with pending load.
struct BatchFixture {
  BatchFixture(std::size_t tasks, std::size_t procs, bool use_comm,
               std::uint64_t seed)
      : codec(tasks, procs), eval(make_eval(tasks, procs, use_comm, seed)) {}

  static core::ScheduleEvaluator make_eval(std::size_t tasks,
                                           std::size_t procs, bool use_comm,
                                           std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<double> sizes(tasks);
    for (auto& v : sizes) v = rng.uniform(10.0, 1000.0);
    sim::SystemView view;
    view.procs.resize(procs);
    for (std::size_t j = 0; j < procs; ++j) {
      view.procs[j].id = static_cast<sim::ProcId>(j);
      view.procs[j].rate = rng.uniform(10.0, 100.0);
      view.procs[j].comm_estimate = rng.uniform(1.0, 50.0);
      view.procs[j].pending_mflops = rng.uniform(0.0, 500.0);
    }
    return core::ScheduleEvaluator(std::move(sizes), view, use_comm);
  }

  core::ScheduleCodec codec;
  core::ScheduleEvaluator eval;
};

struct CarryRun {
  GaResult result;
  std::vector<Chromosome> final_population;
  std::size_t children = 0;
};

CarryRun run_batch(const BatchFixture& f, const GaProblem& problem,
                   std::size_t passes) {
  GaConfig cfg;
  cfg.population = 20;
  cfg.max_generations = 200;
  cfg.improvement_passes = passes;
  cfg.record_history = true;
  static const RouletteSelection sel;
  static const SwapMutation mut;
  const CountingCrossover cx;
  const GaEngine engine(cfg, sel, cx, mut);
  util::Rng init_rng(21);
  auto init = core::initial_population(f.codec, f.eval, cfg.population, 0.5,
                                       init_rng);
  util::Rng ga_rng(22);
  CarryRun out;
  out.result = engine.run(problem, std::move(init), ga_rng, {},
                          &out.final_population);
  out.children = cx.children;
  return out;
}

void expect_same_run(const CarryRun& carry, const CarryRun& plain) {
  EXPECT_EQ(carry.result.best, plain.result.best);
  EXPECT_EQ(carry.result.best_objective, plain.result.best_objective);
  EXPECT_EQ(carry.result.best_fitness, plain.result.best_fitness);
  EXPECT_EQ(carry.result.objective_history, plain.result.objective_history);
  EXPECT_EQ(carry.result.generations, plain.result.generations);
  EXPECT_EQ(carry.final_population, plain.final_population);
}

TEST(CarriedState, PnShapeMatchesRunWithoutWorkspaces) {
  // The paper's PN shape: H = M = 50, comm-aware, one re-balance pass.
  // Carried workspaces let re-balance skip the decode of clean copies;
  // that must never change a single result.
  const BatchFixture f(50, 50, true, 31);
  const core::ScheduleProblem problem(f.codec, f.eval);
  const NoWorkspaceProblem plain(problem);
  const CarryRun carry = run_batch(f, problem, 1);
  const CarryRun reference = run_batch(f, plain, 1);
  expect_same_run(carry, reference);
}

TEST(CarriedState, ZoShapeMatchesAndSkipsCopyChildren) {
  // The ZO shape: H = 200, comm-oblivious, no re-balance. Crossover
  // children identical to a parent keep its cached evaluation.
  const BatchFixture f(200, 50, false, 32);
  const core::ScheduleProblem problem(f.codec, f.eval);
  const NoWorkspaceProblem plain(problem);
  const CarryRun carry = run_batch(f, problem, 0);
  const CarryRun reference = run_batch(f, plain, 0);
  expect_same_run(carry, reference);
  // Re-pricing every crossover child costs at least population + children
  // - generations evaluations (only the elite slot can overwrite a child
  // clean). Carrying copy children's evaluations must beat that bound.
  const std::size_t gens = carry.result.generations;
  ASSERT_GT(gens, 0u);
  EXPECT_LT(carry.result.evaluations, 20 + carry.children - gens);
}

/// Forwards to a ScheduleProblem and checks, before every improve() that
/// starts from a carried workspace, that the workspace holds exactly the
/// fresh decode + pricing of the chromosome — bit for bit.
class CheckingCarryProblem final : public GaProblem {
 public:
  CheckingCarryProblem(const core::ScheduleProblem& inner,
                       const BatchFixture& f)
      : inner_(inner), f_(f) {}
  double fitness(const Chromosome& c) const override {
    return inner_.fitness(c);
  }
  double objective(const Chromosome& c) const override {
    return inner_.objective(c);
  }
  Evaluation evaluate(const Chromosome& c, Workspace* ws) const override {
    return inner_.evaluate(c, ws);
  }
  std::unique_ptr<Workspace> make_workspace() const override {
    return inner_.make_workspace();
  }
  bool improve(Chromosome& c, util::Rng& rng, Workspace* ws) const override {
    ++calls;
    if (ws != nullptr && ws->describes_chromosome) {
      ++described;
      if (!describes(static_cast<const core::EvalWorkspace&>(*ws), c)) {
        ++mismatches;
      }
    }
    return inner_.improve(c, rng, ws);
  }

  mutable std::size_t calls = 0;
  mutable std::size_t described = 0;
  mutable std::size_t mismatches = 0;

 private:
  static bool same(const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  }
  static bool same(double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  bool describes(const core::EvalWorkspace& w, const Chromosome& c) const {
    core::FlatSchedule fresh;
    core::QueueLoads loads;
    f_.codec.decode_into(c, fresh);
    f_.eval.load(fresh, loads);
    return w.schedule == fresh && same(w.loads.completion, loads.completion) &&
           same(w.loads.dev_sq, loads.dev_sq) &&
           same(w.loads.sum_sq, loads.sum_sq) &&
           same(w.loads.max_completion, loads.max_completion) &&
           w.loads.heaviest == loads.heaviest &&
           same(w.loads.eval.fitness, loads.eval.fitness) &&
           same(w.loads.eval.makespan, loads.eval.makespan) &&
           same(w.loads.eval.relative_error, loads.eval.relative_error);
  }

  const core::ScheduleProblem& inner_;
  const BatchFixture& f_;
};

TEST(CarriedState, CarriedStartsHoldAFreshDecode) {
  // Every re-balance call that starts from a carried workspace must find
  // exactly a fresh decode + load of its chromosome there. On this
  // PN-shape run 37% of re-balance calls start carried.
  const BatchFixture f(50, 50, true, 33);
  const core::ScheduleProblem problem(f.codec, f.eval);
  const CheckingCarryProblem checking(problem, f);
  const NoWorkspaceProblem plain(problem);
  const CarryRun carry = run_batch(f, checking, 1);
  const CarryRun reference = run_batch(f, plain, 1);
  expect_same_run(carry, reference);
  EXPECT_EQ(checking.mismatches, 0u);
  ASSERT_GT(checking.calls, 0u);
  EXPECT_GT(static_cast<double>(checking.described) /
                static_cast<double>(checking.calls),
            0.3);
}

TEST(CarriedState, ReportedOriginsMatchTheComparingPath) {
  // CycleCrossover reports its children's origins, so the engine skips
  // comparing them with the parents; CountingCrossover reports nothing,
  // so the engine compares. Both runs must be identical, at both shapes.
  for (const std::size_t passes : {std::size_t{1}, std::size_t{0}}) {
    const BatchFixture f(passes == 1 ? 50 : 200, 50, passes == 1, 34);
    const core::ScheduleProblem problem(f.codec, f.eval);
    const CarryRun comparing = run_batch(f, problem, passes);
    GaConfig cfg;
    cfg.population = 20;
    cfg.max_generations = 200;
    cfg.improvement_passes = passes;
    cfg.record_history = true;
    static const RouletteSelection sel;
    static const SwapMutation mut;
    static const CycleCrossover cx;
    util::Rng init_rng(21);
    auto init = core::initial_population(f.codec, f.eval, cfg.population, 0.5,
                                         init_rng);
    util::Rng ga_rng(22);
    CarryRun reporting;
    reporting.result = GaEngine(cfg, sel, cx, mut).run(
        problem, std::move(init), ga_rng, {}, &reporting.final_population);
    expect_same_run(reporting, comparing);
    EXPECT_EQ(reporting.result.evaluations, comparing.result.evaluations);
  }
}

}  // namespace
}  // namespace gasched::ga
