// Tests for the generic GA loop using a transparent toy problem: sort a
// permutation (objective = number of inversions).

#include "ga/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

namespace gasched::ga {
namespace {

/// Toy problem: minimise inversions of a permutation of 0..n-1.
class SortProblem final : public GaProblem {
 public:
  static double inversions(const Chromosome& c) {
    double inv = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      for (std::size_t j = i + 1; j < c.size(); ++j) {
        if (c[i] > c[j]) ++inv;
      }
    }
    return inv;
  }
  double fitness(const Chromosome& c) const override {
    return 1.0 / (1.0 + inversions(c));
  }
  double objective(const Chromosome& c) const override {
    return inversions(c);
  }
};

/// Same problem plus a greedy local improvement: swap one adjacent
/// out-of-order pair.
class SortProblemWithImprove final : public GaProblem {
 public:
  double fitness(const Chromosome& c) const override {
    return 1.0 / (1.0 + SortProblem::inversions(c));
  }
  double objective(const Chromosome& c) const override {
    return SortProblem::inversions(c);
  }
  bool improve(Chromosome& c, util::Rng& rng,
               Workspace* /*ws*/) const override {
    if (c.size() < 2) return false;
    const std::size_t start = rng.index(c.size() - 1);
    for (std::size_t k = 0; k + 1 < c.size(); ++k) {
      const std::size_t i = (start + k) % (c.size() - 1);
      if (c[i] > c[i + 1]) {
        std::swap(c[i], c[i + 1]);
        return true;
      }
    }
    return false;
  }
};

/// SortProblem that counts the individuals the engine prices through
/// evaluate_batch and flags any index outside the population.
class BatchCountingSortProblem final : public GaProblem {
 public:
  double fitness(const Chromosome& c) const override {
    return inner_.fitness(c);
  }
  double objective(const Chromosome& c) const override {
    return inner_.objective(c);
  }
  void evaluate_batch(std::span<const Chromosome> pop,
                      std::span<const std::size_t> indices, Workspace* ws,
                      Evaluation* out) const override {
    batched += indices.size();
    for (const std::size_t i : indices) {
      if (i >= pop.size()) bad_index = true;
    }
    GaProblem::evaluate_batch(pop, indices, ws, out);
  }
  mutable std::atomic<std::size_t> batched{0};
  mutable std::atomic<bool> bad_index{false};

 private:
  SortProblem inner_;
};

std::vector<Chromosome> random_population(std::size_t count, std::size_t n,
                                          util::Rng& rng) {
  std::vector<Chromosome> pop;
  for (std::size_t p = 0; p < count; ++p) {
    Chromosome c(n);
    for (std::size_t i = 0; i < n; ++i) c[i] = static_cast<Gene>(i);
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

TEST(GaEngine, ImprovesObjectiveSubstantially) {
  GaConfig cfg;
  cfg.population = 20;
  cfg.max_generations = 300;
  cfg.record_history = true;
  const GaEngine engine = make_engine(cfg);
  util::Rng rng(1);
  auto pop = random_population(20, 15, rng);
  SortProblem problem;
  const double initial_best = [&] {
    double best = 1e18;
    for (const auto& c : pop) best = std::min(best, problem.objective(c));
    return best;
  }();
  const GaResult r = engine.run(problem, pop, rng);
  EXPECT_LT(r.best_objective, initial_best * 0.5);
  EXPECT_TRUE(is_permutation_of_distinct(r.best));
}

TEST(GaEngine, HistoryIsMonotoneNonIncreasingWithElitism) {
  GaConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 100;
  cfg.elitism = true;
  cfg.record_history = true;
  const GaEngine engine = make_engine(cfg);
  util::Rng rng(2);
  SortProblem problem;
  const GaResult r = engine.run(problem, random_population(16, 12, rng), rng);
  ASSERT_FALSE(r.objective_history.empty());
  for (std::size_t i = 1; i < r.objective_history.size(); ++i) {
    EXPECT_LE(r.objective_history[i], r.objective_history[i - 1]);
  }
}

TEST(GaEngine, TargetObjectiveStopsEarly) {
  GaConfig cfg;
  cfg.population = 20;
  cfg.max_generations = 10000;
  cfg.target_objective = 5.0;
  const GaEngine engine = make_engine(cfg);
  util::Rng rng(3);
  SortProblem problem;
  const GaResult r = engine.run(problem, random_population(20, 10, rng), rng);
  EXPECT_LE(r.best_objective, 5.0);
  EXPECT_LT(r.generations, 10000u);
}

TEST(GaEngine, StopPredicateHonoured) {
  GaConfig cfg;
  cfg.population = 10;
  cfg.max_generations = 1000;
  const GaEngine engine = make_engine(cfg);
  util::Rng rng(4);
  SortProblem problem;
  const GaResult r = engine.run(
      problem, random_population(10, 10, rng), rng,
      [](std::size_t gen, double) { return gen >= 7; });
  EXPECT_EQ(r.generations, 7u);
}

TEST(GaEngine, ImprovementHookAccelerates) {
  GaConfig base;
  base.population = 12;
  base.max_generations = 60;
  base.improvement_passes = 0;
  GaConfig with = base;
  with.improvement_passes = 3;
  const GaEngine plain = make_engine(base);
  const GaEngine improved = make_engine(with);
  SortProblem p0;
  SortProblemWithImprove p1;
  // Average over several seeds to avoid flakiness.
  double plain_sum = 0.0, improved_sum = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng r1(100 + seed), r2(100 + seed);
    auto pop1 = random_population(12, 20, r1);
    auto pop2 = pop1;
    plain_sum += plain.run(p0, pop1, r1).best_objective;
    improved_sum += improved.run(p1, pop2, r2).best_objective;
  }
  EXPECT_LT(improved_sum, plain_sum);
}

TEST(GaEngine, DeterministicGivenSeed) {
  GaConfig cfg;
  cfg.population = 10;
  cfg.max_generations = 50;
  const GaEngine engine = make_engine(cfg);
  SortProblem problem;
  util::Rng ra(9), rb(9);
  auto pa = random_population(10, 12, ra);
  auto pb = random_population(10, 12, rb);
  const GaResult x = engine.run(problem, pa, ra);
  const GaResult y = engine.run(problem, pb, rb);
  EXPECT_EQ(x.best, y.best);
  EXPECT_DOUBLE_EQ(x.best_objective, y.best_objective);
}

// The same seeded GA on SortProblem and on its batch-counting twin: every
// evaluation goes through evaluate_batch without changing the run.
TEST(GaEngine, SerialEvaluationsRouteThroughEvaluateBatch) {
  GaConfig cfg;
  cfg.population = 10;
  cfg.max_generations = 15;
  const GaEngine engine = make_engine(cfg);
  const SortProblem plain;
  const BatchCountingSortProblem counting;
  util::Rng ra(21), rb(21);
  auto pa = random_population(10, 14, ra);
  auto pb = random_population(10, 14, rb);
  const GaResult x = engine.run(plain, pa, ra);
  const GaResult y = engine.run(counting, pb, rb);
  EXPECT_FALSE(counting.bad_index.load());
  EXPECT_GT(y.evaluations, 0u);
  EXPECT_EQ(counting.batched.load(), y.evaluations);
  EXPECT_EQ(x.evaluations, y.evaluations);
  EXPECT_EQ(x.best, y.best);
  EXPECT_EQ(x.best_objective, y.best_objective);
  EXPECT_EQ(x.generations, y.generations);
}

/// SortProblem whose per-individual evaluate() is deliberately wrong and
/// whose evaluate_batch() prices correctly: a run can only match the
/// plain problem if the engine takes every evaluation from the batch.
class BatchOnlySortProblem final : public GaProblem {
 public:
  double fitness(const Chromosome& c) const override {
    return inner_.fitness(c);
  }
  double objective(const Chromosome& c) const override {
    return inner_.objective(c);
  }
  Evaluation evaluate(const Chromosome&, Workspace*) const override {
    return {0.0, 1e9};
  }
  void evaluate_batch(std::span<const Chromosome> pop,
                      std::span<const std::size_t> indices, Workspace*,
                      Evaluation* out) const override {
    for (std::size_t k = 0; k < indices.size(); ++k) {
      out[k] = {fitness(pop[indices[k]]), objective(pop[indices[k]])};
    }
  }

 private:
  SortProblem inner_;
};

TEST(GaEngine, UsesTheValuesEvaluateBatchReturns) {
  GaConfig cfg;
  cfg.population = 10;
  cfg.max_generations = 30;
  cfg.record_history = true;
  const GaEngine engine = make_engine(cfg);
  util::Rng ra(31), rb(31);
  auto pa = random_population(10, 12, ra);
  auto pb = random_population(10, 12, rb);
  const GaResult x = engine.run(SortProblem{}, pa, ra);
  const GaResult y = engine.run(BatchOnlySortProblem{}, pb, rb);
  EXPECT_EQ(x.best, y.best);
  EXPECT_EQ(x.best_objective, y.best_objective);
  EXPECT_EQ(x.objective_history, y.objective_history);
  EXPECT_LT(y.best_objective, 1e9);
}

TEST(GaEngine, PadsSmallInitialPopulation) {
  GaConfig cfg;
  cfg.population = 8;
  cfg.max_generations = 5;
  const GaEngine engine = make_engine(cfg);
  util::Rng rng(10);
  SortProblem problem;
  auto seed = random_population(2, 10, rng);
  const GaResult r = engine.run(problem, seed, rng);
  EXPECT_FALSE(r.best.empty());
}

TEST(GaEngine, RejectsEmptyInitialPopulation) {
  GaConfig cfg;
  const GaEngine engine = make_engine(cfg);
  util::Rng rng(11);
  SortProblem problem;
  EXPECT_THROW(engine.run(problem, {}, rng), std::invalid_argument);
}

TEST(GaEngine, RejectsTinyPopulationConfig) {
  GaConfig cfg;
  cfg.population = 1;
  EXPECT_THROW(make_engine(cfg), std::invalid_argument);
}

TEST(GaEngine, StallStopEndsConvergedRuns) {
  GaConfig cfg;
  cfg.population = 12;
  cfg.max_generations = 100000;
  cfg.stall_generations = 25;
  const GaEngine engine = make_engine(cfg);
  util::Rng rng(13);
  SortProblem problem;
  const GaResult r = engine.run(problem, random_population(12, 8, rng), rng);
  // A permutation of 8 converges long before 100k generations; the stall
  // detector must cut the run short.
  EXPECT_LT(r.generations, 10000u);
}

TEST(GaEngine, StallCounterResetsOnImprovement) {
  GaConfig cfg;
  cfg.population = 12;
  cfg.max_generations = 400;
  cfg.stall_generations = 200;  // must not fire while still improving
  cfg.record_history = true;
  const GaEngine engine = make_engine(cfg);
  util::Rng rng(14);
  SortProblem problem;
  const GaResult r = engine.run(problem, random_population(12, 14, rng), rng);
  // The run should make progress well past the stall window's length.
  EXPECT_LT(r.best_objective, r.objective_history.front());
}

TEST(GaEngine, ZeroGenerationsReturnsBestOfInitialPopulation) {
  GaConfig cfg;
  cfg.population = 6;
  cfg.max_generations = 0;
  const GaEngine engine = make_engine(cfg);
  util::Rng rng(12);
  SortProblem problem;
  auto pop = random_population(6, 10, rng);
  double best = 1e18;
  for (const auto& c : pop) best = std::min(best, problem.objective(c));
  const GaResult r = engine.run(problem, pop, rng);
  EXPECT_DOUBLE_EQ(r.best_objective, best);
  EXPECT_EQ(r.generations, 0u);
}

/// Crossover that breaks the gene set: c1 repeats a's second gene.
class DuplicatingCrossover final : public CrossoverOp {
 public:
  void apply_into(const Chromosome& a, const Chromosome& b, Chromosome& c1,
                  Chromosome& c2, util::Rng& /*rng*/) const override {
    c1 = a;
    c2 = b;
    c1[0] = c1[1];
  }
  std::string name() const override { return "duplicating"; }
};

/// Mutation that breaks the gene set: overwrites the first gene.
class OverwritingMutation final : public MutationOp {
 public:
  void apply(Chromosome& c, util::Rng& /*rng*/) const override {
    c[0] = c[1];
  }
  std::string name() const override { return "overwriting"; }
};

/// Cycle crossover that claims both children are copies of a.
class MisreportingCrossover final : public CrossoverOp {
 public:
  void apply_into(const Chromosome& a, const Chromosome& b, Chromosome& c1,
                  Chromosome& c2, util::Rng& rng) const override {
    cx_.apply_into(a, b, c1, c2, rng);
  }
  ChildOrigins apply_into_origin(const Chromosome& a, const Chromosome& b,
                                 Chromosome& c1, Chromosome& c2,
                                 util::Rng& rng) const override {
    cx_.apply_into(a, b, c1, c2, rng);
    return {ChildOrigin::kSameAsA, ChildOrigin::kSameAsA};
  }
  std::string name() const override { return "misreporting"; }

 private:
  CycleCrossover cx_;
};

TEST(GaEngine, DebugBuildsRejectAWrongChildOrigin) {
#ifdef NDEBUG
  GTEST_SKIP() << "the origin check is compiled out of release builds";
#else
  GaConfig cfg;
  cfg.population = 6;
  cfg.max_generations = 20;
  cfg.crossover_rate = 1.0;
  static const RouletteSelection sel;
  static const SwapMutation swap;
  const MisreportingCrossover liar;
  SortProblem problem;
  util::Rng rng(16);
  const auto pop = random_population(6, 8, rng);
  EXPECT_THROW(GaEngine(cfg, sel, liar, swap).run(problem, pop, rng),
               std::logic_error);
#endif
}

TEST(GaEngine, DebugBuildsRejectBreedingThatBreaksTheGeneSet) {
#ifdef NDEBUG
  GTEST_SKIP() << "the breeding invariant is compiled out of release builds";
#else
  GaConfig cfg;
  cfg.population = 6;
  cfg.max_generations = 5;
  cfg.crossover_rate = 1.0;
  static const RouletteSelection sel;
  static const SwapMutation swap;
  static const CycleCrossover cx;
  const DuplicatingCrossover bad_cx;
  const OverwritingMutation bad_mut;
  SortProblem problem;
  util::Rng rng(15);
  const auto pop = random_population(6, 8, rng);
  EXPECT_THROW(GaEngine(cfg, sel, bad_cx, swap).run(problem, pop, rng),
               std::logic_error);
  EXPECT_THROW(GaEngine(cfg, sel, cx, bad_mut).run(problem, pop, rng),
               std::logic_error);
  EXPECT_NO_THROW(GaEngine(cfg, sel, cx, swap).run(problem, pop, rng));
#endif
}

}  // namespace
}  // namespace gasched::ga
