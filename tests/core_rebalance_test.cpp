// Tests for the re-balancing heuristic (paper §3.5).

#include "core/rebalance.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <optional>
#include <vector>

namespace gasched::core {
namespace {

sim::SystemView make_view(std::vector<double> rates) {
  sim::SystemView v;
  v.procs.resize(rates.size());
  for (std::size_t j = 0; j < rates.size(); ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = rates[j];
  }
  return v;
}

FlatSchedule flat(const ProcQueues& queues) {
  FlatSchedule s;
  s.assign(queues);
  return s;
}

FlatSchedule decoded(const ScheduleCodec& codec, const ga::Chromosome& c) {
  FlatSchedule s;
  codec.decode_into(c, s);
  return s;
}

TEST(Rebalance, NeverInvalidatesChromosome) {
  util::Rng rng(1);
  const std::size_t H = 30, M = 4;
  std::vector<double> sizes;
  for (std::size_t i = 0; i < H; ++i) {
    sizes.push_back(rng.uniform(10.0, 500.0));
  }
  const ScheduleCodec codec(H, M);
  const ScheduleEvaluator eval(sizes, make_view({10, 20, 30, 40}), false);
  for (int trial = 0; trial < 200; ++trial) {
    ga::Chromosome c;
    for (std::size_t i = 0; i < H; ++i) c.push_back(static_cast<ga::Gene>(i));
    for (std::size_t k = 0; k + 1 < M; ++k) {
      c.push_back(ScheduleCodec::delimiter_gene(k));
    }
    rng.shuffle(c);
    rebalance_once(c, codec, eval, rng);
    ASSERT_TRUE(codec.valid(c));
  }
}

TEST(Rebalance, NeverDecreasesFitness) {
  util::Rng rng(2);
  const std::size_t H = 24, M = 3;
  std::vector<double> sizes;
  for (std::size_t i = 0; i < H; ++i) {
    sizes.push_back(rng.uniform(10.0, 500.0));
  }
  const ScheduleCodec codec(H, M);
  const ScheduleEvaluator eval(sizes, make_view({10, 25, 60}), false);
  for (int trial = 0; trial < 200; ++trial) {
    ga::Chromosome c;
    for (std::size_t i = 0; i < H; ++i) c.push_back(static_cast<ga::Gene>(i));
    for (std::size_t k = 0; k + 1 < M; ++k) {
      c.push_back(ScheduleCodec::delimiter_gene(k));
    }
    rng.shuffle(c);
    const double before = eval.fitness(decoded(codec, c));
    const bool improved = rebalance_once(c, codec, eval, rng);
    const double after = eval.fitness(decoded(codec, c));
    if (improved) {
      ASSERT_GT(after, before);
    } else {
      ASSERT_DOUBLE_EQ(after, before);
    }
  }
}

TEST(Rebalance, ImprovesBlatantImbalance) {
  // All big tasks on proc 0, all small on proc 1; repeated rebalances
  // should find improving swaps with high probability.
  const std::size_t H = 10;
  std::vector<double> sizes;
  for (std::size_t i = 0; i < 5; ++i) sizes.push_back(1000.0);
  for (std::size_t i = 0; i < 5; ++i) sizes.push_back(10.0);
  const ScheduleCodec codec(H, 2);
  const ScheduleEvaluator eval(sizes, make_view({10.0, 10.0}), false);
  ga::Chromosome c = codec.encode(flat({{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}));
  util::Rng rng(3);
  const double before = eval.fitness(decoded(codec, c));
  int improvements = 0;
  for (int pass = 0; pass < 50; ++pass) {
    if (rebalance_once(c, codec, eval, rng)) ++improvements;
  }
  EXPECT_GT(improvements, 0);
  EXPECT_GT(eval.fitness(decoded(codec, c)), before);
}

TEST(Rebalance, SingleProcessorIsNoop) {
  const ScheduleCodec codec(5, 1);
  const ScheduleEvaluator eval({10, 20, 30, 40, 50}, make_view({10.0}),
                               false);
  ga::Chromosome c = codec.encode(flat({{0, 1, 2, 3, 4}}));
  const ga::Chromosome before = c;
  util::Rng rng(4);
  EXPECT_FALSE(rebalance_once(c, codec, eval, rng));
  EXPECT_EQ(c, before);
}

TEST(Rebalance, EmptyHeavyQueueImpossible) {
  // If every task sits on one processor, that processor is heaviest; an
  // empty-queue heavy processor can only occur with an empty batch.
  const ScheduleCodec codec(0, 3);
  const ScheduleEvaluator eval({}, make_view({10, 10, 10}), false);
  ga::Chromosome c = codec.encode(flat(ProcQueues(3)));
  util::Rng rng(5);
  EXPECT_FALSE(rebalance_once(c, codec, eval, rng));
}

TEST(Rebalance, RespectsProbeBudget) {
  // With probes = 0 the heuristic must never change anything.
  const ScheduleCodec codec(6, 2);
  const ScheduleEvaluator eval({100, 200, 300, 10, 20, 30},
                               make_view({10, 10}), false);
  ga::Chromosome c = codec.encode(flat({{0, 1, 2}, {3, 4, 5}}));
  const ga::Chromosome before = c;
  util::Rng rng(6);
  EXPECT_FALSE(rebalance_once(c, codec, eval, rng, 0));
  EXPECT_EQ(c, before);
}

/// Bitwise equality (== would conflate 0.0 and -0.0).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_loads(const QueueLoads& got, const QueueLoads& want) {
  ASSERT_EQ(got.completion.size(), want.completion.size());
  for (std::size_t j = 0; j < got.completion.size(); ++j) {
    EXPECT_TRUE(same_bits(got.completion[j], want.completion[j])) << j;
  }
  ASSERT_EQ(got.dev_sq.size(), want.dev_sq.size());
  for (std::size_t j = 0; j < got.dev_sq.size(); ++j) {
    EXPECT_TRUE(same_bits(got.dev_sq[j], want.dev_sq[j])) << j;
  }
  EXPECT_TRUE(same_bits(got.sum_sq, want.sum_sq));
  EXPECT_TRUE(same_bits(got.max_completion, want.max_completion));
  EXPECT_EQ(got.heaviest, want.heaviest);
  EXPECT_TRUE(same_bits(got.eval.fitness, want.eval.fitness));
  EXPECT_TRUE(same_bits(got.eval.makespan, want.eval.makespan));
  EXPECT_TRUE(same_bits(got.eval.relative_error, want.eval.relative_error));
}

/// The workspace must hold exactly what a fresh decode + load of `c`
/// produces — the state a carried workspace stands in for.
void expect_describes(const EvalWorkspace& ws, const ScheduleCodec& codec,
                      const ScheduleEvaluator& eval, const ga::Chromosome& c) {
  FlatSchedule fresh;
  QueueLoads fresh_loads;
  codec.decode_into(c, fresh);
  eval.load(fresh, fresh_loads);
  EXPECT_TRUE(ws.schedule == fresh);
  expect_same_loads(ws.loads, fresh_loads);
}

ga::Chromosome random_chromosome(std::size_t H, std::size_t M,
                                 util::Rng& rng) {
  ga::Chromosome c;
  for (std::size_t i = 0; i < H; ++i) c.push_back(static_cast<ga::Gene>(i));
  for (std::size_t k = 0; k + 1 < M; ++k) {
    c.push_back(ScheduleCodec::delimiter_gene(k));
  }
  rng.shuffle(c);
  return c;
}

TEST(RebalanceWorkspace, RejectedProbeRestoresScheduleAndLoads) {
  // Tiny tasks keep E <= 1, where fitness is clamped to 1: no swap can be
  // fitter, so every probe that finds a smaller task is rejected. With 64
  // probes on 4 processors nearly every pass takes that path.
  util::Rng rng(8);
  const std::size_t H = 30, M = 4;
  std::vector<double> sizes;
  for (std::size_t i = 0; i < H; ++i) sizes.push_back(rng.uniform(0.01, 0.1));
  const ScheduleCodec codec(H, M);
  const ScheduleEvaluator eval(sizes, make_view({10, 20, 30, 40}), false);
  EvalWorkspace ws;
  for (int trial = 0; trial < 200; ++trial) {
    ga::Chromosome c = random_chromosome(H, M, rng);
    const ga::Chromosome before = c;
    ASSERT_FALSE(rebalance_once(c, codec, eval, rng, 64, ws));
    ASSERT_EQ(c, before);
    expect_describes(ws, codec, eval, c);
  }
}

TEST(RebalanceWorkspace, CarriedWorkspaceMatchesFreshDecode) {
  // The engine's carry: repeated passes on one chromosome with the
  // workspace flagged as describing it must accept, reject, and supply
  // exactly what passes through a fresh workspace do, RNG draw for draw.
  util::Rng rng(9);
  const std::size_t H = 40, M = 6;
  std::vector<double> sizes;
  for (std::size_t i = 0; i < H; ++i) sizes.push_back(rng.uniform(10.0, 500.0));
  const ScheduleCodec codec(H, M);
  const ScheduleEvaluator eval(sizes, make_view({10, 15, 20, 30, 45, 60}),
                               false);
  EvalWorkspace carried;
  int accepted = 0, unchanged = 0;
  for (int trial = 0; trial < 40; ++trial) {
    ga::Chromosome c = random_chromosome(H, M, rng);
    carried.describes_chromosome = false;
    for (int pass = 0; pass < 20; ++pass) {
      ga::Chromosome c_fresh = c;
      util::Rng rng_fresh = rng;
      EvalWorkspace fresh;
      const bool got = rebalance_once(c, codec, eval, rng, 5, carried);
      const bool want =
          rebalance_once(c_fresh, codec, eval, rng_fresh, 5, fresh);
      ASSERT_EQ(got, want);
      ASSERT_EQ(c, c_fresh);
      ASSERT_EQ(carried.has_improve_evaluation, fresh.has_improve_evaluation);
      EXPECT_TRUE(same_bits(carried.improve_evaluation.fitness,
                            fresh.improve_evaluation.fitness));
      EXPECT_TRUE(same_bits(carried.improve_evaluation.objective,
                            fresh.improve_evaluation.objective));
      ASSERT_EQ(rng.next_u64(), rng_fresh.next_u64());
      expect_describes(carried, codec, eval, c);
      carried.describes_chromosome = true;
      (got ? accepted : unchanged) += 1;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(unchanged, 0);
}

/// rebalance_once as it was before the filtered probe: every candidate is
/// reduced in full (evaluate_swap) before the fitness comparison.
bool rebalance_always_reduce(ga::Chromosome& c, const ScheduleCodec& codec,
                             const ScheduleEvaluator& eval, util::Rng& rng,
                             std::size_t probes, EvalWorkspace& ws) {
  FlatSchedule& s = ws.schedule;
  const BatchEvaluation base = eval.load_decoded(codec, c, s, ws.loads);
  const std::size_t M = s.num_procs();
  if (M < 2) return false;
  const std::size_t heavy = ws.loads.heaviest;
  ws.has_improve_evaluation = true;
  ws.improve_evaluation = {base.fitness, base.makespan};
  if (s.queue(heavy).empty()) return false;
  for (std::size_t probe = 0; probe < probes; ++probe) {
    const std::size_t other = rng.index(M);
    if (other == heavy || s.queue(other).empty()) continue;
    const auto other_q = s.queue(other);
    const auto heavy_q = s.queue(heavy);
    const std::size_t oi = rng.index(other_q.size());
    const std::size_t hi = rng.index(heavy_q.size());
    const std::size_t small_slot = other_q[oi];
    const std::size_t big_slot = heavy_q[hi];
    if (!(eval.task_size(small_slot) < eval.task_size(big_slot))) continue;
    std::swap(other_q[oi], heavy_q[hi]);
    const BatchEvaluation cand = eval.evaluate_swap(s, ws.loads, other, heavy);
    if (cand.fitness > base.fitness) {
      const ga::Gene g_small = ScheduleCodec::task_gene(small_slot);
      const ga::Gene g_big = ScheduleCodec::task_gene(big_slot);
      for (auto& g : c) {
        if (g == g_small) {
          g = g_big;
        } else if (g == g_big) {
          g = g_small;
        }
      }
      ws.improve_evaluation = {cand.fitness, cand.makespan};
      return true;
    }
    return false;
  }
  return false;
}

/// Sizes and rates from small discrete sets: many swaps exchange equal
/// tasks between equal processors, so candidates tie the base exactly or
/// differ from it by a few ulps of reassociation.
ScheduleEvaluator near_tie_evaluator(std::size_t H, std::size_t M,
                                     util::Rng& rng) {
  const double kSizes[] = {100.0, 100.0, 100.0 + 1e-9, 101.0, 300.0};
  const double kRates[] = {10.0, 10.0, 20.0, 20.0 * (1.0 + 1e-15)};
  std::vector<double> sizes;
  for (std::size_t i = 0; i < H; ++i) sizes.push_back(kSizes[rng.index(5)]);
  std::vector<double> rates;
  for (std::size_t j = 0; j < M; ++j) rates.push_back(kRates[rng.index(4)]);
  return ScheduleEvaluator(sizes, make_view(rates), false);
}

TEST(RebalanceFilter, MatchesAlwaysReduceReference) {
  util::Rng rng(11);
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t H = 4 + rng.index(80);
    const std::size_t M = 2 + rng.index(30);
    const ScheduleCodec codec(H, M);
    std::vector<double> sizes;
    for (std::size_t i = 0; i < H; ++i) sizes.push_back(rng.uniform(1.0, 500.0));
    std::vector<double> rates;
    for (std::size_t j = 0; j < M; ++j) rates.push_back(rng.uniform(10.0, 100.0));
    const ScheduleEvaluator eval =
        trial % 2 == 0 ? near_tie_evaluator(H, M, rng)
                       : ScheduleEvaluator(sizes, make_view(rates), false);
    ga::Chromosome c = random_chromosome(H, M, rng);
    for (int pass = 0; pass < 10; ++pass) {
      ga::Chromosome c_ref = c;
      util::Rng rng_ref = rng;
      EvalWorkspace ws, ws_ref;
      const bool got = rebalance_once(c, codec, eval, rng, 5, ws);
      const bool want =
          rebalance_always_reduce(c_ref, codec, eval, rng_ref, 5, ws_ref);
      ASSERT_EQ(got, want) << "trial " << trial << " pass " << pass;
      ASSERT_EQ(c, c_ref);
      ASSERT_EQ(rng.next_u64(), rng_ref.next_u64());
      ASSERT_TRUE(same_bits(ws.improve_evaluation.fitness,
                            ws_ref.improve_evaluation.fitness));
      ASSERT_TRUE(same_bits(ws.improve_evaluation.objective,
                            ws_ref.improve_evaluation.objective));
      expect_describes(ws, codec, eval, c);
      (got ? accepted : rejected) += 1;
    }
  }
  EXPECT_GT(accepted, 50);
  EXPECT_GT(rejected, 50);
}

TEST(SwapFilter, DecisionMatchesExactReduction) {
  // evaluate_swap_filtered against evaluate_swap on every kind of swap,
  // near-ties included: a filtered-out candidate must really have a
  // reduced sum_sq >= the base (so it cannot be fitter), and a reduced
  // one must match evaluate_swap bit for bit, cache included.
  util::Rng rng(12);
  int filtered = 0, reduced = 0, ties = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t H = 4 + rng.index(60);
    const std::size_t M = 2 + rng.index(40);
    const ScheduleEvaluator eval = near_tie_evaluator(H, M, rng);
    const ScheduleCodec codec(H, M);
    FlatSchedule s;
    QueueLoads base;
    eval.load_decoded(codec, random_chromosome(H, M, rng), s, base);
    for (int k = 0; k < 40; ++k) {
      const std::size_t qa = rng.index(M);
      const std::size_t qb = rng.index(M);
      if (s.queue(qa).empty() || s.queue(qb).empty()) continue;
      FlatSchedule cand_s = s;
      const std::size_t ia = rng.index(cand_s.queue(qa).size());
      const std::size_t ib = rng.index(cand_s.queue(qb).size());
      std::swap(cand_s.queue(qa)[ia], cand_s.queue(qb)[ib]);
      QueueLoads want = base;
      const BatchEvaluation exact = eval.evaluate_swap(cand_s, want, qa, qb);
      QueueLoads got = base;
      const std::optional<BatchEvaluation> filt =
          eval.evaluate_swap_filtered(cand_s, got, qa, qb);
      ties += want.sum_sq == base.sum_sq ? 1 : 0;
      if (filt) {
        ++reduced;
        EXPECT_TRUE(same_bits(filt->fitness, exact.fitness));
        EXPECT_TRUE(same_bits(filt->makespan, exact.makespan));
        EXPECT_TRUE(same_bits(filt->relative_error, exact.relative_error));
        expect_same_loads(got, want);
      } else {
        ++filtered;
        EXPECT_GE(want.sum_sq, base.sum_sq);
        EXPECT_FALSE(exact.fitness > base.eval.fitness);
        // The two re-priced queues are the candidate's; the reductions
        // are still the base's.
        EXPECT_TRUE(same_bits(got.completion[qa], want.completion[qa]));
        EXPECT_TRUE(same_bits(got.completion[qb], want.completion[qb]));
        EXPECT_TRUE(same_bits(got.sum_sq, base.sum_sq));
      }
    }
  }
  EXPECT_GT(filtered, 1000);
  EXPECT_GT(reduced, 1000);
  EXPECT_GT(ties, 100);
}

TEST(SwapFilter, UndecidableInputsFallBackToTheReduction) {
  // Infinite or NaN terms make the margin non-normal: the filter must not
  // decide, the exact reduction must.
  const ScheduleCodec codec(2, 2);
  const ScheduleEvaluator eval({1.0, 2.0}, make_view({1.0, 2.0}), false);
  FlatSchedule s = flat({{0}, {1}});
  for (const double poison : {std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    QueueLoads loads;
    eval.load(s, loads);
    loads.sum_sq = poison;
    std::swap(s.queue(0)[0], s.queue(1)[0]);
    EXPECT_TRUE(eval.evaluate_swap_filtered(s, loads, 0, 1).has_value());
    std::swap(s.queue(0)[0], s.queue(1)[0]);
  }
}

}  // namespace
}  // namespace gasched::core
