// Tests for the re-balancing heuristic (paper §3.5).

#include "core/rebalance.hpp"

#include <gtest/gtest.h>

#include <cstring>
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

}  // namespace
}  // namespace gasched::core
