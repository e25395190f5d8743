// Equivalence tests for the flat evaluation core: decode into a
// FlatSchedule, the fused decode+price walk, the cached and delta pricing
// paths, the single-metric overloads and the engine's batch entry must
// agree bit for bit with each other and with naive references across
// randomized batches — the contract that keeps every golden value and
// figure CSV byte-stable.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/encoding.hpp"
#include "core/fitness.hpp"
#include "core/init.hpp"
#include "core/numeric.hpp"
#include "core/rebalance.hpp"
#include "meta/assignment.hpp"
#include "util/rng.hpp"

namespace gasched::core {
namespace {

sim::SystemView random_view(std::size_t procs, util::Rng& rng) {
  sim::SystemView v;
  v.procs.resize(procs);
  for (std::size_t j = 0; j < procs; ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = rng.uniform(5.0, 120.0);
    v.procs[j].pending_mflops = rng.bernoulli(0.5) ? rng.uniform(0.0, 500.0) : 0.0;
    v.procs[j].comm_estimate = rng.uniform(0.1, 30.0);
    v.procs[j].comm_observations = 1;
  }
  return v;
}

std::vector<double> random_sizes(std::size_t tasks, util::Rng& rng) {
  std::vector<double> s(tasks);
  for (auto& v : s) v = rng.uniform(5.0, 1500.0);
  return s;
}

/// A random valid chromosome: shuffled permutation of the symbol set.
ga::Chromosome random_chromosome(const ScheduleCodec& codec, util::Rng& rng) {
  ga::Chromosome c;
  c.reserve(codec.chromosome_length());
  for (std::size_t s = 0; s < codec.num_tasks(); ++s) {
    c.push_back(ScheduleCodec::task_gene(s));
  }
  for (std::size_t k = 0; k + 1 < codec.num_procs(); ++k) {
    c.push_back(ScheduleCodec::delimiter_gene(k));
  }
  rng.shuffle(c);
  return c;
}

/// Literal per-processor queues of a flat schedule.
ProcQueues queues_of(const FlatSchedule& flat) {
  ProcQueues q(flat.num_procs());
  for (std::size_t j = 0; j < q.size(); ++j) {
    q[j].assign(flat.queue(j).begin(), flat.queue(j).end());
  }
  return q;
}

/// Naive decode: the k-th delimiter position ends queue k.
ProcQueues reference_decode(const ScheduleCodec& codec,
                            const ga::Chromosome& c) {
  ProcQueues q(codec.num_procs());
  std::size_t proc = 0;
  for (const ga::Gene g : c) {
    if (ScheduleCodec::is_delimiter(g)) {
      ++proc;
    } else {
      q[proc].push_back(ScheduleCodec::task_slot(g));
    }
  }
  return q;
}

/// The list scheduler written out with per-processor queues, as it was
/// before the flat builders: visit the slots in a shuffled order, place
/// each on a random processor with probability `frac` and otherwise on
/// the one that finishes it earliest (defining expression, first index
/// on ties), and append it to that queue.
ProcQueues reference_list_schedule(const ScheduleEvaluator& eval, double frac,
                                   util::Rng& rng) {
  const std::size_t procs = eval.num_procs();
  std::vector<double> finish(procs);
  for (std::size_t j = 0; j < procs; ++j) finish[j] = eval.delta(j);
  std::vector<std::size_t> order(eval.num_tasks());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  const auto cost = [&](std::size_t slot, std::size_t j) {
    return eval.task_size(slot) / eval.rate(j) + eval.comm(j);
  };
  ProcQueues q(procs);
  for (const std::size_t slot : order) {
    std::size_t j = 0;
    if (rng.bernoulli(frac)) {
      j = rng.index(procs);
    } else {
      for (std::size_t k = 1; k < procs; ++k) {
        if (finish[k] + cost(slot, k) < finish[j] + cost(slot, j)) j = k;
      }
    }
    q[j].push_back(slot);
    finish[j] += cost(slot, j);
  }
  return q;
}

TEST(FlatEval, DecodeIntoMatchesReferenceDecodeRandomized) {
  util::Rng rng(101);
  FlatSchedule flat;
  for (int round = 0; round < 50; ++round) {
    const std::size_t tasks = 1 + rng.index(60);
    const std::size_t procs = 1 + rng.index(12);
    const ScheduleCodec codec(tasks, procs);
    const ga::Chromosome c = random_chromosome(codec, rng);

    codec.decode_into(c, flat);  // reused across rounds on purpose
    ASSERT_EQ(flat.num_procs(), procs);
    ASSERT_EQ(flat.num_slots(), tasks);
    EXPECT_EQ(queues_of(flat), reference_decode(codec, c));
  }
}

TEST(FlatEval, EvaluateBitIdenticalToSingleMetricOverloads) {
  util::Rng rng(202);
  FlatSchedule flat;
  for (int round = 0; round < 50; ++round) {
    const std::size_t tasks = 1 + rng.index(40);
    const std::size_t procs = 1 + rng.index(10);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng),
                                 /*use_comm=*/rng.bernoulli(0.5));
    codec.decode_into(random_chromosome(codec, rng), flat);

    // C_j is δ_j plus the queue's per-slot costs, summed left to right.
    for (std::size_t j = 0; j < procs; ++j) {
      double cj = eval.delta(j);
      for (const std::size_t slot : flat.queue(j)) {
        cj += eval.task_size(slot) / eval.rate(j) + eval.comm(j);
      }
      EXPECT_EQ(eval.completion_time(j, flat.queue(j)), cj);
    }

    const BatchEvaluation combined = eval.evaluate(flat);
    EXPECT_EQ(combined.fitness, eval.fitness(flat));
    EXPECT_EQ(combined.makespan, eval.makespan(flat));
    EXPECT_EQ(combined.relative_error, eval.relative_error(flat));
  }
}

TEST(FlatEval, ScheduleProblemFitnessAndObjectiveMatchEvaluateFuzzed) {
  util::Rng rng(303);
  FlatSchedule flat;
  for (int round = 0; round < 80; ++round) {
    const std::size_t tasks = 1 + rng.index(50);
    const std::size_t procs = 1 + rng.index(10);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), rng.bernoulli(0.5));
    const ScheduleProblem problem(codec, eval);
    const auto ws = problem.make_workspace();
    ASSERT_NE(ws, nullptr);
    const ga::Chromosome c = random_chromosome(codec, rng);
    const auto e = problem.evaluate(c, ws.get());
    ASSERT_EQ(problem.fitness(c), e.fitness);
    ASSERT_EQ(problem.objective(c), e.objective);
    // Null workspace falls back to a throwaway one — same values.
    const auto e0 = problem.evaluate(c, nullptr);
    ASSERT_EQ(e0.fitness, e.fitness);
    ASSERT_EQ(e0.objective, e.objective);
    // And both are the evaluator's metrics of the decoded schedule.
    codec.decode_into(c, flat);
    ASSERT_EQ(e.fitness, eval.fitness(flat));
    ASSERT_EQ(e.objective, eval.makespan(flat));
  }
}

TEST(FlatEval, EncodeInvertsDecodeInto) {
  util::Rng rng(404);
  FlatSchedule flat;
  for (int round = 0; round < 20; ++round) {
    const std::size_t tasks = 1 + rng.index(30);
    const std::size_t procs = 1 + rng.index(8);
    const ScheduleCodec codec(tasks, procs);
    ga::Chromosome c = random_chromosome(codec, rng);
    codec.decode_into(c, flat);
    // Delimiters may sit in any order in `c`; encode writes them
    // ascending, so compare after canonicalising c's delimiter labels.
    std::size_t k = 0;
    for (ga::Gene& g : c) {
      if (ScheduleCodec::is_delimiter(g)) g = ScheduleCodec::delimiter_gene(k++);
    }
    EXPECT_EQ(codec.encode(flat), c);
  }
}

TEST(FlatEval, AssignRoundTripsAndGroupedMatchesLoadTracker) {
  util::Rng rng(505);
  const std::size_t tasks = 25, procs = 5;
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  FlatSchedule flat;
  list_schedule_flat(eval, 0.5, rng, flat);

  // assign() of a schedule's own queues round-trips.
  FlatSchedule copy;
  copy.assign(queues_of(flat));
  EXPECT_EQ(copy, flat);

  // assign_grouped groups the tracker's slot → processor map with slots
  // ascending inside each queue.
  const meta::LoadTracker tracker(eval, flat);
  FlatSchedule grouped;
  grouped.assign_grouped(tracker.assignment(), procs);
  ProcQueues ascending(procs);
  for (std::size_t s = 0; s < tasks; ++s) {
    ascending[tracker.proc_of(s)].push_back(s);
  }
  EXPECT_EQ(queues_of(grouped), ascending);

  // export_schedule is the same grouping.
  FlatSchedule exported;
  tracker.export_schedule(exported);
  EXPECT_EQ(exported, grouped);
}

TEST(FlatEval, ListScheduleFlatMatchesLegacyListSchedule) {
  util::Rng rng(606);
  const std::size_t tasks = 40, procs = 7;
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  for (const double frac : {0.0, 0.5, 1.0}) {
    util::Rng ra(77), rb(77);
    FlatSchedule flat;
    list_schedule_flat(eval, frac, ra, flat);
    EXPECT_EQ(queues_of(flat), reference_list_schedule(eval, frac, rb));
    // Identical RNG consumption: the streams agree afterwards.
    EXPECT_EQ(ra.next_u64(), rb.next_u64());
  }
}

TEST(FlatEval, RebalanceWithWorkspaceMatchesConvenienceOverload) {
  util::Rng rng(707);
  const std::size_t tasks = 20, procs = 4;
  const ScheduleCodec codec(tasks, procs);
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  EvalWorkspace ws;
  for (int round = 0; round < 20; ++round) {
    ga::Chromosome a = random_chromosome(codec, rng);
    ga::Chromosome b = a;
    util::Rng ra(900 + round), rb(900 + round);
    const bool ka = rebalance_once(a, codec, eval, ra, 5, ws);
    const bool kb = rebalance_once(b, codec, eval, rb, 5);
    EXPECT_EQ(ka, kb);
    EXPECT_EQ(a, b);
  }
}

TEST(FlatEval, LoadTrackerFlatConstructorMatchesEvaluator) {
  util::Rng rng(808);
  const std::size_t tasks = 18, procs = 4;
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  FlatSchedule flat;
  list_schedule_flat(eval, 0.3, rng, flat);
  const meta::LoadTracker tracker(eval, flat);
  for (std::size_t j = 0; j < procs; ++j) {
    EXPECT_EQ(tracker.completion(j), eval.completion_time(j, flat.queue(j)));
    for (const std::size_t s : flat.queue(j)) EXPECT_EQ(tracker.proc_of(s), j);
  }
}

TEST(FlatEval, LoadMatchesEvaluateAndCachesQueueState) {
  util::Rng rng(909);
  FlatSchedule flat;
  QueueLoads loads;  // reused across rounds on purpose (resize contract)
  for (int round = 0; round < 50; ++round) {
    const std::size_t tasks = 1 + rng.index(40);
    const std::size_t procs = 1 + rng.index(10);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), rng.bernoulli(0.5));
    codec.decode_into(random_chromosome(codec, rng), flat);

    const BatchEvaluation full = eval.evaluate(flat);
    const BatchEvaluation cached = eval.load(flat, loads);
    EXPECT_EQ(cached.fitness, full.fitness);
    EXPECT_EQ(cached.makespan, full.makespan);
    EXPECT_EQ(cached.relative_error, full.relative_error);
    EXPECT_EQ(loads.eval.fitness, full.fitness);
    EXPECT_EQ(loads.max_completion, full.makespan);

    // Per-queue cache entries are the canonical completion times, and the
    // cached argmax is the first argmax (ties to the smallest index).
    ASSERT_EQ(loads.completion.size(), procs);
    std::size_t first_argmax = 0;
    double heavy_time = -1.0;
    for (std::size_t j = 0; j < procs; ++j) {
      const double cj = eval.completion_time(j, flat.queue(j));
      EXPECT_EQ(loads.completion[j], cj);
      const double dev = eval.psi() - cj;
      EXPECT_EQ(loads.dev_sq[j], dev * dev);
      if (cj > heavy_time) {
        heavy_time = cj;
        first_argmax = j;
      }
    }
    EXPECT_EQ(loads.heaviest, first_argmax);
  }
}

TEST(FlatEval, LoadDecodedMatchesDecodeIntoPlusLoadAndEvaluate) {
  util::Rng rng(1010);
  FlatSchedule fused, staged;
  QueueLoads fused_loads, staged_loads;
  for (int round = 0; round < 50; ++round) {
    const std::size_t tasks = 1 + rng.index(40);
    const std::size_t procs = 1 + rng.index(10);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), rng.bernoulli(0.5));
    const ga::Chromosome c = random_chromosome(codec, rng);

    const BatchEvaluation a = eval.load_decoded(codec, c, fused, fused_loads);
    codec.decode_into(c, staged);
    const BatchEvaluation b = eval.load(staged, staged_loads);

    EXPECT_EQ(fused, staged);
    EXPECT_EQ(a.fitness, b.fitness);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.relative_error, b.relative_error);
    // The stateless single pass prices the same doubles.
    const BatchEvaluation stateless = eval.evaluate(staged);
    EXPECT_EQ(a.fitness, stateless.fitness);
    EXPECT_EQ(a.makespan, stateless.makespan);
    EXPECT_EQ(a.relative_error, stateless.relative_error);
    EXPECT_EQ(fused_loads.completion, staged_loads.completion);
    EXPECT_EQ(fused_loads.dev_sq, staged_loads.dev_sq);
    EXPECT_EQ(fused_loads.sum_sq, staged_loads.sum_sq);
    EXPECT_EQ(fused_loads.heaviest, staged_loads.heaviest);
  }
}

TEST(FlatEval, EvaluateSwapBitIdenticalToFullRepriceOverMoveSequences) {
  util::Rng rng(1111);
  FlatSchedule flat;
  QueueLoads delta_loads, fresh_loads;
  for (int round = 0; round < 30; ++round) {
    const std::size_t tasks = 2 + rng.index(40);
    const std::size_t procs = 2 + rng.index(9);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), rng.bernoulli(0.5));
    codec.decode_into(random_chromosome(codec, rng), flat);
    eval.load(flat, delta_loads);

    // A chain of random cross-queue swaps, each delta-priced against the
    // cache carried through every previous step: the cache must match a
    // from-scratch pricing bit for bit after every single edit.
    for (int step = 0; step < 25; ++step) {
      const std::size_t qa = rng.index(procs);
      std::size_t qb = rng.index(procs - 1);
      if (qb >= qa) ++qb;
      const auto queue_a = flat.queue(qa);
      const auto queue_b = flat.queue(qb);
      if (queue_a.empty() || queue_b.empty()) continue;
      std::swap(queue_a[rng.index(queue_a.size())],
                queue_b[rng.index(queue_b.size())]);

      const BatchEvaluation delta = eval.evaluate_swap(flat, delta_loads, qa, qb);
      const BatchEvaluation full = eval.load(flat, fresh_loads);
      ASSERT_EQ(delta.fitness, full.fitness);
      ASSERT_EQ(delta.makespan, full.makespan);
      ASSERT_EQ(delta.relative_error, full.relative_error);
      ASSERT_EQ(delta_loads.completion, fresh_loads.completion);
      ASSERT_EQ(delta_loads.dev_sq, fresh_loads.dev_sq);
      ASSERT_EQ(delta_loads.sum_sq, fresh_loads.sum_sq);
      ASSERT_EQ(delta_loads.max_completion, fresh_loads.max_completion);
      ASSERT_EQ(delta_loads.heaviest, fresh_loads.heaviest);
    }
  }
}

TEST(FlatEval, EvaluateMoveBitIdenticalToFullReprice) {
  util::Rng rng(1212);
  FlatSchedule flat;
  QueueLoads delta_loads, fresh_loads;
  for (int round = 0; round < 30; ++round) {
    const std::size_t tasks = 1 + rng.index(30);
    const std::size_t procs = 2 + rng.index(8);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator eval(random_sizes(tasks, rng),
                                 random_view(procs, rng), rng.bernoulli(0.5));
    ProcQueues queues = reference_decode(codec, random_chromosome(codec, rng));
    flat.assign(queues);
    eval.load(flat, delta_loads);

    for (int step = 0; step < 15; ++step) {
      const std::size_t from = rng.index(procs);
      std::size_t to = rng.index(procs - 1);
      if (to >= from) ++to;
      if (queues[from].empty()) continue;
      // Moves resize queues, so the schedule is rebuilt; the load cache is
      // NOT — evaluate_move must bring it current from the two queue ids.
      const std::size_t pos = rng.index(queues[from].size());
      queues[to].push_back(queues[from][pos]);
      queues[from].erase(queues[from].begin() +
                         static_cast<std::ptrdiff_t>(pos));
      flat.assign(queues);

      const BatchEvaluation delta = eval.evaluate_move(flat, delta_loads, from, to);
      const BatchEvaluation full = eval.load(flat, fresh_loads);
      ASSERT_EQ(delta.fitness, full.fitness);
      ASSERT_EQ(delta.makespan, full.makespan);
      ASSERT_EQ(delta.relative_error, full.relative_error);
      ASSERT_EQ(delta_loads.completion, fresh_loads.completion);
      ASSERT_EQ(delta_loads.sum_sq, fresh_loads.sum_sq);
      ASSERT_EQ(delta_loads.heaviest, fresh_loads.heaviest);
    }
  }
}

TEST(FlatEval, EmptyBatchPricesIdenticallyOnEveryPath) {
  util::Rng rng(1414);
  for (const std::size_t procs : {std::size_t{1}, std::size_t{5}}) {
    const ScheduleCodec codec(0, procs);
    const ScheduleEvaluator eval({}, random_view(procs, rng), true);
    const ga::Chromosome c = random_chromosome(codec, rng);  // delimiters only

    FlatSchedule fused, staged;
    QueueLoads fused_loads, staged_loads;
    const BatchEvaluation a = eval.load_decoded(codec, c, fused, fused_loads);
    codec.decode_into(c, staged);
    ASSERT_EQ(staged.num_procs(), procs);
    ASSERT_EQ(staged.num_slots(), 0u);
    EXPECT_EQ(fused, staged);
    const BatchEvaluation b = eval.load(staged, staged_loads);
    const BatchEvaluation stateless = eval.evaluate(staged);
    EXPECT_EQ(a.fitness, stateless.fitness);
    EXPECT_EQ(a.makespan, stateless.makespan);
    EXPECT_EQ(a.relative_error, stateless.relative_error);
    EXPECT_EQ(b.fitness, stateless.fitness);
    EXPECT_EQ(b.makespan, stateless.makespan);
    EXPECT_EQ(b.relative_error, stateless.relative_error);
    // Every queue is empty, so every C_j is the drain time δ_j.
    for (std::size_t j = 0; j < procs; ++j) {
      EXPECT_EQ(staged_loads.completion[j], eval.delta(j));
    }
  }
}

TEST(FlatEval, CostTableServesDefiningExpression) {
  util::Rng rng(1313);
  const std::size_t tasks = 20, procs = 6;
  const std::vector<double> sizes = random_sizes(tasks, rng);
  const sim::SystemView view = random_view(procs, rng);
  for (const bool use_comm : {false, true}) {
    const ScheduleEvaluator eval(sizes, view, use_comm);
    for (std::size_t j = 0; j < procs; ++j) {
      for (std::size_t s = 0; s < tasks; ++s) {
        // Exactly the double the defining expression produces — the table
        // removes the division, not a single bit.
        const double expected =
            sizes[s] / view.procs[j].rate + (use_comm ? eval.comm(j) : 0.0);
        EXPECT_EQ(eval.task_cost_on(s, j), expected);
      }
    }
  }
}

TEST(FlatEval, DecodeIntoRejectsTooManyDelimiters) {
  const ScheduleCodec codec(2, 2);
  FlatSchedule flat;
  // 2 tasks, 2 procs -> exactly one delimiter allowed.
  const ga::Chromosome bad{ScheduleCodec::task_gene(0),
                           ScheduleCodec::delimiter_gene(0),
                           ScheduleCodec::delimiter_gene(0),
                           ScheduleCodec::task_gene(1)};
  EXPECT_THROW(codec.decode_into(bad, flat), std::invalid_argument);
}

TEST(FlatEval, LoadDecodedRejectsTooManyDelimiters) {
  util::Rng rng(1515);
  const ScheduleCodec codec(2, 2);
  const ScheduleEvaluator eval(random_sizes(2, rng), random_view(2, rng),
                               true);
  FlatSchedule flat;
  QueueLoads loads;
  // The fused walk decodes on its own, so it must refuse the same input.
  const ga::Chromosome bad{ScheduleCodec::task_gene(0),
                           ScheduleCodec::delimiter_gene(0),
                           ScheduleCodec::delimiter_gene(0),
                           ScheduleCodec::task_gene(1)};
  EXPECT_THROW(eval.load_decoded(codec, bad, flat, loads),
               std::invalid_argument);
}

// --- exact numeric mode -----------------------------------------------------

TEST(NumericMode, DefaultIsExactAndNamedExact) {
  EXPECT_EQ(default_numeric_mode(), NumericMode::kExact);
  EXPECT_STREQ(numeric_mode_name(NumericMode::kExact), "exact");
  EXPECT_EQ(ga::GaConfig{}.numeric_mode, NumericMode::kExact);

  // Naming the mode explicitly prices exactly like leaving it defaulted.
  util::Rng rng(1616);
  const std::size_t tasks = 30, procs = 6;
  const ScheduleCodec codec(tasks, procs);
  const std::vector<double> sizes = random_sizes(tasks, rng);
  const sim::SystemView view = random_view(procs, rng);
  const ScheduleEvaluator defaulted(sizes, view, true);
  const ScheduleEvaluator named(sizes, view, true, NumericMode::kExact);
  FlatSchedule flat;
  for (int round = 0; round < 10; ++round) {
    codec.decode_into(random_chromosome(codec, rng), flat);
    const BatchEvaluation a = defaulted.evaluate(flat);
    const BatchEvaluation b = named.evaluate(flat);
    EXPECT_EQ(a.fitness, b.fitness);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.relative_error, b.relative_error);
  }
}

// Every exact pricing path — fused decode+price, stateless single pass
// and cached full pricing — returns the same doubles: the identity all
// goldens and figure CSVs rest on.
TEST(NumericModeProperty, ExactModePathsStayBitIdentical) {
  util::Rng rng(33);
  FlatSchedule flat;
  QueueLoads loads;
  for (int round = 0; round < 80; ++round) {
    const std::size_t tasks = 1 + rng.index(50);
    const std::size_t procs = 1 + rng.index(10);
    const ScheduleCodec codec(tasks, procs);
    const ScheduleEvaluator exact(random_sizes(tasks, rng),
                                  random_view(procs, rng),
                                  rng.bernoulli(0.5), NumericMode::kExact);
    const ga::Chromosome c = random_chromosome(codec, rng);

    const BatchEvaluation fused = exact.load_decoded(codec, c, flat, loads);
    const BatchEvaluation stateless = exact.evaluate(flat);
    ASSERT_EQ(fused.fitness, stateless.fitness);
    ASSERT_EQ(fused.makespan, stateless.makespan);
    ASSERT_EQ(fused.relative_error, stateless.relative_error);

    QueueLoads reloaded;
    const BatchEvaluation loaded = exact.load(flat, reloaded);
    ASSERT_EQ(loaded.fitness, stateless.fitness);
    ASSERT_EQ(loaded.makespan, stateless.makespan);
    ASSERT_EQ(loaded.relative_error, stateless.relative_error);
  }
}

// --- batched engine path ----------------------------------------------------

TEST(NumericModeBatch, EvaluateBatchMatchesPerChromosomeEvaluate) {
  util::Rng rng(41);
  const std::size_t tasks = 40, procs = 8;
  const ScheduleCodec codec(tasks, procs);
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  const ScheduleProblem problem(codec, eval);

  std::vector<ga::Chromosome> pop;
  for (int k = 0; k < 24; ++k) pop.push_back(random_chromosome(codec, rng));
  std::vector<std::size_t> indices;
  for (std::size_t k = 0; k < pop.size(); k += 2) indices.push_back(k);

  const auto ws = problem.make_workspace();
  std::vector<ga::GaProblem::Evaluation> got(indices.size());
  problem.evaluate_batch(pop, indices, ws.get(), got.data());

  FlatSchedule flat;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const ga::Chromosome& c = pop[indices[k]];
    const auto fresh = problem.make_workspace();
    const auto want = problem.evaluate(c, fresh.get());
    EXPECT_EQ(got[k].fitness, want.fitness);
    EXPECT_EQ(got[k].objective, want.objective);
    codec.decode_into(c, flat);
    EXPECT_EQ(got[k].fitness, eval.fitness(flat));
    EXPECT_EQ(got[k].objective, eval.makespan(flat));
  }
}

TEST(NumericModeBatch, EvaluateBatchCarriesNoStateBetweenChromosomes) {
  util::Rng rng(42);
  const std::size_t tasks = 30, procs = 6;
  const ScheduleCodec codec(tasks, procs);
  const ScheduleEvaluator eval(random_sizes(tasks, rng),
                               random_view(procs, rng), true);
  const ScheduleProblem problem(codec, eval);
  std::vector<ga::Chromosome> pop;
  for (int k = 0; k < 4; ++k) pop.push_back(random_chromosome(codec, rng));

  // One workspace walks interleaved, repeated indices: a repeat must price
  // exactly as its first visit, and a null workspace the same again.
  const std::vector<std::size_t> indices{3, 0, 3, 1, 0, 2, 1};
  const auto ws = problem.make_workspace();
  std::vector<ga::GaProblem::Evaluation> with_ws(indices.size());
  std::vector<ga::GaProblem::Evaluation> without_ws(indices.size());
  problem.evaluate_batch(pop, indices, ws.get(), with_ws.data());
  problem.evaluate_batch(pop, indices, nullptr, without_ws.data());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const auto want = problem.evaluate(pop[indices[k]], nullptr);
    EXPECT_EQ(with_ws[k].fitness, want.fitness) << "k=" << k;
    EXPECT_EQ(with_ws[k].objective, want.objective) << "k=" << k;
    EXPECT_EQ(without_ws[k].fitness, want.fitness) << "k=" << k;
    EXPECT_EQ(without_ws[k].objective, want.objective) << "k=" << k;
  }

  // An empty block writes nothing.
  ga::GaProblem::Evaluation untouched{-1.0, -2.0};
  problem.evaluate_batch(pop, {}, ws.get(), &untouched);
  EXPECT_EQ(untouched.fitness, -1.0);
  EXPECT_EQ(untouched.objective, -2.0);
}

}  // namespace
}  // namespace gasched::core
