// Tests for the paper's fitness function (§3.2): ψ, relative error, and
// F = 1/E with and without communication estimates.

#include "core/fitness.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gasched::core {
namespace {

sim::SystemView make_view(std::vector<double> rates,
                          std::vector<double> pending = {},
                          std::vector<double> comm = {}) {
  sim::SystemView v;
  v.now = 0.0;
  v.procs.resize(rates.size());
  for (std::size_t j = 0; j < rates.size(); ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = rates[j];
    v.procs[j].pending_mflops = j < pending.size() ? pending[j] : 0.0;
    v.procs[j].comm_estimate = j < comm.size() ? comm[j] : 0.0;
  }
  return v;
}

FlatSchedule flat(const ProcQueues& queues) {
  FlatSchedule s;
  s.assign(queues);
  return s;
}

TEST(Evaluator, PsiMatchesPaperFormula) {
  // Two procs at 10 and 30 Mflop/s with loads 100 and 0 MFLOPs; batch of
  // two tasks 200 + 200 MFLOPs.
  // ψ = (400 / 40) + (100/10 + 0/30) = 10 + 10 = 20.
  const ScheduleEvaluator eval({200.0, 200.0},
                               make_view({10.0, 30.0}, {100.0, 0.0}), false);
  EXPECT_DOUBLE_EQ(eval.psi(), 20.0);
}

TEST(Evaluator, CompletionTimeIncludesDeltaExecAndComm) {
  // P0: rate 10, load 100 (δ=10), comm 2 per dispatch.
  const ScheduleEvaluator eval({50.0, 100.0},
                               make_view({10.0}, {100.0}, {2.0}), true);
  // Queue both tasks: 10 + (5+2) + (10+2) = 29.
  EXPECT_DOUBLE_EQ(
      eval.completion_time(0, std::vector<std::size_t>{0, 1}), 29.0);
  EXPECT_DOUBLE_EQ(eval.completion_time(0, std::vector<std::size_t>{}), 10.0);
}

TEST(Evaluator, CommDisabledDropsGammaTerm) {
  const ScheduleEvaluator eval({50.0}, make_view({10.0}, {0.0}, {7.0}),
                               /*use_comm=*/false);
  EXPECT_DOUBLE_EQ(eval.completion_time(0, std::vector<std::size_t>{0}), 5.0);
  EXPECT_DOUBLE_EQ(eval.comm(0), 0.0);
}

TEST(Evaluator, PerfectBalanceHasZeroErrorAndFitnessOne) {
  // Two identical procs, two identical tasks, no comm: assigning one each
  // gives C_j = 10 = ψ exactly.
  const ScheduleEvaluator eval({100.0, 100.0}, make_view({10.0, 10.0}),
                               false);
  const FlatSchedule balanced = flat({{0}, {1}});
  EXPECT_DOUBLE_EQ(eval.relative_error(balanced), 0.0);
  EXPECT_DOUBLE_EQ(eval.fitness(balanced), 1.0);
}

TEST(Evaluator, ImbalanceIncreasesErrorAndLowersFitness) {
  const ScheduleEvaluator eval({100.0, 100.0}, make_view({10.0, 10.0}),
                               false);
  const FlatSchedule balanced = flat({{0}, {1}});
  const FlatSchedule skewed = flat({{0, 1}, {}});
  EXPECT_GT(eval.relative_error(skewed), eval.relative_error(balanced));
  EXPECT_LT(eval.fitness(skewed), eval.fitness(balanced));
}

TEST(Evaluator, FitnessAlwaysInUnitInterval) {
  const ScheduleEvaluator eval({5.0, 500.0, 50.0},
                               make_view({10.0, 20.0}, {0.0, 300.0},
                                         {1.0, 9.0}),
                               true);
  for (const ProcQueues& q :
       {ProcQueues{{0, 1, 2}, {}}, ProcQueues{{}, {0, 1, 2}},
        ProcQueues{{0}, {1, 2}}, ProcQueues{{2, 1}, {0}}}) {
    const double f = eval.fitness(flat(q));
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(Evaluator, MakespanIsMaxCompletion) {
  const ScheduleEvaluator eval({100.0, 300.0},
                               make_view({10.0, 10.0}), false);
  const FlatSchedule q = flat({{0}, {1}});  // C = {10, 30}
  EXPECT_DOUBLE_EQ(eval.makespan(q), 30.0);
}

TEST(Evaluator, CommAwareFitnessPrefersCheapLinks) {
  // Identical rates; link 0 costs 0, link 1 costs 20. Putting both tasks
  // on the cheap link beats splitting when comm dominates.
  const ScheduleEvaluator eval({10.0, 10.0},
                               make_view({10.0, 10.0}, {}, {0.0, 20.0}),
                               true);
  const FlatSchedule cheap_only = flat({{0, 1}, {}});
  const FlatSchedule split = flat({{0}, {1}});
  // split: C = {1, 21}, ψ = 0.1 ... cheap: C = {2, 0}.
  EXPECT_LT(eval.relative_error(cheap_only), eval.relative_error(split));
}

TEST(Evaluator, RejectsInvalidInputs) {
  EXPECT_THROW(ScheduleEvaluator({10.0}, sim::SystemView{}, false),
               std::invalid_argument);
  EXPECT_THROW(ScheduleEvaluator({10.0}, make_view({0.0}), false),
               std::invalid_argument);
  EXPECT_THROW(ScheduleEvaluator({0.0}, make_view({10.0}), false),
               std::invalid_argument);
  EXPECT_THROW(ScheduleEvaluator({-5.0}, make_view({10.0}), false),
               std::invalid_argument);
}

TEST(ScheduleProblem, AdapterMatchesEvaluatorThroughCodec) {
  const ScheduleCodec codec(3, 2);
  const ScheduleEvaluator eval({10.0, 20.0, 30.0},
                               make_view({10.0, 10.0}), false);
  const ScheduleProblem problem(codec, eval);
  const FlatSchedule q = flat({{0, 2}, {1}});
  const ga::Chromosome c = codec.encode(q);
  EXPECT_DOUBLE_EQ(problem.fitness(c), eval.fitness(q));
  EXPECT_DOUBLE_EQ(problem.objective(c), eval.makespan(q));
}

TEST(Evaluator, HeterogeneousRatesFavourFastProcessor) {
  // One 400-MFLOP task: the 40 Mflop/s processor finishes in 10 s, the
  // 10 Mflop/s one in 40 s; schedules using the fast one have lower
  // makespan.
  const ScheduleEvaluator eval({400.0}, make_view({10.0, 40.0}), false);
  EXPECT_DOUBLE_EQ(eval.makespan(flat({{ }, {0}})), 10.0);
  EXPECT_DOUBLE_EQ(eval.makespan(flat({{0}, { }})), 40.0);
}

TEST(Evaluator, SingleProcessorMatchesHandComputedMetrics) {
  // One proc at 10 Mflop/s with 50 MFLOPs pending (δ = 5), comm 2.
  // ψ = 300/10 + 5 = 35.
  const auto view = make_view({10.0}, {50.0}, {2.0});
  const FlatSchedule both = flat({{1, 0}});
  // Comm-free: C_0 = 5 + 20 + 10 = 35 = ψ, so E = 0 and F = 1.
  const ScheduleEvaluator zo({100.0, 200.0}, view, false);
  EXPECT_DOUBLE_EQ(zo.psi(), 35.0);
  EXPECT_DOUBLE_EQ(zo.makespan(both), 35.0);
  EXPECT_DOUBLE_EQ(zo.relative_error(both), 0.0);
  EXPECT_DOUBLE_EQ(zo.fitness(both), 1.0);
  // With comm each dispatch adds 2: C_0 = 39, E = 4, F = 1/4.
  const ScheduleEvaluator pn({100.0, 200.0}, view, true);
  const BatchEvaluation e = pn.evaluate(both);
  EXPECT_DOUBLE_EQ(e.makespan, 39.0);
  EXPECT_DOUBLE_EQ(e.relative_error, 4.0);
  EXPECT_DOUBLE_EQ(e.fitness, 0.25);
}

TEST(Evaluator, EmptyBatchPricesDrainTimesOnly) {
  // No tasks: ψ = Σ_j δ_j = 10 + 2 = 12 and C_j = δ_j = {10, 2}, so
  // E = sqrt(2² + 10²) and the makespan is the longest drain.
  const ScheduleEvaluator eval({}, make_view({10.0, 20.0}, {100.0, 40.0}),
                               false);
  EXPECT_DOUBLE_EQ(eval.psi(), 12.0);
  const BatchEvaluation e = eval.evaluate(flat(ProcQueues(2)));
  EXPECT_DOUBLE_EQ(e.makespan, 10.0);
  EXPECT_DOUBLE_EQ(e.relative_error, std::sqrt(104.0));
  EXPECT_DOUBLE_EQ(e.fitness, 1.0 / std::sqrt(104.0));
}

}  // namespace
}  // namespace gasched::core
