// Unit tests for meta::LoadTracker — the incremental assignment state the
// local-search schedulers (SA / tabu / hill climbing) walk on.

#include "meta/assignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace gasched::meta {
namespace {

sim::SystemView make_view(std::vector<double> rates,
                          std::vector<double> pending = {},
                          std::vector<double> comm = {}) {
  sim::SystemView v;
  v.procs.resize(rates.size());
  for (std::size_t j = 0; j < rates.size(); ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = rates[j];
    v.procs[j].pending_mflops = j < pending.size() ? pending[j] : 0.0;
    v.procs[j].comm_estimate = j < comm.size() ? comm[j] : 0.0;
    v.procs[j].comm_observations = j < comm.size() ? 3 : 0;
  }
  return v;
}

core::FlatSchedule flat(const core::ProcQueues& queues) {
  core::FlatSchedule s;
  s.assign(queues);
  return s;
}

/// Recomputes C_j from scratch for cross-checking the incremental state.
std::vector<double> recompute(const core::ScheduleEvaluator& eval,
                              const LoadTracker& t) {
  std::vector<double> c(t.num_procs());
  for (std::size_t j = 0; j < t.num_procs(); ++j) c[j] = eval.delta(j);
  for (std::size_t s = 0; s < t.num_tasks(); ++s) {
    c[t.proc_of(s)] += eval.task_cost_on(s, t.proc_of(s));
  }
  return c;
}

TEST(LoadTracker, InitialCompletionTimesMatchEvaluator) {
  const auto view = make_view({10.0, 20.0}, {100.0, 0.0}, {1.0, 2.0});
  const core::ScheduleEvaluator eval({100.0, 200.0, 300.0}, view, true);
  const LoadTracker t(eval, flat({{0, 1}, {2}}));

  // C_0 = 100/10 + (100/10 + 1) + (200/10 + 1) = 10 + 11 + 21 = 42.
  EXPECT_DOUBLE_EQ(t.completion(0), 42.0);
  // C_1 = 0 + 300/20 + 2 = 17.
  EXPECT_DOUBLE_EQ(t.completion(1), 17.0);
  EXPECT_DOUBLE_EQ(t.makespan(), 42.0);
  EXPECT_EQ(t.heaviest_proc(), 0u);
}

TEST(LoadTracker, RejectsIncompleteOrDuplicateAssignments) {
  const auto view = make_view({10.0, 20.0});
  const core::ScheduleEvaluator eval({100.0, 200.0}, view, false);
  EXPECT_THROW(LoadTracker(eval, flat({{0}, {}})), std::invalid_argument);
  EXPECT_THROW(LoadTracker(eval, flat({{0, 1}, {1}})), std::invalid_argument);
  EXPECT_THROW(LoadTracker(eval, flat({{0, 1}})), std::invalid_argument);
  EXPECT_THROW(LoadTracker(eval, flat({{0, 5}, {1}})), std::invalid_argument);
}

TEST(LoadTracker, ResetMatchesFreshConstruction) {
  const auto view = make_view({10.0, 20.0, 40.0}, {50.0, 0.0, 80.0},
                              {1.0, 0.5, 2.0});
  const core::ScheduleEvaluator eval({100.0, 200.0, 300.0, 50.0}, view, true);
  LoadTracker t(eval, flat({{0, 1, 2, 3}, {}, {}}));
  const core::FlatSchedule next = flat({{3}, {2, 0}, {1}});
  t.reset(eval, next);
  const LoadTracker fresh(eval, next);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(t.proc_of(s), fresh.proc_of(s));
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(t.completion(j), fresh.completion(j));
  }
  EXPECT_EQ(t.makespan(), fresh.makespan());
  EXPECT_EQ(t.heaviest_proc(), fresh.heaviest_proc());

  // Rebinding to an evaluator of another shape resizes the state.
  const core::ScheduleEvaluator small({70.0, 30.0}, make_view({10.0, 10.0}),
                                      false);
  t.reset(small, flat({{1}, {0}}));
  EXPECT_EQ(t.num_procs(), 2u);
  EXPECT_EQ(t.num_tasks(), 2u);
  EXPECT_EQ(t.proc_of(0), 1u);
  EXPECT_DOUBLE_EQ(t.completion(0), 3.0);
  EXPECT_DOUBLE_EQ(t.completion(1), 7.0);
  EXPECT_EQ(t.heaviest_proc(), 1u);
}

TEST(LoadTracker, ResetRejectsWhatTheConstructorRejects) {
  const auto view = make_view({10.0, 20.0});
  const core::ScheduleEvaluator eval({100.0, 200.0}, view, false);
  LoadTracker t(eval, flat({{0}, {1}}));
  EXPECT_THROW(t.reset(eval, flat({{0, 1}})), std::invalid_argument);
  EXPECT_THROW(t.reset(eval, flat({{0, 1}, {1}})), std::invalid_argument);
  EXPECT_THROW(t.reset(eval, flat({{0}, {}})), std::invalid_argument);
  EXPECT_THROW(t.reset(eval, flat({{0, 5}, {1}})), std::invalid_argument);
  // A rejected reset does not stop a later valid one.
  t.reset(eval, flat({{1}, {0}}));
  EXPECT_EQ(t.proc_of(0), 1u);
  EXPECT_EQ(t.proc_of(1), 0u);
}

TEST(LoadTracker, ApplyMovesLoadBetweenProcessors) {
  const auto view = make_view({10.0, 10.0});
  const core::ScheduleEvaluator eval({100.0, 100.0}, view, false);
  LoadTracker t(eval, flat({{0, 1}, {}}));
  EXPECT_DOUBLE_EQ(t.completion(0), 20.0);

  t.apply({1, 0, 1});
  EXPECT_EQ(t.proc_of(1), 1u);
  EXPECT_DOUBLE_EQ(t.completion(0), 10.0);
  EXPECT_DOUBLE_EQ(t.completion(1), 10.0);
}

TEST(LoadTracker, ApplyRejectsStaleOrigin) {
  const auto view = make_view({10.0, 10.0});
  const core::ScheduleEvaluator eval({100.0}, view, false);
  LoadTracker t(eval, flat({{0}, {}}));
  EXPECT_THROW(t.apply({0, 1, 0}), std::invalid_argument);
}

TEST(LoadTracker, MakespanDeltaPredictsActualChange) {
  const auto view = make_view({10.0, 25.0, 50.0}, {0.0, 500.0, 0.0});
  const core::ScheduleEvaluator eval({100.0, 400.0, 900.0, 50.0}, view, false);
  LoadTracker t(eval, flat({{0, 3}, {1}, {2}}));

  const Move m{2, 2, 0};
  const double predicted = t.makespan_delta(m);
  const double before = t.makespan();
  t.apply(m);
  EXPECT_NEAR(t.makespan(), before + predicted, 1e-9);
}

TEST(LoadTracker, SwapSlotsExchangesProcessors) {
  const auto view = make_view({10.0, 10.0});
  const core::ScheduleEvaluator eval({100.0, 300.0}, view, false);
  LoadTracker t(eval, flat({{0}, {1}}));
  t.swap_slots(0, 1);
  EXPECT_EQ(t.proc_of(0), 1u);
  EXPECT_EQ(t.proc_of(1), 0u);
  EXPECT_DOUBLE_EQ(t.completion(0), 30.0);
  EXPECT_DOUBLE_EQ(t.completion(1), 10.0);
}

TEST(LoadTracker, SwapOnSameProcessorIsANoop) {
  const auto view = make_view({10.0, 10.0});
  const core::ScheduleEvaluator eval({100.0, 300.0}, view, false);
  LoadTracker t(eval, flat({{0, 1}, {}}));
  t.swap_slots(0, 1);
  EXPECT_EQ(t.proc_of(0), 0u);
  EXPECT_EQ(t.proc_of(1), 0u);
}

TEST(LoadTracker, ExportScheduleRoundTripsThroughConstructor) {
  const auto view = make_view({10.0, 20.0, 40.0});
  const core::ScheduleEvaluator eval({10, 20, 30, 40, 50}, view, false);
  LoadTracker t(eval, flat({{0, 2}, {4}, {1, 3}}));
  core::FlatSchedule exported;
  t.export_schedule(exported);
  const LoadTracker t2(eval, exported);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(t2.completion(j), t.completion(j));
  }
}

TEST(LoadTracker, RandomMoveAlwaysValid) {
  const auto view = make_view({10.0, 20.0, 40.0, 80.0});
  const core::ScheduleEvaluator eval({10, 20, 30, 40, 50, 60}, view, false);
  const LoadTracker t(eval, flat({{0, 1}, {2}, {3, 4}, {5}}));
  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Move m = t.random_move(rng);
    EXPECT_LT(m.slot, t.num_tasks());
    EXPECT_EQ(m.from, t.proc_of(m.slot));
    EXPECT_NE(m.to, m.from);
    EXPECT_LT(m.to, t.num_procs());
  }
}

TEST(LoadTracker, IncrementalStateMatchesRecomputationUnderRandomWalk) {
  const auto view =
      make_view({10.0, 30.0, 55.0}, {100.0, 0.0, 40.0}, {0.5, 1.5, 0.1});
  const core::ScheduleEvaluator eval({15, 25, 35, 45, 55, 65, 75}, view, true);
  LoadTracker t(eval, flat({{0, 1, 2}, {3, 4}, {5, 6}}));
  util::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    t.apply(t.random_move(rng));
    if (i % 50 == 0) {
      const auto expect = recompute(eval, t);
      for (std::size_t j = 0; j < t.num_procs(); ++j) {
        ASSERT_NEAR(t.completion(j), expect[j], 1e-7) << "proc " << j;
      }
    }
  }
  const auto expect = recompute(eval, t);
  for (std::size_t j = 0; j < t.num_procs(); ++j) {
    EXPECT_NEAR(t.completion(j), expect[j], 1e-7);
  }
}

}  // namespace
}  // namespace gasched::meta
