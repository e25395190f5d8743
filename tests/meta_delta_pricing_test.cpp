// Equivalence tests for LoadTracker's maintained top-2 completion-time
// state: makespan(), heaviest_proc(), and makespan_delta() must match a
// fresh full scan bit for bit across randomized move/swap sequences — the
// contract that lets SA, tabu search, and hill climbing read the makespan
// in O(1) without perturbing a single accepted/rejected decision.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/encoding.hpp"
#include "core/fitness.hpp"
#include "core/init.hpp"
#include "meta/assignment.hpp"
#include "util/rng.hpp"

namespace gasched::meta {
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

/// Fresh-scan reference: first argmax of the tracker's completion times,
/// exactly as the pre-refactor O(M) implementation computed it.
struct ScanResult {
  double makespan = 0.0;
  std::size_t heaviest = 0;
};

ScanResult fresh_scan(const LoadTracker& t) {
  ScanResult r;
  double heavy_time = -1.0;
  double m = 0.0;
  for (std::size_t j = 0; j < t.num_procs(); ++j) {
    const double cj = t.completion(j);
    m = std::max(m, cj);
    if (cj > heavy_time) {
      heavy_time = cj;
      r.heaviest = j;
    }
  }
  r.makespan = m;
  return r;
}

/// Fresh-scan reference for makespan_delta: price the move arithmetically
/// against copies of the completion times and diff full-scan maxima.
double fresh_delta(const LoadTracker& t, const Move& m) {
  std::vector<double> after(t.num_procs());
  for (std::size_t j = 0; j < t.num_procs(); ++j) after[j] = t.completion(j);
  const auto& eval = t.evaluator();
  after[m.from] -= eval.task_cost_on(m.slot, m.from);
  after[m.to] += eval.task_cost_on(m.slot, m.to);
  return *std::max_element(after.begin(), after.end()) - fresh_scan(t).makespan;
}

TEST(MetaDeltaPricing, Top2MatchesFreshScanAcrossRandomMoveSequences) {
  util::Rng rng(2024);
  core::FlatSchedule flat;
  for (int round = 0; round < 25; ++round) {
    const std::size_t tasks = 1 + rng.index(40);
    const std::size_t procs = 2 + rng.index(10);
    const core::ScheduleEvaluator eval(random_sizes(tasks, rng),
                                       random_view(procs, rng),
                                       rng.bernoulli(0.5));
    core::list_schedule_flat(eval, 0.5, rng, flat);
    LoadTracker tracker(eval, flat);

    // The SA/tabu/HC inner-loop shape: propose, price the delta, apply a
    // biased-random subset. The tracked state must agree with a fresh
    // scan after every application — not just at the end.
    for (int step = 0; step < 200; ++step) {
      const Move m = tracker.random_move(rng);
      ASSERT_EQ(tracker.makespan_delta(m), fresh_delta(tracker, m));
      if (rng.bernoulli(0.7)) tracker.apply(m);
      const ScanResult ref = fresh_scan(tracker);
      ASSERT_EQ(tracker.makespan(), ref.makespan);
      ASSERT_EQ(tracker.heaviest_proc(), ref.heaviest);
    }
  }
}

TEST(MetaDeltaPricing, Top2MatchesFreshScanAcrossSwapSequences) {
  util::Rng rng(2025);
  core::FlatSchedule flat;
  for (int round = 0; round < 25; ++round) {
    const std::size_t tasks = 2 + rng.index(30);
    const std::size_t procs = 2 + rng.index(8);
    const core::ScheduleEvaluator eval(random_sizes(tasks, rng),
                                       random_view(procs, rng),
                                       rng.bernoulli(0.5));
    core::list_schedule_flat(eval, 0.0, rng, flat);
    LoadTracker tracker(eval, flat);

    for (int step = 0; step < 100; ++step) {
      const std::size_t a = rng.index(tasks);
      const std::size_t b = rng.index(tasks);
      tracker.swap_slots(a, b);  // no-op when both live on one processor
      const ScanResult ref = fresh_scan(tracker);
      ASSERT_EQ(tracker.makespan(), ref.makespan);
      ASSERT_EQ(tracker.heaviest_proc(), ref.heaviest);
    }
  }
}

TEST(MetaDeltaPricing, TieBreakingMatchesFirstArgmax) {
  // Identical rates, sizes, and no pending load or comm: every non-empty
  // queue of equal length finishes at exactly the same double, so the
  // first-argmax tie rule does real work here.
  const std::size_t procs = 6;
  sim::SystemView v;
  v.procs.resize(procs);
  for (std::size_t j = 0; j < procs; ++j) {
    v.procs[j].id = static_cast<sim::ProcId>(j);
    v.procs[j].rate = 10.0;
    v.procs[j].pending_mflops = 0.0;
    v.procs[j].comm_estimate = 0.0;
    v.procs[j].comm_observations = 1;
  }
  const std::size_t tasks = 12;  // two equal tasks per processor
  const core::ScheduleEvaluator eval(std::vector<double>(tasks, 100.0), v,
                                     /*use_comm=*/false);
  core::ProcQueues queues(procs);
  for (std::size_t s = 0; s < tasks; ++s) queues[s % procs].push_back(s);
  core::FlatSchedule schedule;
  schedule.assign(queues);
  LoadTracker tracker(eval, schedule);

  // All processors tie: the heaviest is the first.
  EXPECT_EQ(tracker.heaviest_proc(), 0u);
  const ScanResult ref0 = fresh_scan(tracker);
  EXPECT_EQ(tracker.makespan(), ref0.makespan);

  util::Rng rng(2026);
  for (int step = 0; step < 300; ++step) {
    const Move m = tracker.random_move(rng);
    ASSERT_EQ(tracker.makespan_delta(m), fresh_delta(tracker, m));
    tracker.apply(m);
    const ScanResult ref = fresh_scan(tracker);
    ASSERT_EQ(tracker.makespan(), ref.makespan);
    ASSERT_EQ(tracker.heaviest_proc(), ref.heaviest);
  }
}

TEST(MetaDeltaPricing, ResetRebuildsTop2State) {
  util::Rng rng(2027);
  const std::size_t tasks = 20, procs = 5;
  const core::ScheduleEvaluator eval(random_sizes(tasks, rng),
                                     random_view(procs, rng), true);
  core::FlatSchedule a, b;
  core::list_schedule_flat(eval, 0.0, rng, a);
  core::list_schedule_flat(eval, 1.0, rng, b);

  LoadTracker tracker(eval, a);
  for (int step = 0; step < 50; ++step) tracker.apply(tracker.random_move(rng));
  tracker.reset(eval, b);

  const LoadTracker fresh(eval, b);
  EXPECT_EQ(tracker.makespan(), fresh.makespan());
  EXPECT_EQ(tracker.heaviest_proc(), fresh.heaviest_proc());
  for (std::size_t j = 0; j < procs; ++j) {
    EXPECT_EQ(tracker.completion(j), fresh.completion(j));
  }
}

TEST(MetaDeltaPricing, SingleProcessorTrackerStaysConsistent) {
  util::Rng rng(2028);
  const std::size_t tasks = 8;
  const core::ScheduleEvaluator eval(random_sizes(tasks, rng),
                                     random_view(1, rng), true);
  core::ProcQueues queues(1);
  for (std::size_t s = 0; s < tasks; ++s) queues[0].push_back(s);
  core::FlatSchedule schedule;
  schedule.assign(queues);
  const LoadTracker tracker(eval, schedule);
  EXPECT_EQ(tracker.heaviest_proc(), 0u);
  EXPECT_EQ(tracker.makespan(), fresh_scan(tracker).makespan);
}

}  // namespace
}  // namespace gasched::meta
