// Tests for the experiment harness: registry-backed scheduler factory,
// scenario realisation, replication determinism, and the same-workload
// guarantee.

#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace gasched::exp {
namespace {

Scenario small_scenario() {
  Scenario s;
  s.name = "test";
  s.cluster = paper_cluster(/*mean_comm_cost=*/10.0, /*processors=*/6);
  s.workload.dist = "uniform";
  s.workload.param_a = 10.0;
  s.workload.param_b = 100.0;
  s.workload.count = 120;
  s.seed = 7;
  s.replications = 3;
  return s;
}

SchedulerParams quick_opts() {
  SchedulerParams o;
  o.set("batch_size", 40);
  o.set("max_generations", 40);
  o.set("population", 10);
  return o;
}

TEST(SchedulerFactory, AllSevenConstructibleWithPaperNames) {
  for (const auto& name : all_schedulers()) {
    const auto policy = make_scheduler(name, quick_opts());
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(SchedulerFactory, OrderMatchesPaperBarCharts) {
  const auto all = all_schedulers();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all[0], "EF");
  EXPECT_EQ(all[1], "LL");
  EXPECT_EQ(all[2], "RR");
  EXPECT_EQ(all[3], "ZO");
  EXPECT_EQ(all[4], "PN");
  EXPECT_EQ(all[5], "MM");
  EXPECT_EQ(all[6], "MX");
}

TEST(Distributions, FactoryMatchesSpec) {
  WorkloadSpec spec;
  spec.count = 10;
  spec.dist = "normal";
  spec.param_a = 1000.0;
  spec.param_b = 9e5;
  EXPECT_EQ(make_distribution(spec)->name(), "normal");
  spec.dist = "uniform";
  spec.param_a = 10.0;
  spec.param_b = 100.0;
  EXPECT_EQ(make_distribution(spec)->name(), "uniform");
  spec.dist = "poisson";
  spec.param_a = 10.0;
  EXPECT_EQ(make_distribution(spec)->name(), "poisson");
  spec.dist = "constant";
  spec.param_a = 5.0;
  EXPECT_EQ(make_distribution(spec)->name(), "constant");
  spec.dist = "pareto";
  spec.param_a = 10.0;
  spec.param_b = 10000.0;
  EXPECT_EQ(make_distribution(spec)->name(), "pareto");
  spec.dist = "bimodal";
  EXPECT_EQ(make_distribution(spec)->name(), "bimodal");
}

TEST(Distributions, NamedKeysOverridePositionalParams) {
  WorkloadSpec spec;
  spec.dist = "uniform";
  spec.param_a = 10.0;
  spec.param_b = 100.0;
  spec.params.set("lo", 50.0).set("hi", 60.0);
  const auto d = make_distribution(spec);
  EXPECT_DOUBLE_EQ(d->min_size(), 50.0);
  EXPECT_DOUBLE_EQ(d->mean(), 55.0);
}

TEST(PaperCluster, MatchesSection42) {
  const auto cfg = paper_cluster(20.0);
  EXPECT_EQ(cfg.num_processors, 50u);
  EXPECT_DOUBLE_EQ(cfg.rate_lo, 10.0);
  EXPECT_DOUBLE_EQ(cfg.rate_hi, 100.0);
  EXPECT_DOUBLE_EQ(cfg.comm.mean_cost, 20.0);
  EXPECT_EQ(cfg.availability, sim::AvailabilityKind::kFixed);
}

TEST(Runner, CompletesAllTasksForEveryScheduler) {
  const Scenario s = small_scenario();
  for (const auto& name : all_schedulers()) {
    const auto runs = run_replications(s, name, quick_opts());
    ASSERT_EQ(runs.size(), s.replications);
    for (const auto& r : runs) {
      EXPECT_EQ(r.tasks_completed, s.workload.count) << name;
      EXPECT_GT(r.makespan, 0.0);
      EXPECT_GT(r.efficiency(), 0.0);
      EXPECT_LE(r.efficiency(), 1.0);
    }
  }
}

TEST(Runner, DeterministicAcrossCalls) {
  const Scenario s = small_scenario();
  const auto a = run_replications(s, "EF", quick_opts());
  const auto b = run_replications(s, "EF", quick_opts());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].makespan, b[i].makespan);
  }
}

TEST(Runner, ParallelAndSerialAgree) {
  const Scenario s = small_scenario();
  const auto par = run_replications(s, "MM", quick_opts(), /*parallel=*/true);
  const auto ser = run_replications(s, "MM", quick_opts(), /*parallel=*/false);
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_DOUBLE_EQ(par[i].makespan, ser[i].makespan);
    EXPECT_DOUBLE_EQ(par[i].efficiency(), ser[i].efficiency());
  }
}

TEST(Runner, ReplicationsDiffer) {
  const Scenario s = small_scenario();
  const auto runs = run_replications(s, "RR", quick_opts());
  EXPECT_NE(runs[0].makespan, runs[1].makespan);
}

TEST(Runner, RunOneMatchesReplicationSlot) {
  const Scenario s = small_scenario();
  const auto runs = run_replications(s, "LL", quick_opts());
  const auto lone = run_one(s, "LL", quick_opts(), 1);
  EXPECT_DOUBLE_EQ(lone.makespan, runs[1].makespan);
}

TEST(Runner, CellSummaryAggregates) {
  const Scenario s = small_scenario();
  const auto cell = run_cell(s, "EF", quick_opts());
  EXPECT_EQ(cell.scheduler, "EF");
  EXPECT_EQ(cell.replications, s.replications);
  EXPECT_GT(cell.makespan.mean, 0.0);
}

TEST(Runner, AcceptsCaseInsensitiveNamesAndLabelsCanonically) {
  const Scenario s = small_scenario();
  const auto cell = run_cell(s, "ef", quick_opts());
  EXPECT_EQ(cell.scheduler, "EF");
  const auto canonical = run_replications(s, "EF", quick_opts());
  const auto lower = run_replications(s, "ef", quick_opts());
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    EXPECT_DOUBLE_EQ(canonical[i].makespan, lower[i].makespan);
  }
}

TEST(Runner, UnknownSchedulerThrowsBeforeRunning) {
  const Scenario s = small_scenario();
  EXPECT_THROW(run_replications(s, "NOPE", quick_opts()),
               std::runtime_error);
}

// --- bound_instance: replication rep's tasks and machines --------------------

TEST(BoundInstance, IsTheInstanceRunOneSimulates) {
  const Scenario s = small_scenario();
  const metrics::BoundInstance inst = bound_instance(s, 1);
  ASSERT_EQ(inst.task_sizes.size(), s.workload.count);
  ASSERT_EQ(inst.rates.size(), s.cluster.num_processors);
  ASSERT_EQ(inst.comm_costs.size(), s.cluster.num_processors);
  // Every task of replication 1 ran for exactly its size over the rate of
  // the processor that took it (fixed availability), so the bound
  // instance holds that replication's sizes and rates, task by task.
  const sim::SimulationResult run =
      run_one(s, "EF", quick_opts(), 1, /*record_task_trace=*/true);
  ASSERT_EQ(run.task_trace.size(), s.workload.count);
  for (const sim::TaskRecord& t : run.task_trace) {
    const double expected = inst.task_sizes[t.id] / inst.rates[t.proc];
    EXPECT_NEAR(t.completion - t.start, expected, 1e-9 * expected)
        << "task " << t.id;
  }
}

TEST(BoundInstance, DependsOnlyOnSeedAndRep) {
  Scenario s = small_scenario();
  const metrics::BoundInstance a = bound_instance(s, 0);
  EXPECT_EQ(bound_instance(s, 0).task_sizes, a.task_sizes);
  EXPECT_EQ(bound_instance(s, 0).rates, a.rates);
  EXPECT_NE(bound_instance(s, 1).task_sizes, a.task_sizes);
  EXPECT_NE(bound_instance(s, 1).rates, a.rates);
  s.replications = 10;  // the replication count does not move the streams
  EXPECT_EQ(bound_instance(s, 0).task_sizes, a.task_sizes);
  EXPECT_EQ(bound_instance(s, 0).comm_costs, a.comm_costs);
  s.seed = 8;
  EXPECT_NE(bound_instance(s, 0).task_sizes, a.task_sizes);
}

// --- run_one's always-on result checks --------------------------------------

/// Runs check_run on `r` and returns the error text ("" when it passes).
std::string check_error(const sim::SimulationResult& r, const Scenario& s) {
  try {
    check_run(r, s, "EF", 2);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(RunCheck, AcceptsAGenuineResult) {
  const Scenario s = small_scenario();
  EXPECT_EQ(check_error(run_one(s, "EF", {}, 2), s), "");
}

TEST(RunCheck, MissingTaskNamesTheRun) {
  const Scenario s = small_scenario();
  sim::SimulationResult r = run_one(s, "EF", {}, 2);
  r.tasks_completed -= 1;
  const std::string err = check_error(r, s);
  EXPECT_NE(err.find("119 of 120 tasks completed"), std::string::npos) << err;
  EXPECT_NE(err.find("scenario 'test'"), std::string::npos) << err;
  EXPECT_NE(err.find("scheduler EF"), std::string::npos) << err;
  EXPECT_NE(err.find("seed 7"), std::string::npos) << err;
  EXPECT_NE(err.find("replication 2"), std::string::npos) << err;
}

TEST(RunCheck, EfficiencyOutsideUnitInterval) {
  const Scenario s = small_scenario();
  const sim::SimulationResult genuine = run_one(s, "EF", {}, 2);
  sim::SimulationResult r = genuine;
  for (auto& p : r.per_proc) p.busy_time = 2.0 * r.makespan;  // reads 2
  EXPECT_NE(check_error(r, s).find("efficiency 2.000000 outside [0, 1]"),
            std::string::npos)
      << check_error(r, s);
  r = genuine;
  r.per_proc[0].busy_time = -1e12;  // negative
  EXPECT_NE(check_error(r, s).find("efficiency"), std::string::npos);
  r = genuine;
  r.per_proc[0].busy_time = std::nan("");
  EXPECT_NE(check_error(r, s).find("efficiency"), std::string::npos);
}

TEST(RunCheck, ProcessorBusyLongerThanMakespan) {
  const Scenario s = small_scenario();
  sim::SimulationResult r = run_one(s, "EF", {}, 2);
  ASSERT_GE(r.per_proc.size(), 2u);
  // Keep efficiency inside [0, 1]: move busy time from processor 0 onto
  // processor 1 until it exceeds the makespan.
  const double excess = r.makespan - r.per_proc[1].busy_time + 1.0;
  r.per_proc[1].busy_time += excess;
  r.per_proc[0].busy_time = 0.0;
  ASSERT_LE(r.efficiency(), 1.0);
  const std::string err = check_error(r, s);
  EXPECT_NE(err.find("processor 1 busy"), std::string::npos) << err;
}

}  // namespace
}  // namespace gasched::exp
