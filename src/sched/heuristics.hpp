#pragma once
// Baseline schedulers from §4.1 of the paper.
//
// Immediate mode (one task at a time, FCFS):
//   EF — earliest finish: argmin_j (L_j + t) / P_j.          Θ(M) per task
//   LL — lightest loaded: argmin_j L_j (MFLOPs).             Θ(M) per task
//   RR — round robin: cyclic assignment, no state inspected. Θ(1) per task
//
// Batch mode (FCFS batches of `batch_size` tasks):
//   MX — max-min: sort batch descending by size, place each on the
//        processor that finishes it first (largest tasks early, small
//        tasks fill the gaps).       Θ(max(M, n log n)) per batch
//   MM — min-min: as MX but ascending.
//
// None of these use communication estimates — per the paper, "the effect
// of communication is only considered after tasks or batches of tasks
// have been scheduled". They adapt only through the observed loads in the
// system view.

#include <memory>
#include <string>

#include "sim/policy.hpp"

namespace gasched::sched {

/// Immediate-mode placement rule: choose a processor for one task given
/// the (locally updated) load vector.
class ImmediateRule {
 public:
  virtual ~ImmediateRule() = default;
  /// Chooses a processor. `pending_mflops[j]` includes tasks already
  /// placed earlier in the same scheduler invocation.
  virtual sim::ProcId place(const workload::Task& task,
                            const sim::SystemView& view,
                            const std::vector<double>& pending_mflops,
                            util::Rng& rng) = 0;
  /// Rule name ("EF", ...).
  virtual std::string name() const = 0;
};

/// EF: earliest estimated finish time (load + task) / rate.
class EarliestFinishRule final : public ImmediateRule {
 public:
  sim::ProcId place(const workload::Task& task, const sim::SystemView& view,
                    const std::vector<double>& pending_mflops,
                    util::Rng& rng) override;
  std::string name() const override { return "EF"; }
};

/// LL: smallest pending load in MFLOPs (task size ignored).
class LightestLoadedRule final : public ImmediateRule {
 public:
  sim::ProcId place(const workload::Task& task, const sim::SystemView& view,
                    const std::vector<double>& pending_mflops,
                    util::Rng& rng) override;
  std::string name() const override { return "LL"; }
};

/// RR: cyclic assignment (stateful).
class RoundRobinRule final : public ImmediateRule {
 public:
  sim::ProcId place(const workload::Task& task, const sim::SystemView& view,
                    const std::vector<double>& pending_mflops,
                    util::Rng& rng) override;
  std::string name() const override { return "RR"; }

 private:
  std::size_t next_ = 0;
};

/// Adapts an ImmediateRule to the engine's SchedulingPolicy interface:
/// consumes the whole unscheduled queue FCFS, updating a local load copy
/// after each placement.
class ImmediatePolicy final : public sim::SchedulingPolicy {
 public:
  /// Takes ownership of `rule`.
  explicit ImmediatePolicy(std::unique_ptr<ImmediateRule> rule);
  sim::BatchAssignment invoke(const sim::SystemView& view,
                              std::deque<workload::Task>& queue,
                              util::Rng& rng) override;
  std::string name() const override { return rule_->name(); }

 private:
  std::unique_ptr<ImmediateRule> rule_;
  std::vector<double> pending_;  // reused local load copy
};

/// MM / MX batch heuristics: FCFS batches sorted by size, each task placed
/// on the processor finishing it earliest.
class SortedBatchPolicy final : public sim::SchedulingPolicy {
 public:
  /// `descending` = true gives max-min (MX); false gives min-min (MM).
  SortedBatchPolicy(bool descending, std::size_t batch_size = 200);
  sim::BatchAssignment invoke(const sim::SystemView& view,
                              std::deque<workload::Task>& queue,
                              util::Rng& rng) override;
  std::string name() const override { return descending_ ? "MX" : "MM"; }

 private:
  bool descending_;
  std::size_t batch_size_;
  std::vector<workload::Task> batch_;  // reused batch buffer
  std::vector<std::size_t> order_;     // batch positions, sorted by size
  std::vector<double> pending_;        // reused local load copy
};

/// Factory helpers matching the paper's scheduler names.
std::unique_ptr<sim::SchedulingPolicy> make_ef();
std::unique_ptr<sim::SchedulingPolicy> make_ll();
std::unique_ptr<sim::SchedulingPolicy> make_rr();
std::unique_ptr<sim::SchedulingPolicy> make_mm(std::size_t batch_size = 200);
std::unique_ptr<sim::SchedulingPolicy> make_mx(std::size_t batch_size = 200);

}  // namespace gasched::sched
