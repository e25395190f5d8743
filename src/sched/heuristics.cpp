#include "sched/heuristics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace gasched::sched {

namespace {

/// Processor with the earliest estimated finish time for `task` given the
/// working load vector.
sim::ProcId earliest_finish(const workload::Task& task,
                            const sim::SystemView& view,
                            const std::vector<double>& pending) {
  sim::ProcId best = 0;
  double best_time = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < view.size(); ++j) {
    const double rate = view.procs[j].rate;
    if (!(rate > 0.0)) continue;
    const double finish = (pending[j] + task.size_mflops) / rate;
    if (finish < best_time) {
      best_time = finish;
      best = static_cast<sim::ProcId>(j);
    }
  }
  return best;
}

}  // namespace

sim::ProcId EarliestFinishRule::place(const workload::Task& task,
                                      const sim::SystemView& view,
                                      const std::vector<double>& pending,
                                      util::Rng&) {
  return earliest_finish(task, view, pending);
}

sim::ProcId LightestLoadedRule::place(const workload::Task&,
                                      const sim::SystemView& view,
                                      const std::vector<double>& pending,
                                      util::Rng&) {
  sim::ProcId best = 0;
  double best_load = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < view.size(); ++j) {
    if (pending[j] < best_load) {
      best_load = pending[j];
      best = static_cast<sim::ProcId>(j);
    }
  }
  return best;
}

sim::ProcId RoundRobinRule::place(const workload::Task&,
                                  const sim::SystemView& view,
                                  const std::vector<double>&, util::Rng&) {
  const auto j = static_cast<sim::ProcId>(next_ % view.size());
  ++next_;
  return j;
}

ImmediatePolicy::ImmediatePolicy(std::unique_ptr<ImmediateRule> rule)
    : rule_(std::move(rule)) {
  if (!rule_) throw std::invalid_argument("ImmediatePolicy: null rule");
}

sim::BatchAssignment ImmediatePolicy::invoke(
    const sim::SystemView& view, std::deque<workload::Task>& queue,
    util::Rng& rng) {
  auto assignment = sim::BatchAssignment::empty(view.size());
  pending_.resize(view.size());
  for (std::size_t j = 0; j < view.size(); ++j) {
    pending_[j] = view.procs[j].pending_mflops;
  }
  while (!queue.empty()) {
    const workload::Task task = queue.front();
    queue.pop_front();
    const sim::ProcId j = rule_->place(task, view, pending_, rng);
    if (j < 0 || static_cast<std::size_t>(j) >= view.size()) {
      throw std::runtime_error("ImmediatePolicy: rule returned bad processor");
    }
    assignment.per_proc[static_cast<std::size_t>(j)].push_back(task.id);
    pending_[static_cast<std::size_t>(j)] += task.size_mflops;
  }
  return assignment;
}

SortedBatchPolicy::SortedBatchPolicy(bool descending, std::size_t batch_size)
    : descending_(descending), batch_size_(batch_size) {
  if (batch_size == 0) {
    throw std::invalid_argument("SortedBatchPolicy: batch_size >= 1");
  }
}

sim::BatchAssignment SortedBatchPolicy::invoke(
    const sim::SystemView& view, std::deque<workload::Task>& queue,
    util::Rng&) {
  auto assignment = sim::BatchAssignment::empty(view.size());
  if (queue.empty()) return assignment;

  batch_.clear();
  batch_.reserve(std::min(batch_size_, queue.size()));
  while (batch_.size() < batch_size_ && !queue.empty()) {
    batch_.push_back(queue.front());
    queue.pop_front();
  }
  // Size order with ties kept in batch order — the order stable_sort
  // gives, without its per-call temporary buffer.
  order_.resize(batch_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    const double sa = batch_[a].size_mflops;
    const double sb = batch_[b].size_mflops;
    if (sa != sb) return descending_ ? sa > sb : sa < sb;
    return a < b;
  });
  pending_.resize(view.size());
  for (std::size_t j = 0; j < view.size(); ++j) {
    pending_[j] = view.procs[j].pending_mflops;
  }
  for (const std::size_t i : order_) {
    const workload::Task& task = batch_[i];
    const sim::ProcId j = earliest_finish(task, view, pending_);
    assignment.per_proc[static_cast<std::size_t>(j)].push_back(task.id);
    pending_[static_cast<std::size_t>(j)] += task.size_mflops;
  }
  return assignment;
}

std::unique_ptr<sim::SchedulingPolicy> make_ef() {
  return std::make_unique<ImmediatePolicy>(
      std::make_unique<EarliestFinishRule>());
}
std::unique_ptr<sim::SchedulingPolicy> make_ll() {
  return std::make_unique<ImmediatePolicy>(
      std::make_unique<LightestLoadedRule>());
}
std::unique_ptr<sim::SchedulingPolicy> make_rr() {
  return std::make_unique<ImmediatePolicy>(std::make_unique<RoundRobinRule>());
}
std::unique_ptr<sim::SchedulingPolicy> make_mm(std::size_t batch_size) {
  return std::make_unique<SortedBatchPolicy>(false, batch_size);
}
std::unique_ptr<sim::SchedulingPolicy> make_mx(std::size_t batch_size) {
  return std::make_unique<SortedBatchPolicy>(true, batch_size);
}

}  // namespace gasched::sched
