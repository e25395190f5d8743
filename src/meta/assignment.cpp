#include "meta/assignment.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace gasched::meta {

LoadTracker::LoadTracker(const core::ScheduleEvaluator& eval,
                         const core::FlatSchedule& schedule)
    : eval_(&eval) {
  reset(eval, schedule);
}

void LoadTracker::reset(const core::ScheduleEvaluator& eval,
                        const core::FlatSchedule& schedule) {
  eval_ = &eval;
  const std::size_t M = eval.num_procs();
  const std::size_t N = eval.num_tasks();
  if (schedule.num_procs() != M) {
    throw std::invalid_argument("LoadTracker: queue count != processor count");
  }
  slot_proc_.assign(N, M);  // M = unassigned sentinel
  completion_.resize(M);
  for (std::size_t j = 0; j < M; ++j) {
    completion_[j] = eval.delta(j);
    for (const std::size_t slot : schedule.queue(j)) {
      if (slot >= N || slot_proc_[slot] != M) {
        throw std::invalid_argument(
            "LoadTracker: queues must cover each slot exactly once");
      }
      slot_proc_[slot] = j;
      completion_[j] += eval.task_cost_on(slot, j);
    }
  }
  for (std::size_t s = 0; s < N; ++s) {
    if (slot_proc_[s] == M) {
      throw std::invalid_argument("LoadTracker: slot missing from queues");
    }
  }
  rescan_top2();
}

void LoadTracker::rescan_top2() noexcept {
  const std::size_t M = completion_.size();
  top1_ = 0;
  top1_value_ = M > 0 ? completion_[0] : 0.0;
  for (std::size_t j = 1; j < M; ++j) {
    if (completion_[j] > top1_value_) {
      top1_ = j;
      top1_value_ = completion_[j];
    }
  }
  top2_ = top1_;
  top2_value_ = -std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < M; ++j) {
    if (j == top1_) continue;
    if (completion_[j] > top2_value_) {
      top2_ = j;
      top2_value_ = completion_[j];
    }
  }
}

void LoadTracker::fix_top2(std::size_t j) noexcept {
  const double v = completion_[j];
  if (j == top1_) {
    if (v >= top1_value_) {
      // Moved up: no other processor can have reached this value (it
      // would have outranked the old maximum), so j stays first argmax.
      top1_value_ = v;
    } else {
      rescan_top2();  // the maximum moved down: anything may lead now
    }
  } else if (j == top2_) {
    if (outranks(v, j, top1_value_, top1_)) {
      // Second place overtakes: the old leader becomes the runner-up (it
      // still outranks every other processor).
      top2_ = top1_;
      top2_value_ = top1_value_;
      top1_ = j;
      top1_value_ = v;
    } else if (v >= top2_value_) {
      top2_value_ = v;  // moved up within second place
    } else {
      rescan_top2();  // runner-up moved down: a third may overtake
    }
  } else {
    if (outranks(v, j, top1_value_, top1_)) {
      top2_ = top1_;
      top2_value_ = top1_value_;
      top1_ = j;
      top1_value_ = v;
    } else if (outranks(v, j, top2_value_, top2_)) {
      top2_ = j;
      top2_value_ = v;
    }
    // Otherwise j still trails both tracked maxima: nothing to do.
  }
}

double LoadTracker::makespan_delta(const Move& m) const {
  const double before = top1_value_;
  const double from_after = completion_[m.from] - eval_->task_cost_on(m.slot, m.from);
  const double to_after = completion_[m.to] + eval_->task_cost_on(m.slot, m.to);
  double after = std::max(from_after, to_after);
  // Maximum over the untouched processors: the tracked top-2 answer it
  // unless both maxima are the move's endpoints (then scan — max over a
  // set is scan-order independent, so the value matches a full recompute
  // bit for bit).
  if (top1_ != m.from && top1_ != m.to) {
    after = std::max(after, top1_value_);
  } else if (top2_ != m.from && top2_ != m.to) {
    after = std::max(after, top2_value_);
  } else {
    for (std::size_t j = 0; j < completion_.size(); ++j) {
      if (j == m.from || j == m.to) continue;
      after = std::max(after, completion_[j]);
    }
  }
  return after - before;
}

void LoadTracker::apply(const Move& m) {
  if (slot_proc_.at(m.slot) != m.from) {
    throw std::invalid_argument("LoadTracker::apply: stale move origin");
  }
  // Point updates re-establish the top-2 invariant one change at a time
  // (costs are strictly positive: the origin strictly drops, the target
  // strictly rises).
  completion_[m.from] -= eval_->task_cost_on(m.slot, m.from);
  fix_top2(m.from);
  completion_[m.to] += eval_->task_cost_on(m.slot, m.to);
  fix_top2(m.to);
  slot_proc_[m.slot] = m.to;
}

void LoadTracker::swap_slots(std::size_t slot_a, std::size_t slot_b) {
  const std::size_t pa = slot_proc_.at(slot_a);
  const std::size_t pb = slot_proc_.at(slot_b);
  if (pa == pb) return;
  apply({slot_a, pa, pb});
  apply({slot_b, pb, pa});
}

Move LoadTracker::random_move(util::Rng& rng) const {
  const std::size_t M = num_procs();
  if (M < 2 || num_tasks() == 0) {
    throw std::logic_error("LoadTracker::random_move: need M >= 2, N >= 1");
  }
  Move m;
  m.slot = rng.index(num_tasks());
  m.from = slot_proc_[m.slot];
  m.to = rng.index(M - 1);
  if (m.to >= m.from) ++m.to;  // uniform over the other M-1 processors
  return m;
}

}  // namespace gasched::meta
