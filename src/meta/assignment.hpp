#pragma once
// Incremental assignment state shared by the local-search schedulers
// (simulated annealing, tabu search, hill climbing).
//
// The paper's §2 singles out meta-heuristic search — GAs, tabu search
// (Glover, ref [6]) and ant colony optimisation (Colorni et al., ref [3])
// — as the techniques applicable to batch task scheduling. src/meta
// implements those alternatives over the same information model as the
// PN scheduler (core/fitness.hpp) so search strategies can be compared
// with everything else held fixed.
//
// A LoadTracker maintains per-processor completion times
//   C_j = δ_j + Σ_{slot→j} (t_slot / P_j + Γc_j)
// under O(1) move and swap operations. Queue order within a processor
// does not affect C_j (the evaluator sums queue costs), so local-search
// neighbourhoods operate purely on the slot → processor assignment.

#include <cstddef>
#include <span>
#include <vector>

#include "core/encoding.hpp"
#include "core/fitness.hpp"
#include "util/rng.hpp"

namespace gasched::meta {

/// A single local-search move: reassign batch slot `slot` from processor
/// `from` to processor `to`.
struct Move {
  std::size_t slot = 0;
  std::size_t from = 0;
  std::size_t to = 0;
};

/// Mutable assignment of batch slots to processors with incrementally
/// maintained completion times.
class LoadTracker {
 public:
  /// Builds the tracker from an initial assignment. `schedule` must have
  /// one queue per processor and cover every batch slot of `eval` exactly
  /// once (std::invalid_argument otherwise); the evaluator must outlive
  /// the tracker.
  LoadTracker(const core::ScheduleEvaluator& eval,
              const core::FlatSchedule& schedule);

  /// Re-initialises from another schedule, reusing this tracker's buffers
  /// (restart loops rebuild state without allocating).
  void reset(const core::ScheduleEvaluator& eval,
             const core::FlatSchedule& schedule);

  /// Number of processors M.
  std::size_t num_procs() const noexcept { return completion_.size(); }
  /// Number of batch slots N.
  std::size_t num_tasks() const noexcept { return slot_proc_.size(); }

  /// Processor currently hosting `slot`.
  std::size_t proc_of(std::size_t slot) const { return slot_proc_.at(slot); }
  /// Completion time C_j of processor j.
  double completion(std::size_t j) const { return completion_.at(j); }
  /// Current makespan max_j C_j. O(1): served from the maintained top-2
  /// completion-time state.
  double makespan() const noexcept { return top1_value_; }
  /// Index of the processor with the largest completion time (smallest
  /// index on ties — the fresh-scan first-argmax). O(1).
  std::size_t heaviest_proc() const noexcept { return top1_; }

  /// Change in makespan if `m` were applied, without applying it. O(1)
  /// unless both tracked maxima are the move's endpoints (then one O(M)
  /// scan over the untouched processors).
  double makespan_delta(const Move& m) const;

  /// Applies `m`. `m.from` must be the slot's current processor.
  void apply(const Move& m);
  /// Exchanges the processors of two slots hosted on different processors.
  void swap_slots(std::size_t slot_a, std::size_t slot_b);

  /// Draws a uniformly random reassignment move (slot, its processor, a
  /// different target processor). Requires M >= 2 and N >= 1.
  Move random_move(util::Rng& rng) const;

  /// Current slot → processor map (the flat snapshot form: copy this span
  /// into a reused vector to remember a best-so-far assignment without
  /// materialising queues).
  std::span<const std::size_t> assignment() const noexcept {
    return slot_proc_;
  }

  /// Writes the current assignment into `out`, slots ascending per queue
  /// (order within a queue is irrelevant to C_j).
  void export_schedule(core::FlatSchedule& out) const {
    out.assign_grouped(slot_proc_, num_procs());
  }

  /// The evaluator this tracker prices moves with.
  const core::ScheduleEvaluator& evaluator() const noexcept { return *eval_; }

 private:
  /// True when (av, ai) outranks (bv, bi) in the scan order a fresh
  /// first-argmax scan would produce: larger value wins, smaller index
  /// breaks ties.
  static bool outranks(double av, std::size_t ai, double bv,
                       std::size_t bi) noexcept {
    return av > bv || (av == bv && ai < bi);
  }

  /// Rebuilds the top-2 state with a full scan. O(M).
  void rescan_top2() noexcept;
  /// Re-establishes the top-2 invariant after completion_[j] changed
  /// (every other entry unchanged). O(1) except when a tracked processor
  /// moved down, which falls back to a rescan.
  void fix_top2(std::size_t j) noexcept;

  const core::ScheduleEvaluator* eval_;
  std::vector<std::size_t> slot_proc_;  // slot → processor
  std::vector<double> completion_;      // C_j

  // Maintained top-2 invariant: top1_ is the first argmax of completion_
  // (ties to the smallest index, matching a fresh scan); top2_ is the
  // first argmax excluding top1_. Values mirror completion_. M == 1
  // leaves top2_ == top1_ with value -inf, which no real entry outranks.
  std::size_t top1_ = 0;
  std::size_t top2_ = 0;
  double top1_value_ = 0.0;
  double top2_value_ = 0.0;
};

}  // namespace gasched::meta
