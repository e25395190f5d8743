#pragma once
// Fitness function (paper §3.2).
//
// For a batch of N tasks with sizes t_i (MFLOPs) on M processors with
// rates P_j (Mflop/s) and previously assigned load L_j (MFLOPs):
//
//   δ_j = L_j / P_j                      (existing drain time)
//   ψ   = Σ_i t_i / Σ_j P_j + Σ_j δ_j    (theoretical optimal time)
//   C_j = δ_j + Σ_{y→j} (t_y / P_j + Γc_j)   (per-processor finish time)
//   E   = sqrt( Σ_j |ψ − C_j|² )         (relative error)
//   F   = 1 / E, clamped to [0, 1]       (fitness; larger = better)
//
// Γc_j is the smoothed per-link communication estimate; this term is what
// distinguishes the PN scheduler from the comm-oblivious ZO baseline
// (use_comm = false). Units follow DESIGN.md's documented correction: all
// summands of C_j are seconds.

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/encoding.hpp"
#include "core/numeric.hpp"
#include "ga/engine.hpp"
#include "sim/policy.hpp"

namespace gasched::core {

/// Combined metrics of one schedule, computed in a single pass over the
/// per-processor completion times.
struct BatchEvaluation {
  double fitness = 0.0;         ///< F = min(1, 1/E)
  double makespan = 0.0;        ///< max_j C_j
  double relative_error = 0.0;  ///< E
};

/// Cached per-queue load state of one priced schedule: every C_j, its
/// squared ψ-deviation, and the reduced metrics. Filled by
/// ScheduleEvaluator::load()/load_decoded() and kept current by the
/// evaluate_swap()/evaluate_move() delta paths, which re-price only the
/// changed queues and reassemble the reductions from the cache.
///
/// Ownership/invalidation contract (docs/evaluation.md): a QueueLoads is
/// valid only for (evaluator, schedule) pairs the caller controls — it
/// holds no back-references, so any edit to the schedule outside the
/// delta APIs, or pricing through a different evaluator, silently stales
/// it. The cache lives in EvalWorkspace next to the decode target and is
/// rebuilt from scratch by every full pricing.
struct QueueLoads {
  std::vector<double> completion;  ///< C_j per processor
  std::vector<double> dev_sq;      ///< (ψ − C_j)² per processor
  double sum_sq = 0.0;             ///< Σ_j dev_sq, summed in ascending j
  double max_completion = 0.0;     ///< max_j C_j (makespan)
  std::size_t heaviest = 0;        ///< first argmax_j C_j
  BatchEvaluation eval;            ///< reduced metrics of the cached state
};

/// Evaluates schedules for one batch against one system snapshot.
///
/// Every path sums each C_j left to right in queue order and reduces the
/// metrics in ascending j, so full, fused and delta pricing all return
/// the same doubles (docs/evaluation.md).
class ScheduleEvaluator {
 public:
  /// `task_sizes[slot]` is the MFLOP size of batch slot `slot`;
  /// `view` supplies P_j, L_j, and Γc_j. When `use_comm` is false the
  /// Γc_j term is dropped (ZO baseline). View rates must be positive.
  /// NumericMode has the single value kExact (core/numeric.hpp).
  ScheduleEvaluator(std::vector<double> task_sizes,
                    const sim::SystemView& view, bool use_comm,
                    NumericMode mode = default_numeric_mode());

  /// Number of processors M.
  std::size_t num_procs() const noexcept { return rate_.size(); }
  /// Number of batch tasks N.
  std::size_t num_tasks() const noexcept { return size_.size(); }
  /// Theoretical optimal processing time ψ for this batch.
  double psi() const noexcept { return psi_; }

  /// Finish time C_j of processor j running `queue` (slots) after its
  /// existing load. Accepts any contiguous slot sequence.
  double completion_time(std::size_t j,
                         std::span<const std::size_t> queue) const;

  /// Estimated makespan max_j C_j of a full decoded schedule.
  double makespan(const FlatSchedule& schedule) const;

  /// Relative error E of a schedule (see header comment).
  double relative_error(const FlatSchedule& schedule) const;

  /// Fitness F = min(1, 1/E); E = 0 maps to 1 (perfect).
  double fitness(const FlatSchedule& schedule) const;

  /// Fitness, makespan, and relative error in one pass over the
  /// completion times — the hot-path form: no per-call containers, each
  /// C_j computed once.
  BatchEvaluation evaluate(const FlatSchedule& schedule) const;

  /// Full pricing into the per-queue load cache: computes every C_j with
  /// the canonical left-to-right summation, caches the squared
  /// deviations, and reduces sum/max/argmax in ascending j. The returned
  /// metrics are bit-identical to evaluate(schedule).
  BatchEvaluation load(const FlatSchedule& schedule, QueueLoads& out) const;

  /// Fused decode + full pricing: decodes `c` into `schedule` (same
  /// result as ScheduleCodec::decode_into) while accumulating each C_j in
  /// queue order — one pass over the chromosome instead of a decode pass
  /// plus a pricing pass. Bit-identical to decode_into + load.
  BatchEvaluation load_decoded(const ScheduleCodec& codec,
                               const ga::Chromosome& c,
                               FlatSchedule& schedule, QueueLoads& out) const;

  /// Delta re-pricing after two queues changed (a task swap between
  /// `qa` and `qb`, or any edit confined to those queues). `schedule`
  /// must already reflect the change and `loads` must be current for the
  /// pre-change schedule. Re-prices only the two queues with the
  /// canonical left-to-right summation and reassembles the reductions
  /// from the cache in ascending j, so the result — and the updated
  /// `loads` — is bit-identical to a full load(schedule). O(|qa|+|qb|+M).
  BatchEvaluation evaluate_swap(const FlatSchedule& schedule,
                                QueueLoads& loads, std::size_t qa,
                                std::size_t qb) const;

  /// Delta re-pricing after a task moved from queue `from` to queue `to`
  /// (same contract and cost as evaluate_swap; the two names document
  /// intent — both re-price exactly the two changed queues).
  BatchEvaluation evaluate_move(const FlatSchedule& schedule,
                                QueueLoads& loads, std::size_t from,
                                std::size_t to) const;

  /// evaluate_swap for a caller that keeps the candidate only when it is
  /// strictly fitter than the cached state (the re-balancing heuristic).
  /// Re-prices the two queues as evaluate_swap does. When a rounding-error
  /// bound on the two-term change proves that the candidate's reduced
  /// sum_sq is at least the cached one — so its fitness cannot be higher
  /// — returns nullopt without the O(M) reduction, leaving `loads` with
  /// the two re-priced queues but the pre-change reductions: the caller
  /// must restore those two queues (or price in full) before reading the
  /// cache again. Otherwise returns exactly what evaluate_swap returns,
  /// with `loads` updated. The bound is in docs/evaluation.md.
  std::optional<BatchEvaluation> evaluate_swap_filtered(
      const FlatSchedule& schedule, QueueLoads& loads, std::size_t qa,
      std::size_t qb) const;

  /// Size of batch slot `slot` in MFLOPs.
  double task_size(std::size_t slot) const { return size_.at(slot); }
  /// Per-task execution+comm cost on processor j (seconds). Served from
  /// the precomputed cost table — the same double the defining expression
  /// t_slot / P_j + Γc_j produced at construction, without the division.
  double task_cost_on(std::size_t slot, std::size_t j) const {
    return cost_[j * size_.size() + slot];
  }
  /// Existing drain time δ_j of processor j (seconds).
  double delta(std::size_t j) const { return delta_.at(j); }
  /// Rate P_j of processor j (Mflop/s).
  double rate(std::size_t j) const { return rate_.at(j); }
  /// Communication estimate used for processor j (0 when comm disabled).
  double comm(std::size_t j) const { return comm_.at(j); }

 private:
  /// Recomputes the j-ascending reductions (sum_sq/max/argmax/eval) of
  /// `loads` from its cached completion/dev_sq arrays.
  BatchEvaluation reduce(QueueLoads& loads) const;
  /// Re-prices exactly queue `j` of `schedule` into `loads` (canonical
  /// left-to-right summation), without touching the reductions.
  void reprice_queue(const FlatSchedule& schedule, QueueLoads& loads,
                     std::size_t j) const;

  std::vector<double> size_;   // t_i per batch slot
  std::vector<double> rate_;   // P_j
  std::vector<double> delta_;  // δ_j = L_j / P_j
  std::vector<double> comm_;   // Γc_j (zeroed when use_comm == false)
  std::vector<double> cost_;   // cost_[j*N + slot]: per-processor panes
  double psi_ = 0.0;
};

/// Caller-owned, reusable evaluation scratch: the flat decode target plus
/// the per-queue load cache the delta-pricing paths maintain. One
/// workspace per evaluating thread; the GA engine obtains them via
/// ScheduleProblem::make_workspace().
struct EvalWorkspace final : ga::GaProblem::Workspace {
  FlatSchedule schedule;
  QueueLoads loads;
};

/// GaProblem adapter: evaluates chromosomes through a codec + evaluator.
/// Every path decodes into a reused FlatSchedule — no per-call
/// containers once the workspace has grown; fitness()/objective() price
/// through evaluate() with a throwaway workspace.
class ScheduleProblem final : public ga::GaProblem {
 public:
  /// Both references must outlive the problem. `rebalance_probes` bounds
  /// the random searches of the improvement heuristic (paper: 5).
  ScheduleProblem(const ScheduleCodec& codec, const ScheduleEvaluator& eval,
                  std::size_t rebalance_probes = 5);

  /// evaluate(c, nullptr).fitness.
  double fitness(const ga::Chromosome& c) const override;
  /// evaluate(c, nullptr).objective (the makespan).
  double objective(const ga::Chromosome& c) const override;
  /// One decode, both metrics; allocation-free with a non-null workspace.
  Evaluation evaluate(const ga::Chromosome& c,
                      Workspace* ws) const override;
  std::unique_ptr<Workspace> make_workspace() const override;
  /// The paper's re-balancing heuristic (§3.5); see core/rebalance.hpp.
  /// Returns true when a fitter schedule was found and applied.
  bool improve(ga::Chromosome& c, util::Rng& rng,
               Workspace* ws) const override;

 private:
  const ScheduleCodec& codec_;
  const ScheduleEvaluator& eval_;
  std::size_t probes_;
};

}  // namespace gasched::core
