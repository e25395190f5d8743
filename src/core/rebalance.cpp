#include "core/rebalance.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace gasched::core {

namespace {

/// Publishes the evaluation of the chromosome as this pass leaves it, so
/// the engine can skip its evaluation sweep (see GaProblem::Workspace).
void supply_evaluation(EvalWorkspace& ws, const BatchEvaluation& e) {
  ws.improve_evaluation = {e.fitness, e.makespan};
  ws.has_improve_evaluation = true;
}

/// The part of a QueueLoads that a two-queue delta re-price overwrites,
/// saved so a rejected probe can put it back in O(1).
class SwapUndo {
 public:
  SwapUndo(const QueueLoads& l, std::size_t qa, std::size_t qb)
      : qa_(qa),
        qb_(qb),
        completion_a_(l.completion[qa]),
        completion_b_(l.completion[qb]),
        dev_a_(l.dev_sq[qa]),
        dev_b_(l.dev_sq[qb]),
        sum_sq_(l.sum_sq),
        max_completion_(l.max_completion),
        heaviest_(l.heaviest),
        eval_(l.eval) {}

  void restore(QueueLoads& l) const {
    l.completion[qa_] = completion_a_;
    l.completion[qb_] = completion_b_;
    l.dev_sq[qa_] = dev_a_;
    l.dev_sq[qb_] = dev_b_;
    l.sum_sq = sum_sq_;
    l.max_completion = max_completion_;
    l.heaviest = heaviest_;
    l.eval = eval_;
  }

 private:
  std::size_t qa_, qb_;
  double completion_a_, completion_b_;
  double dev_a_, dev_b_;
  double sum_sq_, max_completion_;
  std::size_t heaviest_;
  BatchEvaluation eval_;
};

}  // namespace

bool rebalance_once(ga::Chromosome& c, const ScheduleCodec& codec,
                    const ScheduleEvaluator& eval, util::Rng& rng,
                    std::size_t probes, EvalWorkspace& ws) {
  FlatSchedule& s = ws.schedule;
  // A carried workspace already holds the decode and per-queue loads of
  // `c` (GaProblem::Workspace::describes_chromosome; every path below
  // leaves them describing `c` as returned). Otherwise fused decode + full
  // pricing fills both in one pass (heaviest processor, base fitness).
  const BatchEvaluation base =
      ws.describes_chromosome ? ws.loads.eval
                              : eval.load_decoded(codec, c, s, ws.loads);
  const std::size_t M = s.num_procs();
  if (M < 2) return false;

  // Most heavily loaded processor = largest estimated finish time.
  const std::size_t heavy = ws.loads.heaviest;
  if (s.queue(heavy).empty()) {
    supply_evaluation(ws, base);
    return false;
  }

  // Up to `probes` random searches for a smaller task on another processor.
  for (std::size_t probe = 0; probe < probes; ++probe) {
    const std::size_t other = rng.index(M);
    if (other == heavy || s.queue(other).empty()) continue;
    const auto other_q = s.queue(other);
    const auto heavy_q = s.queue(heavy);
    const std::size_t oi = rng.index(other_q.size());
    const std::size_t hi = rng.index(heavy_q.size());
    const std::size_t small_slot = other_q[oi];
    const std::size_t big_slot = heavy_q[hi];
    if (!(eval.task_size(small_slot) < eval.task_size(big_slot))) continue;

    // Candidate: swap the two tasks between queues, in place, and
    // delta-price only the two changed queues against the cached loads.
    // Most probes lose; the filtered form rejects a provably-not-fitter
    // candidate without reducing over all M queues, and reduces exactly
    // before any accept.
    std::swap(other_q[oi], heavy_q[hi]);
    const SwapUndo undo(ws.loads, other, heavy);
    const std::optional<BatchEvaluation> cand =
        eval.evaluate_swap_filtered(s, ws.loads, other, heavy);
    if (cand && cand->fitness > base.fitness) {
      // Apply the swap directly on the chromosome: exchange the two genes.
      const ga::Gene g_small = ScheduleCodec::task_gene(small_slot);
      const ga::Gene g_big = ScheduleCodec::task_gene(big_slot);
      for (auto& g : c) {
        if (g == g_small) {
          g = g_big;
        } else if (g == g_big) {
          g = g_small;
        }
      }
      // The swapped flat schedule is exactly the decode of the swapped
      // chromosome, so `cand` is its full-pricing evaluation.
      supply_evaluation(ws, *cand);
      return true;
    }
    // Found a smaller task but the swap was not fitter: the chromosome is
    // unchanged, so its evaluation is the base pricing. Undo the swap, the
    // two re-priced queues and any reduction so the workspace describes
    // `c` again.
    std::swap(other_q[oi], heavy_q[hi]);
    undo.restore(ws.loads);
    supply_evaluation(ws, base);
    return false;
  }
  supply_evaluation(ws, base);
  return false;
}

bool rebalance_once(ga::Chromosome& c, const ScheduleCodec& codec,
                    const ScheduleEvaluator& eval, util::Rng& rng,
                    std::size_t probes) {
  EvalWorkspace ws;
  return rebalance_once(c, codec, eval, rng, probes, ws);
}

}  // namespace gasched::core
