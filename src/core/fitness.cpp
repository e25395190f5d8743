#include "core/fitness.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/rebalance.hpp"

namespace gasched::core {

ScheduleEvaluator::ScheduleEvaluator(std::vector<double> task_sizes,
                                     const sim::SystemView& view,
                                     bool use_comm, NumericMode)
    : size_(std::move(task_sizes)) {
  if (view.procs.empty()) {
    throw std::invalid_argument("ScheduleEvaluator: empty system view");
  }
  rate_.reserve(view.size());
  delta_.reserve(view.size());
  comm_.reserve(view.size());
  double total_rate = 0.0;
  double sum_delta = 0.0;
  for (const auto& p : view.procs) {
    if (!(p.rate > 0.0)) {
      throw std::invalid_argument("ScheduleEvaluator: non-positive rate");
    }
    rate_.push_back(p.rate);
    const double d = p.pending_mflops / p.rate;
    delta_.push_back(d);
    sum_delta += d;
    comm_.push_back(use_comm ? p.comm_estimate : 0.0);
    total_rate += p.rate;
  }
  double total_work = 0.0;
  for (const double t : size_) {
    if (!(t > 0.0)) {
      throw std::invalid_argument("ScheduleEvaluator: non-positive task size");
    }
    total_work += t;
  }
  // ψ = Σ_i t_i / Σ_j P_j + Σ_j δ_j  (paper §3.2).
  psi_ = total_work / total_rate + sum_delta;

  // Per-(processor, slot) cost table: the division and comm add are
  // loop-invariant per processor, so hoist them out of every pricing loop
  // once here. Each entry is the exact double the defining expression
  // produces, so table-served pricing is bit-identical to the original
  // per-slot arithmetic.
  const std::size_t N = size_.size();
  cost_.resize(N * rate_.size());
  for (std::size_t j = 0; j < rate_.size(); ++j) {
    double* row = cost_.data() + j * N;
    const double rate = rate_[j];
    const double comm = comm_[j];
    for (std::size_t slot = 0; slot < N; ++slot) {
      row[slot] = size_[slot] / rate + comm;
    }
  }
}

double ScheduleEvaluator::completion_time(
    std::size_t j, std::span<const std::size_t> queue) const {
  double c = delta_[j];
  const double* cost = cost_.data() + j * size_.size();
  for (const std::size_t slot : queue) {
    c += cost[slot];
  }
  return c;
}

double ScheduleEvaluator::makespan(const FlatSchedule& schedule) const {
  double m = 0.0;
  for (std::size_t j = 0; j < schedule.num_procs(); ++j) {
    m = std::max(m, completion_time(j, schedule.queue(j)));
  }
  return m;
}

double ScheduleEvaluator::relative_error(const FlatSchedule& schedule) const {
  double sum_sq = 0.0;
  for (std::size_t j = 0; j < schedule.num_procs(); ++j) {
    const double dev = psi_ - completion_time(j, schedule.queue(j));
    sum_sq += dev * dev;
  }
  return std::sqrt(sum_sq);
}

namespace {

double fitness_of_error(double e) {
  if (e <= 1.0) return 1.0;  // F = 1/E clamped into [0, 1]
  return 1.0 / e;
}

}  // namespace

double ScheduleEvaluator::fitness(const FlatSchedule& schedule) const {
  return fitness_of_error(relative_error(schedule));
}

BatchEvaluation ScheduleEvaluator::evaluate(
    const FlatSchedule& schedule) const {
  double m = 0.0;
  double sum_sq = 0.0;
  for (std::size_t j = 0; j < schedule.num_procs(); ++j) {
    const double cj = completion_time(j, schedule.queue(j));
    m = std::max(m, cj);
    const double dev = psi_ - cj;
    sum_sq += dev * dev;
  }
  const double e = std::sqrt(sum_sq);
  return {fitness_of_error(e), m, e};
}

BatchEvaluation ScheduleEvaluator::reduce(QueueLoads& loads) const {
  // The reductions are always reassembled in ascending j from the cached
  // per-queue values — never adjusted incrementally — so a delta re-price
  // reduces the exact same doubles in the exact same order as a full
  // pricing: bit-identical sum_sq, makespan, and first-argmax.
  double m = 0.0;
  double sum_sq = 0.0;
  std::size_t heavy = 0;
  double heavy_time = -1.0;
  for (std::size_t j = 0; j < loads.completion.size(); ++j) {
    const double cj = loads.completion[j];
    m = std::max(m, cj);
    sum_sq += loads.dev_sq[j];
    if (cj > heavy_time) {
      heavy_time = cj;
      heavy = j;
    }
  }
  loads.sum_sq = sum_sq;
  loads.max_completion = m;
  loads.heaviest = heavy;
  const double e = std::sqrt(sum_sq);
  loads.eval = {fitness_of_error(e), m, e};
  return loads.eval;
}

void ScheduleEvaluator::reprice_queue(const FlatSchedule& schedule,
                                      QueueLoads& loads,
                                      std::size_t j) const {
  const double cj = completion_time(j, schedule.queue(j));
  loads.completion[j] = cj;
  const double dev = psi_ - cj;
  loads.dev_sq[j] = dev * dev;
}

BatchEvaluation ScheduleEvaluator::load(const FlatSchedule& schedule,
                                        QueueLoads& out) const {
  const std::size_t M = schedule.num_procs();
  out.completion.resize(M);
  out.dev_sq.resize(M);
  for (std::size_t j = 0; j < M; ++j) {
    reprice_queue(schedule, out, j);
  }
  return reduce(out);
}

BatchEvaluation ScheduleEvaluator::load_decoded(const ScheduleCodec& codec,
                                                const ga::Chromosome& c,
                                                FlatSchedule& schedule,
                                                QueueLoads& out) const {
  // The codec's decode walk with the pricing fused in: as each slot lands
  // in its queue its cost is added to that queue's running C_j — the same
  // left-to-right, queue-order summation completion_time() performs, so
  // the result is bit-identical to decode_into + load in one pass over
  // the chromosome.
  const std::size_t M = codec.num_procs();
  const std::size_t N = size_.size();
  out.completion.resize(M);
  double* completion = out.completion.data();
  for (std::size_t j = 0; j < M; ++j) completion[j] = delta_[j];
  const double* cost = cost_.data();
  codec.decode_walk(c, schedule, [=](std::size_t proc, std::size_t slot) {
    completion[proc] += cost[proc * N + slot];
  });
  out.dev_sq.resize(M);
  for (std::size_t j = 0; j < M; ++j) {
    const double dev = psi_ - out.completion[j];
    out.dev_sq[j] = dev * dev;
  }
  return reduce(out);
}

BatchEvaluation ScheduleEvaluator::evaluate_swap(const FlatSchedule& schedule,
                                                 QueueLoads& loads,
                                                 std::size_t qa,
                                                 std::size_t qb) const {
  reprice_queue(schedule, loads, qa);
  if (qb != qa) reprice_queue(schedule, loads, qb);
  return reduce(loads);
}

BatchEvaluation ScheduleEvaluator::evaluate_move(const FlatSchedule& schedule,
                                                 QueueLoads& loads,
                                                 std::size_t from,
                                                 std::size_t to) const {
  return evaluate_swap(schedule, loads, from, to);
}

namespace {

/// True when the reduced sum of the candidate's dev_sq terms is provably
/// >= `base_sum`, the reduced sum of the cached terms, where the candidate
/// replaces cached terms summing to `old_terms` with ones summing to
/// `new_terms` (each pair summed in one rounding). All terms are
/// non-negative squares and both full sums are left-to-right over `m`
/// terms, so each lies within γ_{m−1}·T of its exact sum T; the margin
/// 8(m+4)u·(S_b + new + old) covers twice that plus the rounding of the
/// difference itself. Undecided (false) whenever the margin is not a
/// normal number — which includes inf and NaN inputs.
bool provably_not_smaller(double base_sum, double old_terms, double new_terms,
                          std::size_t m) {
  constexpr double kUnitRoundoff = 0x1p-53;
  const double margin = 8.0 * (static_cast<double>(m) + 4.0) *
                        kUnitRoundoff * (base_sum + new_terms + old_terms);
  return margin >= std::numeric_limits<double>::min() &&
         new_terms - old_terms > margin;
}

}  // namespace

std::optional<BatchEvaluation> ScheduleEvaluator::evaluate_swap_filtered(
    const FlatSchedule& schedule, QueueLoads& loads, std::size_t qa,
    std::size_t qb) const {
  const double old_terms =
      qb == qa ? loads.dev_sq[qa] : loads.dev_sq[qa] + loads.dev_sq[qb];
  reprice_queue(schedule, loads, qa);
  if (qb != qa) reprice_queue(schedule, loads, qb);
  const double new_terms =
      qb == qa ? loads.dev_sq[qa] : loads.dev_sq[qa] + loads.dev_sq[qb];
  // F = min(1, 1/sqrt(sum_sq)) never increases with sum_sq (sqrt and the
  // division are monotone in floating point), so a candidate whose sum is
  // not smaller cannot be strictly fitter.
  if (provably_not_smaller(loads.sum_sq, old_terms, new_terms,
                           loads.dev_sq.size())) {
    return std::nullopt;
  }
  return reduce(loads);
}

ScheduleProblem::ScheduleProblem(const ScheduleCodec& codec,
                                 const ScheduleEvaluator& eval,
                                 std::size_t rebalance_probes)
    : codec_(codec), eval_(eval), probes_(rebalance_probes) {}

double ScheduleProblem::fitness(const ga::Chromosome& c) const {
  return evaluate(c, nullptr).fitness;
}

double ScheduleProblem::objective(const ga::Chromosome& c) const {
  return evaluate(c, nullptr).objective;
}

ga::GaProblem::Evaluation ScheduleProblem::evaluate(const ga::Chromosome& c,
                                                    Workspace* ws) const {
  if (ws == nullptr) {
    EvalWorkspace local;
    return evaluate(c, &local);
  }
  auto& w = static_cast<EvalWorkspace&>(*ws);
  const BatchEvaluation e =
      eval_.load_decoded(codec_, c, w.schedule, w.loads);
  return {e.fitness, e.makespan};
}

std::unique_ptr<ga::GaProblem::Workspace> ScheduleProblem::make_workspace()
    const {
  return std::make_unique<EvalWorkspace>();
}

bool ScheduleProblem::improve(ga::Chromosome& c, util::Rng& rng,
                              Workspace* ws) const {
  if (ws == nullptr) {
    EvalWorkspace local;
    return rebalance_once(c, codec_, eval_, rng, probes_, local);
  }
  return rebalance_once(c, codec_, eval_, rng, probes_,
                        static_cast<EvalWorkspace&>(*ws));
}

}  // namespace gasched::core
