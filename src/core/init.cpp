#include "core/init.hpp"

#include <numeric>

namespace gasched::core {

namespace {

/// Per-thread scratch for the list scheduler (finish times, visit order,
/// slot → processor map) so repeated starts are allocation-free.
struct ListScheduleScratch {
  std::vector<double> finish;
  std::vector<std::size_t> order;
  std::vector<std::size_t> slot_proc;
};

ListScheduleScratch& ls_scratch() {
  thread_local ListScheduleScratch s;
  return s;
}

}  // namespace

void list_schedule_flat(const ScheduleEvaluator& eval, double random_fraction,
                        util::Rng& rng, FlatSchedule& out) {
  const std::size_t M = eval.num_procs();
  const std::size_t N = eval.num_tasks();
  auto& sc = ls_scratch();
  // Finish-time accumulator per processor, starting from existing load.
  sc.finish.resize(M);
  for (std::size_t j = 0; j < M; ++j) sc.finish[j] = eval.delta(j);

  // Visit batch slots in random order so the random/EF mix is unbiased.
  sc.order.resize(N);
  std::iota(sc.order.begin(), sc.order.end(), std::size_t{0});
  rng.shuffle(sc.order);

  sc.slot_proc.resize(N);
  for (const std::size_t slot : sc.order) {
    std::size_t j;
    if (rng.bernoulli(random_fraction)) {
      j = rng.index(M);
    } else {
      j = 0;
      double best = sc.finish[0] + eval.task_cost_on(slot, 0);
      for (std::size_t k = 1; k < M; ++k) {
        const double t = sc.finish[k] + eval.task_cost_on(slot, k);
        if (t < best) {
          best = t;
          j = k;
        }
      }
    }
    sc.slot_proc[slot] = j;
    sc.finish[j] += eval.task_cost_on(slot, j);
  }
  out.assign_ordered(sc.order, sc.slot_proc, M);
}

std::vector<ga::Chromosome> initial_population(const ScheduleCodec& codec,
                                               const ScheduleEvaluator& eval,
                                               std::size_t count,
                                               double random_fraction,
                                               util::Rng& rng) {
  std::vector<ga::Chromosome> pop;
  pop.reserve(count);
  FlatSchedule flat;
  for (std::size_t i = 0; i < count; ++i) {
    list_schedule_flat(eval, random_fraction, rng, flat);
    pop.push_back(codec.encode(flat));
  }
  return pop;
}

}  // namespace gasched::core
