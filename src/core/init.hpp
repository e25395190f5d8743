#pragma once
// Initial population (paper §3.3): "The initial population is generated
// using a list scheduling heuristic. A percentage of tasks are randomly
// assigned to processors with the remaining tasks being assigned to the
// processors that will finish processing them the earliest. This leads to
// a well balanced randomised initial population."

#include <vector>

#include "core/encoding.hpp"
#include "core/fitness.hpp"
#include "util/rng.hpp"

namespace gasched::core {

/// Builds one randomised list schedule into `out` (buffers reused): each
/// batch slot is assigned randomly with probability `random_fraction`,
/// otherwise to the processor that would finish it earliest given
/// assignments so far (earliest-finish includes the evaluator's comm
/// estimates when enabled). Queue order is the (shuffled) visit order.
void list_schedule_flat(const ScheduleEvaluator& eval, double random_fraction,
                        util::Rng& rng, FlatSchedule& out);

/// Builds `count` independent list schedules encoded as chromosomes.
std::vector<ga::Chromosome> initial_population(const ScheduleCodec& codec,
                                               const ScheduleEvaluator& eval,
                                               std::size_t count,
                                               double random_fraction,
                                               util::Rng& rng);

}  // namespace gasched::core
