// Evaluation-core throughput probe: the perf-trajectory anchor behind
// BENCH_eval.json (see scripts/bench_perf.sh).
//
// Measures, on a fixed pinned-seed fixture (the micro_ga_ops batch
// fixture: heterogeneous rates/comms, tasks ~N(sizes), population 20):
//
//   generations_per_sec  GA generation throughput (paper config: 1
//                        re-balance pass per individual per generation;
//                        --passes 0 gives the ZO shape, no re-balance)
//   evals_per_sec        fitness+objective evaluations per second
//   evals_per_generation actual evaluations per generation (cached-fitness
//                        observability: 2·population without caching)
//   allocs_per_generation steady-state heap allocations per generation,
//                        counted by a global operator-new hook and
//                        differenced between a G- and a 2G-generation run
//                        so setup/teardown costs cancel
//
// No Google-Benchmark dependency: this tool must emit machine-readable
// JSON and count allocations, both of which need full control of main().

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>

#include "alloc_count.hpp"
#include "core/fitness.hpp"
#include "core/init.hpp"
#include "ga/engine.hpp"
#include "sim/policy.hpp"
#include "util/rng.hpp"

namespace {

using namespace gasched;

struct Options {
  std::size_t tasks = 200;
  std::size_t procs = 50;
  std::size_t population = 20;
  std::size_t generations = 300;
  std::size_t passes = 1;
  std::string label = "current";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto num = [&](std::size_t& out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perf_eval: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      out = std::strtoul(argv[++i], nullptr, 10);
    };
    if (std::strcmp(argv[i], "--tasks") == 0) {
      num(o.tasks);
    } else if (std::strcmp(argv[i], "--procs") == 0) {
      num(o.procs);
    } else if (std::strcmp(argv[i], "--population") == 0) {
      num(o.population);
    } else if (std::strcmp(argv[i], "--generations") == 0) {
      num(o.generations);
    } else if (std::strcmp(argv[i], "--passes") == 0) {
      num(o.passes);
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      o.label = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_eval [--tasks N] [--procs M] "
                   "[--population P] [--generations G] [--passes N] "
                   "[--label L]\n");
      std::exit(2);
    }
  }
  return o;
}

/// (wall seconds, allocations, generations, evaluations) of one GA run on
/// the pinned fixture.
std::tuple<double, unsigned long long, std::size_t, std::size_t> run_ga(
    const Options& o, const core::ScheduleCodec& codec,
    const core::ScheduleEvaluator& eval, std::size_t generations) {
  const core::ScheduleProblem problem(codec, eval);
  static const ga::RouletteSelection kSelection;
  static const ga::CycleCrossover kCrossover;
  static const ga::SwapMutation kMutation;
  ga::GaConfig cfg;
  cfg.population = o.population;
  cfg.max_generations = generations;
  cfg.improvement_passes = o.passes;  // paper: 1 re-balance per individual
  const ga::GaEngine engine(cfg, kSelection, kCrossover, kMutation);
  util::Rng init_rng(2);
  auto init =
      core::initial_population(codec, eval, o.population, 0.5, init_rng);
  util::Rng ga_rng(3);
  const auto t0 = std::chrono::steady_clock::now();
  const unsigned long long a0 = bench::allocs_total();
  const ga::GaResult r = engine.run(problem, std::move(init), ga_rng);
  const unsigned long long a1 = bench::allocs_total();
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(t1 - t0).count(), a1 - a0,
          r.generations, r.evaluations};
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  // Pinned fixture (seeds match micro_ga_ops' BatchFixture).
  util::Rng fixture_rng(1);
  std::vector<double> sizes(o.tasks);
  for (auto& v : sizes) v = fixture_rng.uniform(10.0, 1000.0);
  sim::SystemView view;
  view.procs.resize(o.procs);
  for (std::size_t j = 0; j < o.procs; ++j) {
    view.procs[j].id = static_cast<sim::ProcId>(j);
    view.procs[j].rate = fixture_rng.uniform(10.0, 100.0);
    view.procs[j].comm_estimate = fixture_rng.uniform(1.0, 50.0);
  }
  const core::ScheduleCodec codec(o.tasks, o.procs);
  const core::ScheduleEvaluator eval(std::move(sizes), view,
                                     /*use_comm=*/true);

  run_ga(o, codec, eval, o.generations);  // warm-up (code + allocator)
  const auto [t1, a1, g1, e1] = run_ga(o, codec, eval, o.generations);
  const auto [t2, a2, g2, e2] = run_ga(o, codec, eval, 2 * o.generations);
  const double gens = static_cast<double>(g2 - g1);
  const double generations_per_sec = gens / (t2 - t1);
  const double allocs_per_generation =
      static_cast<double>(a2 - a1) / gens;
  const double evals_per_generation = static_cast<double>(e2 - e1) / gens;
  const double evals_per_sec =
      static_cast<double>(e2 - e1) / (t2 - t1);

  std::printf(
      "{\"label\":\"%s\",\"tasks\":%zu,\"procs\":%zu,\"population\":%zu,"
      "\"generations\":%zu,\"passes\":%zu,\"generations_per_sec\":%.1f,"
      "\"evals_per_sec\":%.1f,\"evals_per_generation\":%.2f,"
      "\"allocs_per_generation\":%.2f}\n",
      o.label.c_str(), o.tasks, o.procs, o.population, o.generations,
      o.passes, generations_per_sec, evals_per_sec, evals_per_generation,
      allocs_per_generation);
  return 0;
}
