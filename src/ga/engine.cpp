#include "ga/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace gasched::ga {

GaEngine::GaEngine(GaConfig cfg, const SelectionOp& selection,
                   const CrossoverOp& crossover, const MutationOp& mutation)
    : cfg_(cfg),
      selection_(selection),
      crossover_(crossover),
      mutation_(mutation) {
  if (cfg_.population < 2) {
    throw std::invalid_argument("GaEngine: population must be >= 2");
  }
}

namespace {

/// Double-buffered population storage. Chromosomes, cached evaluations,
/// dirty flags, and per-slot improve workspaces live in parallel arrays;
/// generation transitions swap the buffers so chromosome capacity is
/// reused instead of reallocated.
struct PopulationBuffer {
  std::vector<Chromosome> chrom;
  std::vector<double> fitness;
  std::vector<double> objective;
  std::vector<std::uint8_t> dirty;
  /// One improve workspace per slot (empty when no improvement passes
  /// run; entries are null when the problem has no workspace). See
  /// GaProblem::Workspace::describes_chromosome.
  std::vector<std::unique_ptr<GaProblem::Workspace>> ws;

  explicit PopulationBuffer(std::size_t n)
      : chrom(n), fitness(n, 0.0), objective(n, 0.0), dirty(n, 1) {}

  /// Slot `i`, which already holds a copy of individual `src_i` of `src`,
  /// becomes a clean copy: it takes the cached evaluation and moves the
  /// improve workspace along. The slot's stale workspace goes back to
  /// `src` in its place, no longer describing anything there.
  void adopt(std::size_t i, PopulationBuffer& src, std::size_t src_i) {
    fitness[i] = src.fitness[src_i];
    objective[i] = src.objective[src_i];
    dirty[i] = 0;
    if (!ws.empty()) {
      std::swap(ws[i], src.ws[src_i]);
      src.forget(src_i);
    }
  }

  /// Copies individual `src_i` of `src` into slot `i` (clean copy; no
  /// re-evaluation or re-decode needed).
  void copy_from(std::size_t i, PopulationBuffer& src, std::size_t src_i) {
    chrom[i].assign(src.chrom[src_i].begin(), src.chrom[src_i].end());
    adopt(i, src, src_i);
  }

  /// Slot `i` holds a chromosome its workspace does not describe.
  void forget(std::size_t i) {
    if (!ws.empty() && ws[i] != nullptr) ws[i]->describes_chromosome = false;
  }
};

}  // namespace

GaResult GaEngine::run(const GaProblem& problem,
                       std::vector<Chromosome> initial, util::Rng& rng,
                       const StopPredicate& stop,
                       std::vector<Chromosome>* final_population) const {
  EvaluatedPopulation seed;
  seed.chrom = std::move(initial);
  if (final_population == nullptr) {
    return run_seeded(problem, std::move(seed), rng, stop, nullptr);
  }
  EvaluatedPopulation out;
  GaResult r = run_seeded(problem, std::move(seed), rng, stop, &out);
  *final_population = std::move(out.chrom);
  return r;
}

GaResult GaEngine::run_seeded(const GaProblem& problem,
                              EvaluatedPopulation initial, util::Rng& rng,
                              const StopPredicate& stop,
                              EvaluatedPopulation* final_population) const {
  if (initial.chrom.empty()) {
    throw std::invalid_argument("GaEngine::run: empty initial population");
  }
  const std::size_t P = cfg_.population;
  // Pad/truncate to the configured population size by cycling the seeds,
  // installing any cached evaluations instead of dirtying the slot.
  PopulationBuffer pop(P);
  const std::size_t n = initial.chrom.size();
  for (std::size_t i = 0; i < P; ++i) {
    const std::size_t src = i % n;
    pop.chrom[i] = initial.chrom[src];
    if (src < initial.cached.size() && initial.cached[src] != 0 &&
        src < initial.eval.size()) {
      pop.fitness[i] = initial.eval[src].fitness;
      pop.objective[i] = initial.eval[src].objective;
      pop.dirty[i] = 0;
    }
  }
  PopulationBuffer next(P);
  if (cfg_.improvement_passes > 0) {
    for (PopulationBuffer* b : {&pop, &next}) {
      b->ws.resize(P);
      for (auto& w : b->ws) w = problem.make_workspace();
    }
  }

  GaResult result;

  // One workspace for all evaluation sweeps.
  std::unique_ptr<GaProblem::Workspace> eval_ws = problem.make_workspace();
  std::vector<std::size_t> dirty_idx;
  dirty_idx.reserve(P);
  std::vector<GaProblem::Evaluation> dirty_eval;
  dirty_eval.reserve(P);

  auto evaluate_all = [&] {
    // Evaluate only dirty individuals; cached entries are bit-identical
    // to a re-evaluation because evaluate() is pure. The sweep routes
    // through evaluate_batch so a problem (or a wrapper around one) can
    // price or observe the dirty block at once; the default
    // evaluate_batch is a plain evaluate() loop.
    dirty_idx.clear();
    for (std::size_t i = 0; i < P; ++i) {
      if (pop.dirty[i]) dirty_idx.push_back(i);
    }
    dirty_eval.resize(dirty_idx.size());
    if (!dirty_idx.empty()) {
      problem.evaluate_batch(pop.chrom, dirty_idx, eval_ws.get(),
                             dirty_eval.data());
    }
    for (std::size_t k = 0; k < dirty_idx.size(); ++k) {
      const std::size_t i = dirty_idx[k];
      pop.fitness[i] = dirty_eval[k].fitness;
      pop.objective[i] = dirty_eval[k].objective;
      pop.dirty[i] = 0;
    }
    result.evaluations += dirty_idx.size();
    // Best-so-far reduction in index order, so ties keep the first
    // chromosome.
    for (std::size_t i = 0; i < P; ++i) {
      if (pop.objective[i] < result.best_objective) {
        result.best_objective = pop.objective[i];
        result.best_fitness = pop.fitness[i];
        result.best = pop.chrom[i];
      }
    }
  };

  // Diversity sampling draws from a derived stream so that enabling
  // statistics cannot perturb the evolution's own randomness.
  util::Rng stats_rng = rng.split(0x57A7);
  auto record_stats = [&](std::size_t gen) {
    if (!cfg_.record_stats) return;
    result.stats_history.push_back(summarize_generation(
        gen, pop.chrom, pop.fitness, pop.objective, cfg_.diversity_pairs,
        stats_rng));
  };

  evaluate_all();
  if (cfg_.record_history) {
    result.objective_history.reserve(cfg_.max_generations + 1);
    result.objective_history.push_back(result.best_objective);
  }
  record_stats(0);

  std::vector<std::size_t> parents;
  parents.reserve(P);

#ifndef NDEBUG
  // Debug invariant (docs/evaluation.md): breeding only permutes genes.
  // The sorted copies reuse their buffers, so the check allocates nothing
  // in steady state and the allocation probes hold in Debug builds too.
  Chromosome sorted_parent;
  Chromosome sorted_child;
  auto check_permutation = [&](const Chromosome& child,
                               const Chromosome& parent, const char* op) {
    sorted_parent.assign(parent.begin(), parent.end());
    sorted_child.assign(child.begin(), child.end());
    std::sort(sorted_parent.begin(), sorted_parent.end());
    std::sort(sorted_child.begin(), sorted_child.end());
    if (sorted_child != sorted_parent) {
      throw std::logic_error(std::string("GaEngine: ") + op +
                             " broke the parents' gene set");
    }
  };
#endif

  // A crossover child identical to a parent is a clean copy of it:
  // evaluation is pure, so the parent's cached evaluation (and decoded
  // improve state) is bit-identical to recomputing it. In a converged
  // micro GA most children are such copies. An operator that reports the
  // children's origin spares the comparisons; for kUnknown the engine
  // compares itself.
  auto origin_by_compare = [&](std::size_t i, std::size_t pa,
                               std::size_t pb) {
    if (next.chrom[i] == pop.chrom[pa]) return ChildOrigin::kSameAsA;
    if (next.chrom[i] == pop.chrom[pb]) return ChildOrigin::kSameAsB;
    return ChildOrigin::kNew;
  };
  auto settle_child = [&](std::size_t i, std::size_t pa, std::size_t pb,
                          ChildOrigin origin) {
#ifndef NDEBUG
    check_permutation(next.chrom[i], pop.chrom[pa], "crossover");
    if (origin != ChildOrigin::kUnknown &&
        origin != origin_by_compare(i, pa, pb)) {
      throw std::logic_error("GaEngine: " + crossover_.name() +
                             " crossover reported a wrong child origin");
    }
#endif
    if (origin == ChildOrigin::kUnknown) origin = origin_by_compare(i, pa, pb);
    if (origin == ChildOrigin::kSameAsA) {
      next.adopt(i, pop, pa);
    } else if (origin == ChildOrigin::kSameAsB) {
      next.adopt(i, pop, pb);
    } else {
      next.dirty[i] = 1;
      next.forget(i);
    }
  };

  std::size_t stall = 0;
  for (std::size_t gen = 0; gen < cfg_.max_generations; ++gen) {
    if (cfg_.target_objective > 0.0 &&
        result.best_objective <= cfg_.target_objective) {
      break;
    }
    if (cfg_.stall_generations > 0 && stall >= cfg_.stall_generations) break;
    if (stop && stop(gen, result.best_objective)) break;
    const double best_before = result.best_objective;

    // --- selection: breed the next generation from fitness weights ------
    selection_.select_into(pop.fitness, P, rng, parents);
    for (std::size_t i = 0; i + 1 < parents.size(); i += 2) {
      const std::size_t pa = parents[i];
      const std::size_t pb = parents[i + 1];
      if (rng.bernoulli(cfg_.crossover_rate)) {
        const ChildOrigins origin = crossover_.apply_into_origin(
            pop.chrom[pa], pop.chrom[pb], next.chrom[i], next.chrom[i + 1],
            rng);
        settle_child(i, pa, pb, origin.first);
        settle_child(i + 1, pa, pb, origin.second);
      } else {
        // Survivors keep their parents' cached evaluations.
        next.copy_from(i, pop, pa);
        next.copy_from(i + 1, pop, pb);
      }
    }
    if ((parents.size() & 1u) != 0) {
      next.copy_from(P - 1, pop, parents.back());  // odd population size
    }

    // --- random mutation -------------------------------------------------
    for (std::size_t m = 0; m < cfg_.mutants_per_generation; ++m) {
      const std::size_t victim = rng.index(P);
      mutation_.apply(next.chrom[victim], rng);
#ifndef NDEBUG
      check_permutation(next.chrom[victim], pop.chrom[parents[victim]],
                        "mutation");
#endif
      next.dirty[victim] = 1;
      next.forget(victim);
    }

    // --- local improvement (re-balancing heuristic) ----------------------
    // Always serial: improve() consumes the evolution's RNG stream.
    // A pass that fully prices the chromosome may publish that evaluation
    // through the workspace channel; the engine installs it (the contract
    // guarantees bit-identity with evaluate()) so improved individuals
    // skip the evaluation sweep entirely. A captured evaluation is
    // discarded if a later pass changes the chromosome without supplying.
    // Each slot improves through its own carried workspace, which after
    // every pass describes the chromosome as the pass left it.
    if (cfg_.improvement_passes > 0) {
      for (std::size_t i = 0; i < P; ++i) {
        GaProblem::Workspace* iws = next.ws[i].get();
        bool changed_any = false;
        bool have = false;
        GaProblem::Evaluation supplied;
        for (std::size_t r = 0; r < cfg_.improvement_passes; ++r) {
          if (iws != nullptr) iws->has_improve_evaluation = false;
          const bool changed =
              problem.improve(next.chrom[i], rng, iws);
          changed_any |= changed;
          if (iws != nullptr) iws->describes_chromosome = true;
          if (iws != nullptr && iws->has_improve_evaluation) {
            have = true;
            supplied = iws->improve_evaluation;
          } else if (changed) {
            have = false;
          }
        }
        if (have) {
          next.fitness[i] = supplied.fitness;
          next.objective[i] = supplied.objective;
          next.dirty[i] = 0;
        } else if (changed_any) {
          next.dirty[i] = 1;
        }
      }
    }

    // --- elitism ----------------------------------------------------------
    if (cfg_.elitism && !result.best.empty()) {
      // Replace the first slot with the incumbent best; cheap and keeps
      // the population size fixed. Its evaluation is already cached.
      next.chrom[0].assign(result.best.begin(), result.best.end());
      next.fitness[0] = result.best_fitness;
      next.objective[0] = result.best_objective;
      next.dirty[0] = 0;
      next.forget(0);
    }

    std::swap(pop, next);
    evaluate_all();
    ++result.generations;
    if (result.best_objective < best_before) {
      stall = 0;
    } else {
      ++stall;
    }
    if (cfg_.record_history) {
      result.objective_history.push_back(result.best_objective);
    }
    record_stats(result.generations);
  }
  if (final_population != nullptr) {
    // Every slot is clean here (evaluate_all is the last act of each
    // generation), so the export carries a full evaluation cache.
    final_population->eval.resize(P);
    final_population->cached.assign(P, 1);
    for (std::size_t i = 0; i < P; ++i) {
      final_population->eval[i] = {pop.fitness[i], pop.objective[i]};
    }
    final_population->chrom = std::move(pop.chrom);
  }
  return result;
}

}  // namespace gasched::ga
