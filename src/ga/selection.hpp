#pragma once
// Parent selection operators. The paper (§3.3) uses weighted roulette
// wheel selection; tournament, rank, and stochastic universal sampling are
// provided for the ablation benches.

#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace gasched::ga {

/// Strategy: choose `count` population indices (with replacement) biased
/// towards fitter individuals. Fitness values are non-negative; all-zero
/// fitness degrades to uniform selection.
class SelectionOp {
 public:
  virtual ~SelectionOp() = default;
  /// Selects `count` indices into the population described by `fitness`,
  /// written into a caller-reused buffer (cleared first) so the
  /// per-generation selection is allocation-free.
  virtual void select_into(std::span<const double> fitness, std::size_t count,
                           util::Rng& rng,
                           std::vector<std::size_t>& out) const = 0;
  /// Same draw into a fresh vector: a select_into() call. Consumes the
  /// same RNG stream as select_into().
  virtual std::vector<std::size_t> select(std::span<const double> fitness,
                                          std::size_t count,
                                          util::Rng& rng) const {
    std::vector<std::size_t> out;
    select_into(fitness, count, rng, out);
    return out;
  }
  /// Operator name for reports.
  virtual std::string name() const = 0;
};

/// Index of the roulette slot `target` falls in: the first i with
/// target < prefix[i] (std::upper_bound over the non-decreasing prefix
/// sums of non-negative weights), clamped to the last slot. Requires a
/// non-empty `prefix`.
std::size_t roulette_locate(std::span<const double> prefix, double target);

/// Weighted roulette wheel (fitness-proportionate) selection: individual i
/// occupies a slot of size ς_i = F_i / Σ_j F_j (paper §3.3).
class RouletteSelection final : public SelectionOp {
 public:
  void select_into(std::span<const double> fitness, std::size_t count,
                   util::Rng& rng,
                   std::vector<std::size_t>& out) const override;
  std::string name() const override { return "roulette"; }
};

/// k-way tournament selection: the fittest of k uniform picks wins.
class TournamentSelection final : public SelectionOp {
 public:
  /// Requires k >= 1.
  explicit TournamentSelection(std::size_t k = 2);
  void select_into(std::span<const double> fitness, std::size_t count,
                   util::Rng& rng,
                   std::vector<std::size_t>& out) const override;
  std::string name() const override;

 private:
  std::size_t k_;
};

/// Linear rank selection: probability proportional to rank (worst = 1).
class RankSelection final : public SelectionOp {
 public:
  void select_into(std::span<const double> fitness, std::size_t count,
                   util::Rng& rng,
                   std::vector<std::size_t>& out) const override;
  std::string name() const override { return "rank"; }
};

/// Stochastic universal sampling: `count` equally spaced pointers over the
/// roulette wheel — lower selection variance than repeated roulette spins.
class SusSelection final : public SelectionOp {
 public:
  void select_into(std::span<const double> fitness, std::size_t count,
                   util::Rng& rng,
                   std::vector<std::size_t>& out) const override;
  std::string name() const override { return "sus"; }
};

}  // namespace gasched::ga
