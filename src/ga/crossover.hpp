#pragma once
// Permutation crossover operators. The paper (§3.3) uses cycle crossover
// (Oliver, Smith & Holland 1987); PMX, order (OX1), and position-based
// crossover are provided for the ablation benches. All operators require
// both parents to be permutations of the same distinct gene set and
// guarantee the children are too.

#include <cstdint>
#include <string>
#include <utility>

#include "ga/chromosome.hpp"
#include "util/rng.hpp"

namespace gasched::ga {

/// What a crossover child is, gene for gene, relative to its parents.
enum class ChildOrigin : std::uint8_t {
  kUnknown,  ///< the operator does not know (callers compare themselves)
  kSameAsA,  ///< child == a
  kSameAsB,  ///< child == b and child != a
  kNew,      ///< child equals neither parent
};

/// Origins of the two children of one apply_into_origin() call.
struct ChildOrigins {
  ChildOrigin first = ChildOrigin::kUnknown;   ///< of c1
  ChildOrigin second = ChildOrigin::kUnknown;  ///< of c2
};

/// Strategy: combine two parent permutations into two children.
class CrossoverOp {
 public:
  virtual ~CrossoverOp() = default;
  /// Writes two children into `c1`/`c2` (resized; buffer capacity is
  /// reused, so steady-state breeding is allocation-free). The children
  /// must not alias the parents. Parents must share the same gene set.
  virtual void apply_into(const Chromosome& a, const Chromosome& b,
                          Chromosome& c1, Chromosome& c2,
                          util::Rng& rng) const = 0;
  /// apply_into() that also reports each child's origin, so a caller that
  /// treats copies of a parent specially (the GA engine keeps their
  /// evaluation) can skip comparing the children against the parents.
  /// Same children, same RNG stream as apply_into(). A reported origin
  /// other than kUnknown must be exact. The default reports kUnknown for
  /// both; an operator that learns the answer while breeding overrides it.
  virtual ChildOrigins apply_into_origin(const Chromosome& a,
                                         const Chromosome& b, Chromosome& c1,
                                         Chromosome& c2,
                                         util::Rng& rng) const {
    apply_into(a, b, c1, c2, rng);
    return {};
  }
  /// Convenience wrapper returning freshly allocated children.
  std::pair<Chromosome, Chromosome> apply(const Chromosome& a,
                                          const Chromosome& b,
                                          util::Rng& rng) const {
    std::pair<Chromosome, Chromosome> out;
    apply_into(a, b, out.first, out.second, rng);
    return out;
  }
  /// Operator name for reports.
  virtual std::string name() const = 0;
};

/// Cycle crossover (CX): children inherit each position from one parent,
/// alternating ownership between the permutation cycles of (a, b). Every
/// gene keeps a position it held in one of its parents. Reports exact
/// child origins: a child is a copy of a parent exactly when every
/// non-trivial cycle went the same way.
class CycleCrossover final : public CrossoverOp {
 public:
  void apply_into(const Chromosome& a, const Chromosome& b, Chromosome& c1,
                  Chromosome& c2, util::Rng& rng) const override;
  ChildOrigins apply_into_origin(const Chromosome& a, const Chromosome& b,
                                 Chromosome& c1, Chromosome& c2,
                                 util::Rng& rng) const override;
  std::string name() const override { return "cycle"; }
};

/// Partially mapped crossover (PMX): swaps a random segment and repairs
/// conflicts through the segment's mapping.
class PmxCrossover final : public CrossoverOp {
 public:
  void apply_into(const Chromosome& a, const Chromosome& b, Chromosome& c1,
                  Chromosome& c2, util::Rng& rng) const override;
  std::string name() const override { return "pmx"; }
};

/// Order crossover (OX1): copies a random segment from one parent and
/// fills the rest in the other parent's relative order.
class OrderCrossover final : public CrossoverOp {
 public:
  void apply_into(const Chromosome& a, const Chromosome& b, Chromosome& c1,
                  Chromosome& c2, util::Rng& rng) const override;
  std::string name() const override { return "order"; }
};

/// Position-based crossover (POS): a random subset of positions is
/// inherited verbatim; remaining genes fill in the other parent's order.
class PositionCrossover final : public CrossoverOp {
 public:
  void apply_into(const Chromosome& a, const Chromosome& b, Chromosome& c1,
                  Chromosome& c2, util::Rng& rng) const override;
  std::string name() const override { return "position"; }
};

}  // namespace gasched::ga
