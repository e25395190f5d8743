// Tests for permutation crossover operators. The central property: any
// child of two permutations of the same gene set is itself a permutation
// of that gene set (exercised across operators, sizes, and seeds).

#include "ga/crossover.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

namespace gasched::ga {
namespace {

Chromosome iota_chromosome(std::size_t n) {
  Chromosome c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = static_cast<Gene>(i);
  return c;
}

/// Chromosome with negative "delimiter" genes mixed in, mirroring the
/// scheduling encoding.
Chromosome schedule_like(std::size_t tasks, std::size_t delims,
                         util::Rng& rng) {
  Chromosome c;
  for (std::size_t i = 0; i < tasks; ++i) c.push_back(static_cast<Gene>(i));
  for (std::size_t k = 0; k < delims; ++k) {
    c.push_back(-static_cast<Gene>(k) - 1);
  }
  rng.shuffle(c);
  return c;
}

using OpFactory = std::shared_ptr<CrossoverOp>;

class CrossoverContract
    : public ::testing::TestWithParam<std::tuple<OpFactory, std::size_t>> {};

TEST_P(CrossoverContract, ChildrenArePermutationsOfParents) {
  const auto& [op, n] = GetParam();
  util::Rng rng(1234 + n);
  for (int trial = 0; trial < 200; ++trial) {
    Chromosome a = schedule_like(n, n / 4 + 1, rng);
    Chromosome b = a;
    rng.shuffle(b);
    const auto [c1, c2] = op->apply(a, b, rng);
    ASSERT_EQ(c1.size(), a.size());
    ASSERT_EQ(c2.size(), a.size());
    ASSERT_TRUE(is_permutation_of_distinct(c1)) << op->name();
    ASSERT_TRUE(is_permutation_of_distinct(c2)) << op->name();
    ASSERT_TRUE(same_gene_set(c1, a)) << op->name();
    ASSERT_TRUE(same_gene_set(c2, a)) << op->name();
  }
}

TEST_P(CrossoverContract, IdenticalParentsYieldIdenticalChildren) {
  const auto& [op, n] = GetParam();
  util::Rng rng(77 + n);
  const Chromosome a = schedule_like(n, 2, rng);
  const auto [c1, c2] = op->apply(a, a, rng);
  EXPECT_EQ(c1, a);
  EXPECT_EQ(c2, a);
}

INSTANTIATE_TEST_SUITE_P(
    AllOperatorsAndSizes, CrossoverContract,
    ::testing::Combine(
        ::testing::Values(std::make_shared<CycleCrossover>(),
                          std::make_shared<PmxCrossover>(),
                          std::make_shared<OrderCrossover>(),
                          std::make_shared<PositionCrossover>()),
        ::testing::Values(std::size_t{2}, std::size_t{3}, std::size_t{8},
                          std::size_t{40}, std::size_t{150})));

TEST(CycleCrossover, PreservesPositionOwnership) {
  // CX property: every child position holds the gene one of the parents
  // had at that position.
  CycleCrossover cx;
  util::Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    Chromosome a = iota_chromosome(20);
    Chromosome b = a;
    rng.shuffle(a);
    rng.shuffle(b);
    const auto [c1, c2] = cx.apply(a, b, rng);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(c1[i] == a[i] || c1[i] == b[i]);
      EXPECT_TRUE(c2[i] == a[i] || c2[i] == b[i]);
    }
  }
}

TEST(CycleCrossover, ChildrenAreComplementary) {
  // Where c1 takes from a, c2 takes from b (and vice versa).
  CycleCrossover cx;
  util::Rng rng(6);
  Chromosome a = iota_chromosome(12);
  Chromosome b = a;
  rng.shuffle(b);
  const auto [c1, c2] = cx.apply(a, b, rng);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (c1[i] == a[i]) {
      EXPECT_EQ(c2[i], b[i]);
    } else {
      EXPECT_EQ(c1[i], b[i]);
      EXPECT_EQ(c2[i], a[i]);
    }
  }
}

TEST(CycleCrossover, MismatchedGeneSetsThrow) {
  CycleCrossover cx;
  util::Rng rng(7);
  const Chromosome a{0, 1, 2};
  const Chromosome b{0, 1, 99};
  EXPECT_THROW(cx.apply(a, b, rng), std::invalid_argument);
}

TEST(CycleCrossover, RepeatedGeneInBThrowsInsteadOfLooping) {
  // b repeats gene 1 and lacks gene 2: the walk from position 0 lands on
  // the fixed position 1 and could never return to its start. It must be
  // bounded and rejected, not spin forever.
  CycleCrossover cx;
  util::Rng rng(11);
  EXPECT_THROW(cx.apply(Chromosome{0, 1, 2}, Chromosome{1, 1, 0}, rng),
               std::invalid_argument);
  // Same defect among differing positions only.
  EXPECT_THROW(cx.apply(Chromosome{0, 1, 2, 3}, Chromosome{1, 0, 0, 2}, rng),
               std::invalid_argument);
}

/// Reference cycle crossover: the classic walk over every position with
/// a full gene -> position index, exactly as CX is usually written. The
/// library's difference-only walk must match it child for child and draw
/// for draw.
void reference_cx(const Chromosome& a, const Chromosome& b, Chromosome& c1,
                  Chromosome& c2, util::Rng& rng) {
  const std::size_t n = a.size();
  PositionIndex pos_a;
  pos_a.build(a);
  c1.assign(n, 0);
  c2.assign(n, 0);
  std::vector<std::uint8_t> done(n, 0);
  bool from_a = rng.bernoulli(0.5);
  for (std::size_t start = 0; start < n; ++start) {
    if (done[start]) continue;
    std::size_t i = start;
    do {
      done[i] = 1;
      c1[i] = from_a ? a[i] : b[i];
      c2[i] = from_a ? b[i] : a[i];
      i = pos_a.find(b[i]);
    } while (i != start);
    from_a = !from_a;
  }
}

/// Runs both implementations from the same RNG state and asserts equal
/// children and equal RNG state afterwards.
void expect_matches_reference(const Chromosome& a, const Chromosome& b,
                              std::uint64_t seed) {
  CycleCrossover cx;
  util::Rng rng_lib(seed);
  util::Rng rng_ref(seed);
  Chromosome c1, c2, r1, r2;
  cx.apply_into(a, b, c1, c2, rng_lib);
  reference_cx(a, b, r1, r2, rng_ref);
  ASSERT_EQ(c1, r1) << "n=" << a.size() << " seed=" << seed;
  ASSERT_EQ(c2, r2) << "n=" << a.size() << " seed=" << seed;
  for (int k = 0; k < 4; ++k) {
    ASSERT_EQ(rng_lib.next_u64(), rng_ref.next_u64()) << "rng state diverged";
  }
}

TEST(CycleCrossover, MatchesReferenceOnRandomPermutations) {
  util::Rng rng(12);
  for (std::size_t n = 1; n <= 300; ++n) {
    Chromosome a = iota_chromosome(n);
    Chromosome b = a;
    rng.shuffle(a);
    rng.shuffle(b);
    expect_matches_reference(a, b, 1000 + n);
  }
}

TEST(CycleCrossover, MatchesReferenceOnNearIdenticalParents) {
  // The converged-population case: parents a few transpositions apart.
  util::Rng rng(13);
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 1 + rng.index(300);
    Chromosome a = iota_chromosome(n);
    rng.shuffle(a);
    Chromosome b = a;
    const std::size_t swaps = rng.index(9);  // 0..8 transpositions
    for (std::size_t s = 0; s < swaps; ++s) {
      std::swap(b[rng.index(n)], b[rng.index(n)]);
    }
    expect_matches_reference(a, b, 5000 + static_cast<std::uint64_t>(trial));
  }
}

TEST(CycleCrossover, MatchesReferenceOnScheduleChromosomes) {
  // Task genes plus negative delimiter genes, as the scheduler encodes.
  util::Rng rng(14);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t tasks = 1 + rng.index(250);
    const std::size_t delims = rng.index(60);
    Chromosome a = schedule_like(tasks, delims, rng);
    Chromosome b = a;
    if (trial % 2 == 0) {
      rng.shuffle(b);
    } else {
      for (std::size_t s = rng.index(9); s > 0; --s) {
        std::swap(b[rng.index(b.size())], b[rng.index(b.size())]);
      }
    }
    expect_matches_reference(a, b, 9000 + static_cast<std::uint64_t>(trial));
  }
}

TEST(Crossover, UnequalLengthsThrow) {
  CycleCrossover cx;
  PmxCrossover pmx;
  util::Rng rng(8);
  const Chromosome a{0, 1, 2};
  const Chromosome b{0, 1};
  EXPECT_THROW(cx.apply(a, b, rng), std::invalid_argument);
  EXPECT_THROW(pmx.apply(a, b, rng), std::invalid_argument);
}

TEST(Crossover, EmptyParentsThrow) {
  OrderCrossover ox;
  util::Rng rng(9);
  EXPECT_THROW(ox.apply({}, {}, rng), std::invalid_argument);
}

TEST(Crossover, ProducesNovelOffspringOnDifferentParents) {
  // Statistical: across many trials, at least some children must differ
  // from both parents (operators genuinely recombine).
  util::Rng rng(10);
  for (const OpFactory& op :
       {OpFactory(std::make_shared<CycleCrossover>()),
        OpFactory(std::make_shared<PmxCrossover>()),
        OpFactory(std::make_shared<OrderCrossover>()),
        OpFactory(std::make_shared<PositionCrossover>())}) {
    int novel = 0;
    for (int trial = 0; trial < 50; ++trial) {
      Chromosome a = iota_chromosome(30);
      Chromosome b = a;
      rng.shuffle(a);
      rng.shuffle(b);
      const auto [c1, c2] = op->apply(a, b, rng);
      if (c1 != a && c1 != b) ++novel;
      if (c2 != a && c2 != b) ++novel;
    }
    EXPECT_GT(novel, 10) << op->name();
  }
}

// --- child origin reports ---------------------------------------------------

/// The truth the engine used to compute itself: compare with the parents,
/// a first.
ChildOrigin origin_by_compare(const Chromosome& child, const Chromosome& a,
                              const Chromosome& b) {
  if (child == a) return ChildOrigin::kSameAsA;
  if (child == b) return ChildOrigin::kSameAsB;
  return ChildOrigin::kNew;
}

/// apply_into_origin must breed exactly what apply_into breeds, draw for
/// draw, and its reported origins must equal the comparison truth.
/// Returns the reported origins for coverage counting.
ChildOrigins expect_origin_truth(const CrossoverOp& op, const Chromosome& a,
                                 const Chromosome& b, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Rng rng_plain(seed);
  Chromosome c1, c2, p1, p2;
  const ChildOrigins o = op.apply_into_origin(a, b, c1, c2, rng);
  op.apply_into(a, b, p1, p2, rng_plain);
  EXPECT_EQ(c1, p1) << op.name() << " seed " << seed;
  EXPECT_EQ(c2, p2) << op.name() << " seed " << seed;
  EXPECT_EQ(rng.next_u64(), rng_plain.next_u64()) << "rng state diverged";
  if (o.first != ChildOrigin::kUnknown) {
    EXPECT_EQ(o.first, origin_by_compare(c1, a, b)) << "seed " << seed;
  }
  if (o.second != ChildOrigin::kUnknown) {
    EXPECT_EQ(o.second, origin_by_compare(c2, a, b)) << "seed " << seed;
  }
  return o;
}

TEST(CycleCrossoverOrigin, MatchesComparisonOnConvergedAndRandomParents) {
  CycleCrossover cx;
  util::Rng rng(21);
  int same_a = 0, same_b = 0, fresh = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng.index(250);
    Chromosome a = trial % 3 == 0 ? schedule_like(n, rng.index(50), rng)
                                  : iota_chromosome(n);
    rng.shuffle(a);
    Chromosome b = a;
    if (trial % 7 == 0) {
      rng.shuffle(b);  // unrelated parents: many cycles
    } else {
      // Converged parents: 0..3 transpositions, so one or two cycles
      // and identical parents come up often.
      for (std::size_t s = rng.index(4); s > 0; --s) {
        std::swap(b[rng.index(b.size())], b[rng.index(b.size())]);
      }
    }
    const ChildOrigins o =
        expect_origin_truth(cx, a, b, 30000 + static_cast<std::uint64_t>(trial));
    ASSERT_NE(o.first, ChildOrigin::kUnknown);
    ASSERT_NE(o.second, ChildOrigin::kUnknown);
    for (const ChildOrigin x : {o.first, o.second}) {
      same_a += x == ChildOrigin::kSameAsA ? 1 : 0;
      same_b += x == ChildOrigin::kSameAsB ? 1 : 0;
      fresh += x == ChildOrigin::kNew ? 1 : 0;
    }
  }
  EXPECT_GT(same_a, 100);
  EXPECT_GT(same_b, 100);
  EXPECT_GT(fresh, 100);
}

TEST(CycleCrossoverOrigin, IdenticalParentsAreCopiesOfA) {
  CycleCrossover cx;
  util::Rng rng(22);
  for (const std::size_t n : {1, 2, 99, 249}) {
    Chromosome a = iota_chromosome(n);
    rng.shuffle(a);
    const ChildOrigins o = expect_origin_truth(cx, a, a, n);
    EXPECT_EQ(o.first, ChildOrigin::kSameAsA);
    EXPECT_EQ(o.second, ChildOrigin::kSameAsA);
  }
}

TEST(CycleCrossoverOrigin, SingleTranspositionFollowsTheCycleOwner) {
  // One transposition is one 2-cycle: the children are the parents, in
  // order or swapped, depending on the single ownership draw.
  CycleCrossover cx;
  const Chromosome a{0, 1, 2, 3, 4, 5};
  const Chromosome b{0, 1, 4, 3, 2, 5};
  bool saw_in_order = false, saw_swapped = false;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const ChildOrigins o = expect_origin_truth(cx, a, b, seed);
    if (o.first == ChildOrigin::kSameAsA) {
      EXPECT_EQ(o.second, ChildOrigin::kSameAsB);
      saw_in_order = true;
    } else {
      EXPECT_EQ(o.first, ChildOrigin::kSameAsB);
      EXPECT_EQ(o.second, ChildOrigin::kSameAsA);
      saw_swapped = true;
    }
  }
  EXPECT_TRUE(saw_in_order);
  EXPECT_TRUE(saw_swapped);
}

TEST(CrossoverOrigin, OperatorsWithoutAReportSayUnknown) {
  util::Rng rng(23);
  for (const OpFactory& op : {OpFactory(std::make_shared<PmxCrossover>()),
                              OpFactory(std::make_shared<OrderCrossover>()),
                              OpFactory(std::make_shared<PositionCrossover>())}) {
    for (int trial = 0; trial < 20; ++trial) {
      Chromosome a = iota_chromosome(40);
      Chromosome b = a;
      rng.shuffle(a);
      rng.shuffle(b);
      const ChildOrigins o = expect_origin_truth(
          *op, a, b, 40000 + static_cast<std::uint64_t>(trial));
      EXPECT_EQ(o.first, ChildOrigin::kUnknown) << op->name();
      EXPECT_EQ(o.second, ChildOrigin::kUnknown) << op->name();
    }
  }
}

}  // namespace
}  // namespace gasched::ga
