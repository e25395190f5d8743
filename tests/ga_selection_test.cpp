// Tests for selection operators: bias toward fitness, degeneracy handling,
// and the paper's roulette slot definition ς_i = F_i / Σ F_j.

#include "ga/selection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <vector>

namespace gasched::ga {
namespace {

std::map<std::size_t, int> histogram(const std::vector<std::size_t>& picks) {
  std::map<std::size_t, int> h;
  for (const auto p : picks) ++h[p];
  return h;
}

TEST(Roulette, ProportionalToFitness) {
  RouletteSelection sel;
  util::Rng rng(1);
  // Individual 1 has 3x the fitness of individual 0.
  const std::vector<double> fitness{1.0, 3.0};
  const auto picks = sel.select(fitness, 100000, rng);
  const auto h = histogram(picks);
  EXPECT_NEAR(static_cast<double>(h.at(1)) / 100000.0, 0.75, 0.01);
}

TEST(Roulette, ZeroFitnessFallsBackToUniform) {
  RouletteSelection sel;
  util::Rng rng(2);
  const std::vector<double> fitness{0.0, 0.0, 0.0, 0.0};
  const auto picks = sel.select(fitness, 40000, rng);
  const auto h = histogram(picks);
  for (const auto& [idx, count] : h) {
    EXPECT_NEAR(static_cast<double>(count) / 40000.0, 0.25, 0.02);
  }
}

TEST(Roulette, NegativeFitnessTreatedAsZero) {
  RouletteSelection sel;
  util::Rng rng(3);
  const std::vector<double> fitness{-5.0, 1.0};
  const auto picks = sel.select(fitness, 10000, rng);
  const auto h = histogram(picks);
  EXPECT_EQ(h.count(0), 0u);  // index 0 never selected
}

TEST(Roulette, EmptyPopulationThrows) {
  RouletteSelection sel;
  util::Rng rng(4);
  EXPECT_THROW(sel.select({}, 1, rng), std::invalid_argument);
}

TEST(Roulette, SingleIndividualAlwaysChosen) {
  RouletteSelection sel;
  util::Rng rng(5);
  const std::vector<double> fitness{0.7};
  for (const auto p : sel.select(fitness, 100, rng)) EXPECT_EQ(p, 0u);
}

TEST(Tournament, StrictlyPrefersFitterWithLargeK) {
  TournamentSelection sel(8);
  util::Rng rng(6);
  const std::vector<double> fitness{0.1, 0.2, 0.9, 0.3};
  const auto picks = sel.select(fitness, 10000, rng);
  const auto h = histogram(picks);
  // With k=8 over 4 individuals the best is almost always in the sample.
  EXPECT_GT(h.at(2), 9000);
}

TEST(Tournament, KOneIsUniform) {
  TournamentSelection sel(1);
  util::Rng rng(7);
  const std::vector<double> fitness{0.1, 100.0};
  const auto picks = sel.select(fitness, 40000, rng);
  const auto h = histogram(picks);
  EXPECT_NEAR(static_cast<double>(h.at(0)) / 40000.0, 0.5, 0.02);
}

TEST(Tournament, RejectsZeroK) {
  EXPECT_THROW(TournamentSelection(0), std::invalid_argument);
}

TEST(Rank, BiasDependsOnOrderNotMagnitude) {
  RankSelection sel;
  util::Rng rng(8);
  // Huge fitness gap — rank selection must not be swamped by it.
  const std::vector<double> fitness{1.0, 1e9};
  const auto picks = sel.select(fitness, 60000, rng);
  const auto h = histogram(picks);
  // Ranks 1 and 2 => probabilities 1/3 and 2/3.
  EXPECT_NEAR(static_cast<double>(h.at(1)) / 60000.0, 2.0 / 3.0, 0.02);
}

TEST(Sus, ProportionalAndLowVariance) {
  SusSelection sel;
  util::Rng rng(9);
  const std::vector<double> fitness{1.0, 1.0, 2.0};
  // A single SUS draw of 4 picks should deterministically include the
  // high-fitness individual at least twice w.h.p. — run many draws and
  // check overall proportions tightly.
  std::map<std::size_t, int> h;
  const int draws = 2000;
  for (int d = 0; d < draws; ++d) {
    for (const auto p : sel.select(fitness, 4, rng)) ++h[p];
  }
  const double total = 4.0 * draws;
  EXPECT_NEAR(h[2] / total, 0.5, 0.02);
  EXPECT_NEAR(h[0] / total, 0.25, 0.02);
}

TEST(Sus, ZeroTotalFallsBackToUniform) {
  SusSelection sel;
  util::Rng rng(10);
  const std::vector<double> fitness{0.0, 0.0};
  const auto picks = sel.select(fitness, 1000, rng);
  EXPECT_EQ(picks.size(), 1000u);
}

class SelectionContract
    : public ::testing::TestWithParam<std::shared_ptr<SelectionOp>> {};

TEST_P(SelectionContract, ReturnsRequestedCountOfValidIndices) {
  auto sel = GetParam();
  util::Rng rng(11);
  const std::vector<double> fitness{0.2, 0.8, 0.5, 0.0, 0.9};
  const auto picks = sel->select(fitness, 333, rng);
  ASSERT_EQ(picks.size(), 333u);
  for (const auto p : picks) ASSERT_LT(p, fitness.size());
}

TEST_P(SelectionContract, NeverSelectsStrictlyWorstAlwaysOverBest) {
  // Weak sanity: across many draws, the best individual is picked at
  // least as often as the worst.
  auto sel = GetParam();
  util::Rng rng(12);
  const std::vector<double> fitness{0.01, 0.5, 0.99};
  const auto picks = sel->select(fitness, 30000, rng);
  const auto h = histogram(picks);
  const int best = h.count(2) ? h.at(2) : 0;
  const int worst = h.count(0) ? h.at(0) : 0;
  EXPECT_GE(best, worst);
}

TEST_P(SelectionContract, SelectDrawsWhatSelectIntoDraws) {
  // select() is select_into() into a fresh vector: same picks, same
  // stream consumed. select_into() clears a reused buffer first.
  auto sel = GetParam();
  util::Rng ra(13), rb(13);
  const std::vector<double> fitness{0.3, 0.1, 0.7, 0.0, 0.4, 0.9};
  std::vector<std::size_t> reused(50, 99);
  for (int round = 0; round < 3; ++round) {
    const auto picks = sel->select(fitness, 17, ra);
    sel->select_into(fitness, 17, rb, reused);
    EXPECT_EQ(picks, reused) << "round " << round;
  }
  EXPECT_EQ(ra.next_u64(), rb.next_u64());
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, SelectionContract,
    ::testing::Values(std::make_shared<RouletteSelection>(),
                      std::make_shared<TournamentSelection>(2),
                      std::make_shared<TournamentSelection>(4),
                      std::make_shared<RankSelection>(),
                      std::make_shared<SusSelection>()));

/// The binary search roulette_locate replaced.
std::size_t upper_bound_locate(const std::vector<double>& prefix,
                               double target) {
  const auto it = std::upper_bound(prefix.begin(), prefix.end(), target);
  return std::min<std::size_t>(static_cast<std::size_t>(it - prefix.begin()),
                               prefix.size() - 1);
}

TEST(RouletteLocate, MatchesUpperBound) {
  util::Rng rng(31);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = 1 + rng.index(40);
    std::vector<double> prefix(n);
    double acc = 0.0;
    for (auto& p : prefix) {
      // Zero-fitness entries (repeated prefix values) are common.
      acc += rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 2.0);
      p = acc;
    }
    std::vector<double> targets = {0.0, acc, acc * 2.0 + 1.0, -1.0,
                                   std::nan("")};
    for (const double p : prefix) {
      targets.push_back(p);
      targets.push_back(std::nextafter(p, -1.0));
      targets.push_back(std::nextafter(p, 1e300));
    }
    for (int k = 0; k < 8; ++k) targets.push_back(rng.uniform(0.0, acc));
    for (const double t : targets) {
      ASSERT_EQ(roulette_locate(prefix, t), upper_bound_locate(prefix, t))
          << "trial " << trial << " target " << t;
    }
  }
}

TEST(RouletteLocate, AllZeroAndInfiniteWeights) {
  const std::vector<double> zeros(7, 0.0);
  for (const double t : {0.0, -0.5, 0.5}) {
    EXPECT_EQ(roulette_locate(zeros, t), upper_bound_locate(zeros, t));
  }
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> with_inf = {1.0, 2.0, inf, inf};
  for (const double t : {0.5, 2.0, 3.0, inf, std::nan("")}) {
    EXPECT_EQ(roulette_locate(with_inf, t), upper_bound_locate(with_inf, t));
  }
}

}  // namespace
}  // namespace gasched::ga
