// Tests for the deterministic RNG layer: reproducibility, stream
// independence, and distributional sanity of every sampler.

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace gasched::util {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(splitmix64_next(s1), splitmix64_next(s2));
  }
}

TEST(Xoshiro, SameSeedSameStream) {
  Xoshiro256StarStar a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256StarStar a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Xoshiro, LongJumpChangesState) {
  Xoshiro256StarStar a(7), b(7);
  b.long_jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(2);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-5.0, 17.0);
    ASSERT_GE(v, -5.0);
    ASSERT_LT(v, 17.0);
  }
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(4);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.uniform_int(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-10, -3);
    ASSERT_GE(v, -10);
    ASSERT_LE(v, -3);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(7);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, NormalTruncatedRespectsFloor) {
  Rng rng(8);
  for (int i = 0; i < 50000; ++i) {
    ASSERT_GE(rng.normal_truncated(5.0, 10.0, 0.5), 0.5);
  }
}

TEST(Rng, NormalTruncatedPathologicalFloorStillTerminates) {
  Rng rng(9);
  // Floor far above the mean: rejection would essentially never succeed.
  const double v = rng.normal_truncated(0.0, 1.0, 100.0);
  EXPECT_GE(v, 100.0);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(10);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) ASSERT_GT(rng.exponential(1.0), 0.0);
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MeanAndVarianceMatch) {
  const double mean = GetParam();
  Rng rng(static_cast<std::uint64_t>(mean * 1000) + 1);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = static_cast<double>(rng.poisson(mean));
    sum += v;
    sum_sq += v * v;
  }
  const double m = sum / n;
  const double var = sum_sq / n - m * m;
  EXPECT_NEAR(m, mean, std::max(0.05, 0.03 * mean));
  // Poisson: variance == mean.
  EXPECT_NEAR(var, mean, std::max(0.2, 0.08 * mean));
}

INSTANTIATE_TEST_SUITE_P(SmallAndLargeMeans, PoissonMeanTest,
                         ::testing::Values(0.5, 2.0, 10.0, 29.0, 31.0, 100.0,
                                           400.0));

TEST(Rng, PoissonZeroMeanGivesZero) {
  Rng rng(12);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-3.0), 0u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  const Rng base(99);
  Rng a = base.split(0);
  Rng b = base.split(1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitIsDeterministic) {
  const Rng base(99);
  Rng a = base.split(17);
  Rng b = base.split(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, IndexStaysInBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(rng.index(17), 17u);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliFrequencyMatches) {
  Rng rng(15);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(17);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  const auto orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
}

TEST(Rng, ShuffleHandlesDegenerateSizes) {
  Rng rng(18);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

// --- Rng::index: pinned stream and the division-free path -----------------

/// FNV-1a over the little-endian bytes of each value.
std::uint64_t fnv1a(const std::vector<std::uint64_t>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t v : values) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct PinnedIndexStream {
  std::uint64_t seed;
  std::uint64_t n;
  std::uint64_t first[6];  ///< first six outputs
  std::uint64_t digest;    ///< fnv1a of the first 64 outputs
  std::uint64_t next_raw;  ///< next_u64() after the 64 draws
};

// Recorded from the modulo implementation of index() (uniform_int with a
// division for the rejection limit and another for the remainder) before
// the division-free path existed. n spans the table's edges (1, 256), the
// GA's own sizes (20, 50, 99, 249) and the fallback (257, 1000, 2^32 − 1).
constexpr PinnedIndexStream kPinnedIndex[] = {
    {42, 1, {0, 0, 0, 0, 0, 0}, 0x218035740d3f1b83ULL, 0x125c1354bb1738f2ULL},
    {42, 2, {0, 0, 1, 1, 0, 0}, 0xf79ed5953c3fa402ULL, 0x125c1354bb1738f2ULL},
    {42, 3, {0, 0, 2, 2, 1, 0}, 0xd0cfdc5fa2bb00e3ULL, 0x125c1354bb1738f2ULL},
    {42, 7, {2, 1, 5, 4, 4, 1}, 0x8a1c93e6f5fc7a40ULL, 0x125c1354bb1738f2ULL},
    {42, 17, {1, 14, 11, 15, 7, 4}, 0xd7f9c480d434492cULL, 0x125c1354bb1738f2ULL},
    {42, 20, {2, 2, 9, 13, 16, 4}, 0xf87716c143fb4704ULL, 0x125c1354bb1738f2ULL},
    {42, 50, {42, 2, 9, 43, 26, 34}, 0x8602a80abf49c780ULL, 0x125c1354bb1738f2ULL},
    {42, 99, {33, 18, 2, 5, 82, 27}, 0x4837b4b23a1f1302ULL, 0x125c1354bb1738f2ULL},
    {42, 249, {12, 174, 212, 167, 85, 201}, 0xce251291295da740ULL, 0x125c1354bb1738f2ULL},
    {42, 256, {22, 126, 161, 161, 100, 56}, 0x8cbe9d117709bc2cULL, 0x125c1354bb1738f2ULL},
    {42, 257, {248, 57, 252, 87, 157, 51}, 0x290f870a4284e00aULL, 0x125c1354bb1738f2ULL},
    {42, 1000, {742, 102, 9, 193, 476, 584}, 0xfb907fa47b58a28dULL, 0x125c1354bb1738f2ULL},
    {42, 4294967295ULL, {564580932, 3457553412, 3892047059, 4033613288, 3771939556, 3330733929}, 0x7b7a75c79eb7a4c7ULL, 0x125c1354bb1738f2ULL},
    {0x9E3779B97F4A7C15ULL, 1, {0, 0, 0, 0, 0, 0}, 0x218035740d3f1b83ULL, 0xb4ceb0156aeba211ULL},
    {0x9E3779B97F4A7C15ULL, 2, {0, 0, 0, 1, 1, 1}, 0x174f4714c60421e2ULL, 0xb4ceb0156aeba211ULL},
    {0x9E3779B97F4A7C15ULL, 3, {1, 2, 1, 2, 2, 1}, 0x486939fb864fde01ULL, 0xb4ceb0156aeba211ULL},
    {0x9E3779B97F4A7C15ULL, 7, {6, 5, 2, 5, 4, 2}, 0xb4f8a093a5a575a0ULL, 0xb4ceb0156aeba211ULL},
    {0x9E3779B97F4A7C15ULL, 17, {16, 1, 13, 4, 14, 14}, 0xf24b15668e07584cULL, 0xb4ceb0156aeba211ULL},
    {0x9E3779B97F4A7C15ULL, 20, {12, 12, 2, 13, 7, 7}, 0x940ae111f0738b64ULL, 0xb4ceb0156aeba211ULL},
    {0x9E3779B97F4A7C15ULL, 50, {2, 12, 12, 33, 27, 37}, 0x95f6a8d697010308ULL, 0xb4ceb0156aeba211ULL},
    {0x9E3779B97F4A7C15ULL, 99, {7, 17, 73, 65, 32, 55}, 0xc2907fc48b57f4a2ULL, 0xb4ceb0156aeba211ULL},
    {0x9E3779B97F4A7C15ULL, 249, {163, 218, 49, 218, 170, 160}, 0x5ce1eec7d0a5ff37ULL, 0xb4ceb0156aeba211ULL},
    {0x9E3779B97F4A7C15ULL, 256, {16, 40, 182, 189, 219, 47}, 0xc172c13e6cd87b28ULL, 0xb4ceb0156aeba211ULL},
    {0x9E3779B97F4A7C15ULL, 257, {236, 174, 61, 38, 220, 87}, 0x04f7457309f0f93bULL, 0xb4ceb0156aeba211ULL},
    {0x9E3779B97F4A7C15ULL, 1000, {552, 312, 62, 533, 827, 87}, 0x276f3780a6e65a97ULL, 0xb4ceb0156aeba211ULL},
    {0x9E3779B97F4A7C15ULL, 4294967295ULL, {314972497, 2492520842, 3977208187, 4000321973, 301683782, 1445013427}, 0x5ff2c225d6426633ULL, 0xb4ceb0156aeba211ULL},
};

TEST(RngIndex, PinnedStreamMatchesModuloImplementation) {
  for (const PinnedIndexStream& p : kPinnedIndex) {
    Rng rng(p.seed);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 64; ++i) out.push_back(rng.index(p.n));
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)], p.first[i])
          << "seed " << p.seed << " n " << p.n << " draw " << i;
    }
    EXPECT_EQ(fnv1a(out), p.digest) << "seed " << p.seed << " n " << p.n;
    EXPECT_EQ(rng.next_u64(), p.next_raw) << "seed " << p.seed << " n " << p.n;
  }
}

TEST(RngIndex, EqualsUniformIntDrawForDraw) {
  // Same values and the same raw-draw consumption as uniform_int(0, n-1)
  // on both sides of the table's upper edge.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng a(seed * 7919 + 1);
    Rng b(seed * 7919 + 1);
    for (std::size_t n = 1; n <= 300; ++n) {
      for (int k = 0; k < 8; ++k) {
        ASSERT_EQ(a.index(n),
                  static_cast<std::size_t>(
                      b.uniform_int(0, static_cast<std::int64_t>(n) - 1)))
            << "seed " << seed << " n " << n;
      }
    }
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "stream diverged, seed " << seed;
  }
}

#ifdef __SIZEOF_INT128__
// The table is a constant expression: evaluated by the compiler, so it
// exists before any dynamic initializer runs.
static_assert(detail::kIndexTable[7].limit ==
              ~std::uint64_t{0} - ~std::uint64_t{0} % 7);
static_assert(detail::fastmod(100, detail::kIndexTable[7].magic, 7) == 2);

TEST(RngIndex, TableLimitsMatchUniformIntRejection) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (std::uint64_t n = 1; n <= detail::kIndexTableMax; ++n) {
    ASSERT_EQ(detail::kIndexTable[n].limit, kMax - kMax % n) << n;
  }
}

TEST(RngIndex, FastmodMatchesModuloOnBoundaryDraws) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  Rng rng(99);
  for (std::uint64_t n = 1; n <= detail::kIndexTableMax; ++n) {
    const detail::IndexConstants& k = detail::kIndexTable[n];
    std::vector<std::uint64_t> xs = {0,        1,        n - 1,   n,
                                     n + 1,    k.limit - 1, k.limit,
                                     k.limit + 1, kMax - 1, kMax};
    // Multiples of n and their neighbours, small and near the top.
    for (const std::uint64_t m :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{1000},
          kMax / n, kMax / n - 1, kMax / (2 * n)}) {
      const std::uint64_t kn = m * n;
      xs.insert(xs.end(), {kn - 1, kn, kn + 1});
    }
    for (int r = 0; r < 64; ++r) xs.push_back(rng.next_u64());
    for (const std::uint64_t x : xs) {
      ASSERT_EQ(detail::fastmod(x, k.magic, n), x % n)
          << "x " << x << " n " << n;
    }
  }
}
#endif

}  // namespace
}  // namespace gasched::util
