#pragma once
// Deterministic random number generation for reproducible simulations.
//
// The simulator, workload generators, and genetic algorithm all consume
// randomness from `gasched::util::Rng`, a thin wrapper around the
// xoshiro256** 1.0 generator (Blackman & Vigna). Every experiment run is
// seeded explicitly; replications derive independent substreams via
// `Rng::split`, so results are bit-reproducible regardless of the number
// of worker threads used to execute them.

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace gasched::util {

namespace detail {
/// 64-bit left rotation by k in [1, 63].
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace detail

/// SplitMix64 step: used for seeding and stream derivation.
/// Returns the next value of the SplitMix64 sequence and advances `state`.
std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG with 256-bit state.
///
/// Satisfies the C++ UniformRandomBitGenerator concept so it can be used
/// with <random> distributions, though `Rng` supplies its own inverse-CDF
/// based samplers to guarantee identical streams across standard-library
/// implementations.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words by iterating SplitMix64 from `seed`.
  explicit Xoshiro256StarStar(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Smallest value `operator()` can return (0).
  static constexpr result_type min() noexcept { return 0; }
  /// Largest value `operator()` can return (2^64 - 1).
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Generates the next 64 random bits.
  result_type operator()() noexcept {
    const std::uint64_t result = detail::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = detail::rotl(s_[3], 45);
    return result;
  }

  /// Equivalent to 2^128 calls to operator(); used to derive
  /// non-overlapping parallel streams.
  void long_jump() noexcept;

 private:
  std::uint64_t s_[4];
};

namespace detail {

#ifdef __SIZEOF_INT128__
/// Largest n served by the division-free Rng::index path. Every draw the
/// paper's GA makes fits: M = 50 processors, population 20, chromosome
/// length H + M − 1 ≤ 249.
inline constexpr std::size_t kIndexTableMax = 256;

/// Per-n constants of Rng::index: the rejection limit uniform_int
/// computes with a division on every call, and the magic number of
/// Lemire, Kaser & Kurz's direct remainder ("Faster Remainder by Direct
/// Computation", 2019): magic = ⌊(2^128 − 1) / n⌋ + 1, which makes
/// fastmod(x, magic, n) == x % n for every 64-bit x.
struct IndexConstants {
  std::uint64_t limit = 0;  ///< draws >= limit are rejected
  unsigned __int128 magic = 0;
};

/// x % n without a division (Lemire, Kaser & Kurz, fastmod_u64): the
/// low 128 bits of magic · x are the fraction x / n, and multiplying that
/// fraction by n leaves the remainder in the top bits. Exact for every x
/// when magic = ⌊(2^128 − 1) / n⌋ + 1 (n = 1 wraps magic to 0, giving 0).
constexpr std::uint64_t fastmod(std::uint64_t x, unsigned __int128 magic,
                                std::uint64_t n) noexcept {
  const unsigned __int128 frac = magic * x;
  const unsigned __int128 lo = static_cast<std::uint64_t>(frac);
  const unsigned __int128 hi = frac >> 64;
  return static_cast<std::uint64_t>((((lo * n) >> 64) + hi * n) >> 64);
}

constexpr std::array<IndexConstants, kIndexTableMax + 1> make_index_table() {
  std::array<IndexConstants, kIndexTableMax + 1> t{};
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (std::uint64_t n = 1; n <= kIndexTableMax; ++n) {
    t[n].limit = kMax - kMax % n;
    t[n].magic = ~static_cast<unsigned __int128>(0) / n + 1;
  }
  return t;
}

/// Constant-initialized (no dynamic initializer), so Rng::index is safe
/// to call during other translation units' static initialization.
inline constexpr std::array<IndexConstants, kIndexTableMax + 1> kIndexTable =
    make_index_table();
#endif

}  // namespace detail

/// High-level RNG facade with portable, reproducible samplers.
///
/// All distribution sampling used in gasched goes through this class. The
/// samplers are implemented directly (not via std:: distributions) so that
/// a given (seed, call sequence) produces identical values on every
/// platform and standard library.
class Rng {
 public:
  /// Creates a generator seeded with `seed`.
  explicit Rng(std::uint64_t seed = 1) noexcept;

  /// Derives an independent child stream. Children of the same parent with
  /// different `stream` tags are statistically independent of each other
  /// and of the parent.
  Rng split(std::uint64_t stream) const noexcept;

  /// Next raw 64 random bits.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in the closed range [lo, hi]. Requires lo <= hi.
  /// Avoids modulo bias by rejection: with range = hi − lo + 1, draws at
  /// or above the largest multiple of range representable in 64 bits are
  /// redrawn, and the result is lo + draw % range.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal deviate (Box–Muller, both values used).
  double normal() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Normal deviate truncated below at `lo` (resampled; `lo` must be
  /// plausible for the distribution — guarded with a shift fallback after
  /// 64 rejections to stay O(1) in pathological configurations).
  double normal_truncated(double mean, double stddev, double lo) noexcept;

  /// Exponential deviate with the given mean (= 1/rate). Requires mean > 0.
  double exponential(double mean) noexcept;

  /// Poisson deviate with the given mean. Uses Knuth's product method for
  /// small means and the PTRS transformed-rejection method of Hörmann for
  /// large means, both deterministic given the stream.
  std::uint64_t poisson(double mean) noexcept;

  /// Random index in [0, n). Requires n > 0.
  ///
  /// Exactly uniform_int(0, n − 1): the same value from the same draws,
  /// consuming the same number of raw draws, for every stream and every
  /// n. For n ≤ detail::kIndexTableMax (compilers with 128-bit integers)
  /// the rejection limit comes from a compile-time table and the
  /// remainder from detail::fastmod, so the draw costs no division;
  /// larger n take uniform_int itself.
  std::size_t index(std::size_t n) noexcept {
#ifdef __SIZEOF_INT128__
    if (n - 1 < detail::kIndexTableMax) {
      const detail::IndexConstants& k = detail::kIndexTable[n];
      std::uint64_t draw;
      do {
        draw = gen_();
      } while (draw >= k.limit);
      return static_cast<std::size_t>(detail::fastmod(draw, k.magic, n));
    }
#endif
    return static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Fisher–Yates shuffle of an arbitrary sequence.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const std::size_t j = index(i + 1);
      using std::swap;
      swap(v[i], v[j]);
    }
  }

 private:
  Xoshiro256StarStar gen_;
  std::uint64_t seed_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace gasched::util
