#include "ga/crossover.hpp"

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace gasched::ga {

namespace {

/// Per-thread operator scratch. Crossover runs on whichever thread drives
/// the GA loop (main thread, or a pool worker in island mode); giving each
/// thread its own buffers makes steady-state breeding allocation-free
/// without any locking or interface churn.
struct CrossoverScratch {
  PositionIndex pos_a;
  PositionIndex pos_b;
  std::vector<std::uint8_t> flags;  // POS: keep mask
  // CX works on the positions where the parents differ only:
  std::vector<std::size_t> diff;      // differing positions, ascending
                                      // (the first d of n entries)
  std::vector<std::uint8_t> walked;   // per differing position
  std::vector<std::uint32_t> table;   // open-addressed gene -> diff index + 1
};

CrossoverScratch& cx_scratch() {
  thread_local CrossoverScratch s;
  return s;
}

void check_parents(const Chromosome& a, const Chromosome& b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("crossover: parents must be equal non-empty");
  }
}

/// Random inclusive segment [lo, hi] within [0, n).
std::pair<std::size_t, std::size_t> random_segment(std::size_t n,
                                                   util::Rng& rng) {
  std::size_t lo = rng.index(n);
  std::size_t hi = rng.index(n);
  if (lo > hi) std::swap(lo, hi);
  return {lo, hi};
}

/// Gene -> index lookup over a's genes at the d differing positions: an
/// open-addressed table of at least 2·d buckets (a power of two), cleared
/// per call in O(d) — no index over the whole chromosome, no gene range
/// scan. Entries hold diff index + 1 (0 = empty).
class DiffIndex {
 public:
  DiffIndex(const Chromosome& a, const std::size_t* diff, std::size_t d,
            std::vector<std::uint32_t>& table)
      : a_(a), diff_(diff), table_(table) {
    unsigned bits = 4;
    while ((std::size_t{1} << bits) < 2 * d) ++bits;
    shift_ = 32 - bits;
    mask_ = (std::size_t{1} << bits) - 1;
    table_.assign(mask_ + 1, 0);
    for (std::size_t k = 0; k < d; ++k) {
      std::size_t h = bucket(a[diff[k]]);
      while (table_[h] != 0) h = (h + 1) & mask_;
      table_[h] = static_cast<std::uint32_t>(k + 1);
    }
  }

  /// Index into `diff` of the position holding `g` in a, npos if none.
  std::size_t find(Gene g) const noexcept {
    for (std::size_t h = bucket(g); table_[h] != 0; h = (h + 1) & mask_) {
      const std::size_t k = table_[h] - 1;
      if (a_[diff_[k]] == g) return k;
    }
    return PositionIndex::npos;
  }

 private:
  /// Fibonacci hashing: the top bits of the product spread contiguous and
  /// strided gene values alike.
  std::size_t bucket(Gene g) const noexcept {
    return (static_cast<std::uint32_t>(g) * 0x9E3779B1u) >> shift_;
  }

  const Chromosome& a_;
  const std::size_t* diff_;
  std::vector<std::uint32_t>& table_;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
};

}  // namespace

void CycleCrossover::apply_into(const Chromosome& a, const Chromosome& b,
                                Chromosome& c1, Chromosome& c2,
                                util::Rng& rng) const {
  apply_into_origin(a, b, c1, c2, rng);
}

ChildOrigins CycleCrossover::apply_into_origin(const Chromosome& a,
                                               const Chromosome& b,
                                               Chromosome& c1, Chromosome& c2,
                                               util::Rng& rng) const {
  check_parents(a, b);
  const std::size_t n = a.size();
  // Which parent leads the first cycle is the only random choice; cycles
  // then alternate ownership (classic CX) in order of their first position.
  const bool first_from_a = rng.bernoulli(0.5);
  c1.assign(a.begin(), a.end());
  c2.assign(b.begin(), b.end());
  // A position where the parents agree is a 1-cycle: whichever parent owns
  // it, both children keep that gene. So the children start as copies of
  // the parents and only cycles through differing positions need a walk —
  // breeding cost scales with how much a converged population still
  // differs, not with the chromosome length.
  auto& sc = cx_scratch();
  // Branch-free compaction: mismatches are rare and scattered, so a
  // data-dependent branch here would mispredict on most of them.
  if (sc.diff.size() < n) sc.diff.resize(n);
  std::size_t* diff = sc.diff.data();
  std::size_t d = 0;
  for (std::size_t i = 0; i < n; ++i) {
    diff[d] = i;
    d += a[i] != b[i] ? 1 : 0;
  }
  // Identical parents: both children are copies of a (and of b).
  if (d == 0) return {ChildOrigin::kSameAsA, ChildOrigin::kSameAsA};
  const DiffIndex index(a, diff, d, sc.table);
  sc.walked.assign(d, 0);
  std::size_t cycles = 0;  // non-trivial cycles walked so far
  std::size_t cycles_from_a = 0;
  for (std::size_t k = 0; k < d; ++k) {
    if (sc.walked[k]) continue;
    // Cycles before this one: the start - k agreeing positions ahead of
    // it plus every non-trivial cycle already walked.
    const std::size_t before = diff[k] - k + cycles;
    ++cycles;
    const bool from_a = first_from_a != ((before & 1u) != 0);
    cycles_from_a += from_a ? 1 : 0;
    // A valid cycle visits each differing position at most once; a longer
    // walk means b repeats a gene and the walk would never close.
    std::size_t j = k;
    std::size_t steps = 0;
    do {
      if (++steps > d) {
        throw std::invalid_argument("CycleCrossover: parents differ in genes");
      }
      sc.walked[j] = 1;
      const std::size_t i = diff[j];
      if (!from_a) {
        c1[i] = b[i];
        c2[i] = a[i];
      }
      j = index.find(b[i]);
      if (j == PositionIndex::npos) {
        throw std::invalid_argument("CycleCrossover: parents differ in genes");
      }
    } while (j != k);
  }
  // The parents differ, so c1 is a copy of a exactly when every cycle
  // came from a (then c2 is b), a copy of b when none did (then c2 is a),
  // and new to both otherwise.
  if (cycles_from_a == cycles) {
    return {ChildOrigin::kSameAsA, ChildOrigin::kSameAsB};
  }
  if (cycles_from_a == 0) {
    return {ChildOrigin::kSameAsB, ChildOrigin::kSameAsA};
  }
  return {ChildOrigin::kNew, ChildOrigin::kNew};
}

namespace {

/// PMX child: keeps a's segment [lo, hi]; positions outside come from b,
/// remapped through the segment until conflict-free. A gene is "in the
/// segment" exactly when its position in a falls inside [lo, hi], so the
/// position index doubles as the membership set.
void pmx_child_into(const Chromosome& a, const Chromosome& b,
                    const PositionIndex& pos_a, std::size_t lo,
                    std::size_t hi, Chromosome& child) {
  const std::size_t n = a.size();
  child.resize(n);
  for (std::size_t i = lo; i <= hi; ++i) child[i] = a[i];
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= lo && i <= hi) continue;
    Gene g = b[i];
    // Follow the mapping a[k] -> b[k] out of the segment. Terminates
    // because each hop lands on a distinct segment position.
    std::size_t guard = 0;
    for (;;) {
      const std::size_t p = pos_a.find(g);
      if (p == PositionIndex::npos || p < lo || p > hi) break;
      if (++guard > n) {
        throw std::invalid_argument("PmxCrossover: parents differ in genes");
      }
      g = b[p];
    }
    child[i] = g;
  }
}

/// OX1 child: keeps a's segment; fills remaining slots with b's genes in
/// b-order starting after the segment. Membership in the copied segment
/// is again a position-range test on a's index.
void order_child_into(const Chromosome& a, const Chromosome& b,
                      const PositionIndex& pos_a, std::size_t lo,
                      std::size_t hi, Chromosome& child) {
  const std::size_t n = a.size();
  if (hi - lo + 1 == n) {  // segment covers everything
    child.assign(a.begin(), a.end());
    return;
  }
  child.resize(n);
  for (std::size_t i = lo; i <= hi; ++i) child[i] = a[i];
  auto next_slot = [&](std::size_t w) {
    do {
      w = (w + 1) % n;
    } while (w >= lo && w <= hi);
    return w;
  };
  std::size_t write = hi;  // advanced before first use
  write = next_slot(write);
  for (std::size_t k = 0; k < n; ++k) {
    const Gene g = b[(hi + 1 + k) % n];
    const std::size_t p = pos_a.find(g);
    if (p != PositionIndex::npos && p >= lo && p <= hi) continue;  // taken
    child[write] = g;
    if (k + 1 < n) write = next_slot(write);
  }
}

}  // namespace

void PmxCrossover::apply_into(const Chromosome& a, const Chromosome& b,
                              Chromosome& c1, Chromosome& c2,
                              util::Rng& rng) const {
  check_parents(a, b);
  const auto [lo, hi] = random_segment(a.size(), rng);
  auto& sc = cx_scratch();
  sc.pos_a.build(a);
  sc.pos_b.build(b);
  pmx_child_into(a, b, sc.pos_a, lo, hi, c1);
  pmx_child_into(b, a, sc.pos_b, lo, hi, c2);
}

void OrderCrossover::apply_into(const Chromosome& a, const Chromosome& b,
                                Chromosome& c1, Chromosome& c2,
                                util::Rng& rng) const {
  check_parents(a, b);
  const auto [lo, hi] = random_segment(a.size(), rng);
  auto& sc = cx_scratch();
  sc.pos_a.build(a);
  sc.pos_b.build(b);
  order_child_into(a, b, sc.pos_a, lo, hi, c1);
  order_child_into(b, a, sc.pos_b, lo, hi, c2);
}

void PositionCrossover::apply_into(const Chromosome& a, const Chromosome& b,
                                   Chromosome& c1, Chromosome& c2,
                                   util::Rng& rng) const {
  check_parents(a, b);
  const std::size_t n = a.size();
  auto& sc = cx_scratch();
  sc.flags.resize(n);
  for (std::size_t i = 0; i < n; ++i) sc.flags[i] = rng.bernoulli(0.5);

  auto make_child = [&](const Chromosome& keep_from,
                        const Chromosome& fill_from,
                        const PositionIndex& idx_keep, Chromosome& child) {
    child.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (sc.flags[i]) child[i] = keep_from[i];
    }
    std::size_t write = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const Gene g = fill_from[k];
      const std::size_t p = idx_keep.find(g);
      if (p != PositionIndex::npos && sc.flags[p]) continue;  // kept already
      while (write < n && sc.flags[write]) ++write;
      assert(write < n);
      child[write++] = g;
    }
  };
  sc.pos_a.build(a);
  make_child(a, b, sc.pos_a, c1);
  sc.pos_b.build(b);
  make_child(b, a, sc.pos_b, c2);
}

}  // namespace gasched::ga
