#pragma once
// Task-id → task-index map for sim::Engine: an open-addressing table
// with linear probing and backward-shift deletion.
//
// The engine resolves every id a policy assigns back to its slot in the
// engine's task vector, and a federation run inserts, re-points and
// erases one entry per routed or migrated task — millions per run. A
// node-based hash map pays one heap allocation per insert and a full
// rehash on growth; this table is one flat array of 8-byte slots
// (the id plus a 32-bit index), kept at most half full, so a lookup is
// a multiply, a shift and usually one cache line.
//
// Erase shifts the rest of the probe run back instead of leaving a
// tombstone, so the table never degrades under the federation's
// insert/erase churn and needs no periodic clean-up.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "workload/task.hpp"

namespace gasched::sim {

class TaskIndex {
 public:
  /// Returned by find() for an id that is not in the table.
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  TaskIndex() { rehash(kMinCapacity); }

  /// Grows the table so `n` entries fit without another rehash.
  void reserve(std::size_t n) {
    std::size_t cap = slots_.size();
    while (cap < 2 * n) cap *= 2;
    if (cap != slots_.size()) rehash(cap);
  }

  std::size_t size() const noexcept { return size_; }

  /// Adds id → index. Returns false, and leaves the table unchanged,
  /// when `id` is already present. Throws std::length_error when `index`
  /// does not fit in 32 bits.
  bool insert(workload::TaskId id, std::size_t index) {
    const std::uint32_t value = narrow(index);
    Slot& s = probe(id);
    if (s.index != kEmpty) return false;
    s = Slot{id, value};
    ++size_;
    return true;
  }

  /// Adds id → index, or re-points an existing id at `index`. Throws
  /// std::length_error when `index` does not fit in 32 bits.
  void insert_or_assign(workload::TaskId id, std::size_t index) {
    const std::uint32_t value = narrow(index);
    Slot& s = probe(id);
    if (s.index == kEmpty) ++size_;
    s = Slot{id, value};
  }

  /// Index stored for `id`, or npos.
  std::size_t find(workload::TaskId id) const noexcept {
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.index == kEmpty) return npos;
      if (s.id == id) return s.index;
    }
  }

  /// Removes `id`. Returns false when it was not present.
  bool erase(workload::TaskId id) noexcept {
    std::size_t hole = home(id);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].index == kEmpty) return false;
      if (slots_[hole].id == id) break;
    }
    // Backward shift: pull every later entry of the probe run whose home
    // does not lie cyclically in (hole, j] into the hole.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].index != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t from_home = (j - home(slots_[j].id)) & mask_;
      if (from_home >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].index = kEmpty;
    --size_;
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    workload::TaskId id = 0;
    std::uint32_t index = kEmpty;  ///< kEmpty marks a free slot
  };
  static_assert(sizeof(Slot) == 8);

  static std::uint32_t narrow(std::size_t index) {
    if (index >= kEmpty) {
      throw std::length_error("TaskIndex: task index exceeds 32 bits");
    }
    return static_cast<std::uint32_t>(index);
  }

  /// Fibonacci hashing: dense ids spread evenly over the table.
  std::size_t home(workload::TaskId id) const noexcept {
    const std::uint64_t h =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) *
        0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h >> shift_);
  }

  /// The slot holding `id`, or the free slot where it would go. Grows
  /// first so an insert keeps the load at or below one half.
  Slot& probe(workload::TaskId id) {
    if (2 * (size_ + 1) > slots_.size()) rehash(2 * slots_.size());
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.index == kEmpty || s.id == id) return s;
    }
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Slot& s : old) {
      if (s.index == kEmpty) continue;
      std::size_t i = home(s.id);
      while (slots_[i].index != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace gasched::sim
