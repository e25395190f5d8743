#pragma once
// Scalable event core: an indexed calendar/bucket priority queue sized
// for millions of pending events (Brown 1988, adapted).
//
// The paper's §3 protocol only needs tens of processors, so the engine
// historically ran on one std::priority_queue. At cloud scale — thousands
// of processors, millions of tasks, several federated engines — the event
// set itself becomes the hot data structure. CalendarQueue provides:
//
//  * **O(1) amortised insert and pop.** Events hash into time buckets of
//    width ~the mean inter-event gap; each bucket holds a short sorted
//    intrusive list, and the dequeue cursor walks buckets in calendar
//    order. The bucket count doubles/halves with occupancy, and a
//    re-width rebuild fires when walk/scan work per operation degrades —
//    the event-time spread can drift at constant size (the hold pattern:
//    a wide preload collapsing to a dense moving front) — so both
//    triggers amortise the relink across the operations that paid for it.
//  * **Arena-allocated events.** Nodes live in one contiguous slab with
//    an intrusive free list: zero per-event heap allocation in steady
//    state (slots are recycled), and reserve() pre-sizes the slab so even
//    the warm-up allocates O(log n) times. A rebuild allocates one
//    transient buffer (its quartile workspace), so allocations scale
//    with rebuilds, not with events.
//  * **Generation-stamped O(1) cancellation.** push() returns a Handle
//    {slot, generation}; cancel() unlinks the node directly — no
//    tombstones, no scans, and a stale handle (slot already recycled)
//    is detected by its generation and safely refused.
//  * **Exact FIFO tie-break.** Every push stamps a monotonically
//    increasing sequence number; pops are strictly ordered by
//    (time, seq), so simultaneous events dequeue in push order — the
//    contract the engine's determinism (and every golden figure CSV)
//    is built on. A correct calendar queue and a binary heap are
//    observationally identical under this total order, which is what
//    lets sim::Engine adopt it with byte-identical results.
//
// Times must be finite and non-negative (simulation clocks only).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace gasched::sim {

/// Calendar/bucket min-priority queue over (time, push-order). `Payload`
/// is any movable value type carried alongside the timestamp.
template <class Payload>
class CalendarQueue {
  static constexpr std::uint32_t kNull = 0xFFFFFFFFu;
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 22;

 public:
  /// Ticket for one pushed event; valid until the event is popped or
  /// cancelled. Slot recycling bumps the generation, so a stale handle
  /// never cancels somebody else's event.
  struct Handle {
    std::uint32_t slot = kNull;
    std::uint32_t gen = 0;
  };

  CalendarQueue() { rebuild(kMinBuckets); }

  /// Pre-sizes the arena for `n` concurrently-pending events.
  void reserve(std::size_t n) { arena_.reserve(n); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Inserts an event. O(1) amortised. `time` must be finite and >= 0.
  Handle push(SimTime time, Payload payload) {
    if (!(time >= 0.0) || !std::isfinite(time)) {
      throw std::invalid_argument(
          "CalendarQueue: event time must be finite and non-negative");
    }
    const std::uint32_t slot = allocate();
    Node& n = arena_[slot];
    n.time = time;
    n.seq = next_seq_++;
    n.payload = std::move(payload);
    link(slot);
    ++size_;
    if (min_ == kNull || before(slot, min_)) set_cursor(slot);
    maybe_resize();
    return Handle{slot, arena_[slot].gen};
  }

  /// Earliest event's timestamp. Requires !empty().
  SimTime top_time() const { return arena_[min_].time; }

  /// Earliest event's payload. Requires !empty().
  const Payload& top() const { return arena_[min_].payload; }

  /// Removes the earliest event. Requires !empty().
  void pop() {
    const std::uint32_t slot = min_;
    unlink(slot);
    release(slot);
    --size_;
    min_ = kNull;
    if (size_ > 0) find_min();
    maybe_resize();
  }

  /// Cancels the event behind `h` in O(1). Returns false (and does
  /// nothing) when the event was already popped or cancelled.
  bool cancel(Handle h) {
    if (h.slot >= arena_.size()) return false;
    Node& n = arena_[h.slot];
    if (!n.live || n.gen != h.gen) return false;
    unlink(h.slot);
    release(h.slot);
    --size_;
    if (min_ == h.slot) {
      min_ = kNull;
      if (size_ > 0) find_min();
    }
    maybe_resize();
    return true;
  }

  /// True when `h` still names a pending event.
  bool pending(Handle h) const {
    return h.slot < arena_.size() && arena_[h.slot].live &&
           arena_[h.slot].gen == h.gen;
  }

 private:
  struct Node {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t prev = kNull;
    std::uint32_t next = kNull;
    std::uint32_t bucket = kNull;
    std::uint32_t gen = 0;
    bool live = false;
    Payload payload{};
  };

  bool before(std::uint32_t a, std::uint32_t b) const {
    const Node& na = arena_[a];
    const Node& nb = arena_[b];
    if (na.time != nb.time) return na.time < nb.time;
    return na.seq < nb.seq;
  }

  std::uint32_t allocate() {
    if (free_ != kNull) {
      const std::uint32_t slot = free_;
      free_ = arena_[slot].next;
      arena_[slot].live = true;
      return slot;
    }
    arena_.emplace_back();
    arena_.back().live = true;
    return static_cast<std::uint32_t>(arena_.size() - 1);
  }

  void release(std::uint32_t slot) {
    Node& n = arena_[slot];
    n.live = false;
    ++n.gen;  // invalidates outstanding handles to this slot
    n.next = free_;
    free_ = slot;
  }

  std::size_t bucket_of(SimTime time) const {
    // width_ is clamped at rebuild so time / width_ cannot overflow.
    return static_cast<std::size_t>(time / width_) & mask_;
  }

  /// Sorted insert into the event's bucket. Appending at the tail is the
  /// O(1) fast path that keeps equal-timestamp floods (e.g. a million
  /// t=0 arrivals) linear: seq grows monotonically, so in-order pushes
  /// always append.
  void link(std::uint32_t slot) {
    Node& n = arena_[slot];
    const std::size_t b = bucket_of(n.time);
    n.bucket = static_cast<std::uint32_t>(b);
    const std::uint32_t tail = tail_[b];
    if (tail == kNull) {
      head_[b] = tail_[b] = slot;
      n.prev = n.next = kNull;
      return;
    }
    if (before(tail, slot)) {  // append
      n.prev = tail;
      n.next = kNull;
      arena_[tail].next = slot;
      tail_[b] = slot;
      return;
    }
    insert_after(kNull, slot);  // the tail is ordered after `slot`
  }

  /// Sorted insert into `slot`'s bucket (n.bucket already set), walking
  /// forward from `prev`, or from the head when `prev` is kNull. Requires
  /// `prev` to be ordered before `slot`.
  void insert_after(std::uint32_t prev, std::uint32_t slot) {
    Node& n = arena_[slot];
    const std::uint32_t b = n.bucket;
    std::uint32_t cur = prev == kNull ? head_[b] : arena_[prev].next;
    while (cur != kNull && before(cur, slot)) {
      prev = cur;
      cur = arena_[cur].next;
      ++stress_;
    }
    n.prev = prev;
    n.next = cur;
    if (prev != kNull) {
      arena_[prev].next = slot;
    } else {
      head_[b] = slot;
    }
    if (cur != kNull) {
      arena_[cur].prev = slot;
    } else {
      tail_[b] = slot;
    }
  }

  void unlink(std::uint32_t slot) {
    Node& n = arena_[slot];
    const std::size_t b = n.bucket;
    if (n.prev != kNull) {
      arena_[n.prev].next = n.next;
    } else {
      head_[b] = n.next;
    }
    if (n.next != kNull) {
      arena_[n.next].prev = n.prev;
    } else {
      tail_[b] = n.prev;
    }
    n.prev = n.next = kNull;
    n.bucket = kNull;
  }

  /// Points the dequeue cursor (and cached minimum) at `slot`.
  void set_cursor(std::uint32_t slot) {
    min_ = slot;
    cursor_ = bucket_of(arena_[slot].time);
    cursor_top_ = (std::floor(arena_[slot].time / width_) + 1.0) * width_;
  }

  /// Re-locates the minimum after a pop/cancel. Fast path: scan one
  /// calendar year from the cursor — the first bucket whose head falls
  /// inside its current-year window holds the minimum (bucket lists are
  /// sorted, windows are visited in ascending time order, and equal
  /// times always share a bucket). Fallback: direct min over the bucket
  /// heads — unconditionally correct, O(bucket count).
  void find_min() {
    double top = cursor_top_;
    for (std::size_t i = 0; i <= mask_; ++i) {
      ++stress_;
      const std::size_t b = (cursor_ + i) & mask_;
      const std::uint32_t h = head_[b];
      if (h != kNull && arena_[h].time < top) {
        cursor_ = b;
        cursor_top_ = top;
        min_ = h;
        return;
      }
      top += width_;
    }
    std::uint32_t best = kNull;
    for (std::size_t b = 0; b <= mask_; ++b) {
      const std::uint32_t h = head_[b];
      if (h != kNull && (best == kNull || before(h, best))) best = h;
    }
    set_cursor(best);
  }

  void maybe_resize() {
    ++ops_;
    const std::size_t buckets = mask_ + 1;
    if (size_ > buckets * 2 && buckets < kMaxBuckets) {
      rebuild(buckets * 2);
    } else if (size_ < buckets / 4 && buckets > kMinBuckets) {
      rebuild(buckets / 2);
    } else if (stress_ > 8 * ops_ + 1024 && ops_ * 4 >= size_) {
      // Occupancy pathology at constant size: the event-time spread has
      // drifted away from the width the buckets were built for (e.g. the
      // hold pattern — a preload spanning a wide window collapses to a
      // dense moving front), so list walks / empty-bucket scans dominate.
      // Re-bucket at the same size to recompute the width from the
      // *current* spread. Purely a performance trigger: pop order is the
      // (time, seq) total order regardless of bucket geometry, so
      // determinism and golden figures are unaffected.
      rebuild(buckets);
    }
  }

  /// Re-buckets every live event into `buckets` buckets with a width
  /// matched to the current event-time spread. O(n) per call, with no
  /// comparison sort: the live events are relinked in bucket-walk order,
  /// so each old bucket's (time, seq) order carries over and an
  /// equal-time flood (which always shares one bucket) stays a run of
  /// tail appends. Amortised O(1) per operation by the doubling schedule.
  void rebuild(std::size_t buckets) {
    // Chain the old bucket lists into one list in walk order, noting the
    // (time, seq) minimum, the latest time, and every time for the
    // quartiles. The time buffer lives only for this call.
    std::vector<double> times;
    times.reserve(size_);
    std::uint32_t chain = kNull;
    std::uint32_t chain_tail = kNull;
    std::uint32_t first = kNull;
    double hi = 0.0;
    for (std::size_t b = 0; b <= mask_ && times.size() < size_; ++b) {
      if (head_[b] == kNull) continue;
      if (chain_tail == kNull) {
        chain = head_[b];
      } else {
        arena_[chain_tail].next = head_[b];
      }
      chain_tail = tail_[b];
      for (std::uint32_t cur = head_[b]; cur != kNull;
           cur = arena_[cur].next) {
        if (first == kNull || before(cur, first)) first = cur;
        hi = std::max(hi, arena_[cur].time);
        times.push_back(arena_[cur].time);
      }
    }
    // Width ≈ 2× the mean inter-event gap of the interquartile bulk
    // (robust against a skewed spread: a dense moving front plus a long
    // sparse tail must size buckets for the bulk, not the range),
    // clamped so (a) a degenerate spread still yields a usable width and
    // (b) time / width_ cannot overflow the bucket index computation.
    // The quartiles are exact order statistics (selection, not a sort),
    // so the geometry depends only on the set of pending times.
    const std::size_t n = times.size();
    double width = 1.0;
    if (n >= 2) {
      width = 2.0 * (hi - arena_[first].time) / static_cast<double>(n);
      if (n >= 4) {
        const auto q1 = times.begin() + static_cast<std::ptrdiff_t>(n / 4);
        const auto q3 =
            times.begin() + static_cast<std::ptrdiff_t>((3 * n) / 4);
        std::nth_element(times.begin(), q1, times.end());
        const double t1 = *q1;  // read before the next selection moves it
        std::nth_element(q1 + 1, q3, times.end());
        if (*q3 > t1) width = 4.0 * (*q3 - t1) / static_cast<double>(n);
      }
    }
    width = std::max({width, hi / 1e15, 1e-9});
    width_ = width;
    mask_ = buckets - 1;
    head_.assign(buckets, kNull);
    tail_.assign(buckets, kNull);
    // Consecutive chain entries in (time, seq) order that land in the
    // same new bucket are linked straight after each other, so merging
    // one old bucket's run into a new bucket never rescans the list
    // from its head.
    std::uint32_t last = kNull;
    for (std::uint32_t s = chain; s != kNull;) {
      const std::uint32_t next = arena_[s].next;  // relinking overwrites it
      if (last != kNull && arena_[last].bucket == bucket_of(arena_[s].time) &&
          before(last, s)) {
        arena_[s].bucket = arena_[last].bucket;
        insert_after(last, s);
      } else {
        link(s);
      }
      last = s;
      s = next;
    }
    stress_ = 0;
    ops_ = 0;
    if (first != kNull) {
      set_cursor(first);
    } else {
      min_ = kNull;
      cursor_ = 0;
      cursor_top_ = width_;
    }
  }

  std::vector<Node> arena_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> tail_;
  std::uint32_t free_ = kNull;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  double width_ = 1.0;
  std::uint64_t stress_ = 0;  ///< list-walk + bucket-scan steps since rebuild
  std::uint64_t ops_ = 0;     ///< push/pop/cancel count since rebuild
  std::uint32_t min_ = kNull;    ///< cached minimum (valid iff size_ > 0)
  std::size_t cursor_ = 0;       ///< current calendar bucket
  double cursor_top_ = 1.0;      ///< upper time bound of cursor's window
};

}  // namespace gasched::sim
