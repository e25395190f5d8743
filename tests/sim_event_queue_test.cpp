// CalendarQueue vs a std::priority_queue reference: randomized
// insert/pop/cancel sequences must dequeue in the exact (time, seq)
// order — including FIFO order among equal timestamps, the tie-break the
// engine's determinism contract (and every golden CSV) depends on.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace gasched::sim {
namespace {

struct RefEvent {
  SimTime time = 0.0;
  std::uint64_t seq = 0;  // global push counter (mirrors the queue's)
  int tag = 0;
  bool operator>(const RefEvent& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

using RefQueue =
    std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>>;

TEST(CalendarQueueTest, OrdersByTimeThenPushOrder) {
  CalendarQueue<int> q;
  q.push(5.0, 1);
  q.push(1.0, 2);
  q.push(5.0, 3);  // same time as tag 1: must dequeue after it
  q.push(0.5, 4);
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q.top(), 4);
  q.pop();
  EXPECT_EQ(q.top(), 2);
  q.pop();
  EXPECT_EQ(q.top(), 1);
  EXPECT_DOUBLE_EQ(q.top_time(), 5.0);
  q.pop();
  EXPECT_EQ(q.top(), 3);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, EqualTimestampFloodStaysFifo) {
  // A million-at-t=0 style burst (scaled down): all equal keys must come
  // back in exact push order via the tail-append fast path.
  CalendarQueue<int> q;
  for (int i = 0; i < 5000; ++i) q.push(0.0, i);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(q.top(), i);
    q.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, CancelRemovesExactlyThatEvent) {
  CalendarQueue<int> q;
  auto h1 = q.push(1.0, 1);
  auto h2 = q.push(2.0, 2);
  auto h3 = q.push(3.0, 3);
  EXPECT_TRUE(q.pending(h2));
  EXPECT_TRUE(q.cancel(h2));
  EXPECT_FALSE(q.pending(h2));
  EXPECT_FALSE(q.cancel(h2));  // second cancel is refused
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.top(), 1);
  q.pop();
  EXPECT_EQ(q.top(), 3);
  q.pop();
  EXPECT_TRUE(q.empty());
  // Handles to popped events are refused too.
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_FALSE(q.cancel(h3));
}

TEST(CalendarQueueTest, StaleHandleAfterSlotReuseIsRefused) {
  CalendarQueue<int> q;
  auto h1 = q.push(1.0, 1);
  q.pop();  // frees the slot
  auto h2 = q.push(2.0, 2);  // recycles it with a bumped generation
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(h2));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, RejectsNonFiniteAndNegativeTimes) {
  CalendarQueue<int> q;
  EXPECT_THROW(q.push(-1.0, 0), std::invalid_argument);
  EXPECT_THROW(q.push(std::numeric_limits<double>::quiet_NaN(), 0),
               std::invalid_argument);
  EXPECT_THROW(q.push(std::numeric_limits<double>::infinity(), 0),
               std::invalid_argument);
}

// One randomized scenario: interleaved pushes (several time regimes to
// exercise bucket resizing), pops, and cancels, mirrored against the
// reference heap. Cancelled seqs are filtered from the reference lazily.
void run_mixed_scenario(std::uint64_t seed, std::size_t ops,
                        double time_scale, double equal_time_prob) {
  util::Rng rng(seed);
  CalendarQueue<int> q;
  RefQueue ref;
  std::map<std::uint64_t, CalendarQueue<int>::Handle> live;  // seq -> handle
  std::uint64_t next_seq = 0;
  double clock = 0.0;  // pops only move forward, like a simulation
  int tag = 0;

  for (std::size_t op = 0; op < ops; ++op) {
    const double r = rng.uniform01();
    if (r < 0.5 || q.empty()) {
      // Push at or after the current clock (simulation discipline).
      double t = clock;
      if (rng.uniform01() >= equal_time_prob) {
        t += rng.uniform(0.0, time_scale);
      }
      const auto h = q.push(t, tag);
      ref.push(RefEvent{t, next_seq, tag});
      live.emplace(next_seq, h);
      ++next_seq;
      ++tag;
    } else if (r < 0.85) {
      // Pop and compare against the reference (skipping cancelled refs).
      while (!ref.empty() && live.find(ref.top().seq) == live.end()) {
        ref.pop();
      }
      ASSERT_FALSE(ref.empty());
      const RefEvent expect = ref.top();
      ref.pop();
      ASSERT_DOUBLE_EQ(q.top_time(), expect.time);
      ASSERT_EQ(q.top(), expect.tag) << "tie-break order diverged";
      q.pop();
      live.erase(expect.seq);
      clock = expect.time;
    } else {
      // Cancel a pseudo-random live event.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.index(live.size())));
      ASSERT_TRUE(q.cancel(it->second));
      live.erase(it);
    }
  }
  // Drain: remaining events must come out in exact reference order.
  while (!q.empty()) {
    while (!ref.empty() && live.find(ref.top().seq) == live.end()) ref.pop();
    ASSERT_FALSE(ref.empty());
    ASSERT_EQ(q.top(), ref.top().tag);
    ASSERT_DOUBLE_EQ(q.top_time(), ref.top().time);
    live.erase(ref.top().seq);
    q.pop();
    ref.pop();
  }
  while (!ref.empty() && live.find(ref.top().seq) == live.end()) ref.pop();
  EXPECT_TRUE(ref.empty());
}

TEST(CalendarQueuePropertyTest, MatchesHeapOnSpreadTimes) {
  run_mixed_scenario(/*seed=*/1, /*ops=*/20000, /*time_scale=*/100.0,
                     /*equal_time_prob=*/0.1);
}

TEST(CalendarQueuePropertyTest, MatchesHeapOnDenseEqualTimes) {
  // Half the pushes reuse the exact current clock value: heavy tie-break
  // traffic through the append fast path and the sorted-insert slow path.
  run_mixed_scenario(/*seed=*/2, /*ops=*/20000, /*time_scale=*/1.0,
                     /*equal_time_prob=*/0.5);
}

TEST(CalendarQueuePropertyTest, MatchesHeapOnTinyGaps) {
  run_mixed_scenario(/*seed=*/3, /*ops=*/20000, /*time_scale=*/1e-6,
                     /*equal_time_prob=*/0.25);
}

TEST(CalendarQueuePropertyTest, MatchesHeapAcrossManySeeds) {
  for (std::uint64_t seed = 10; seed < 30; ++seed) {
    run_mixed_scenario(seed, /*ops=*/2000,
                       /*time_scale=*/(seed % 2 ? 1e3 : 1e-2),
                       /*equal_time_prob=*/0.2);
  }
}

TEST(CalendarQueuePropertyTest, GrowShrinkCycleKeepsOrder) {
  // Force several grow/shrink rebuilds: fill far past the resize
  // threshold, drain most, refill, and verify order throughout.
  util::Rng rng(99);
  CalendarQueue<int> q;
  RefQueue ref;
  std::uint64_t seq = 0;
  auto push_burst = [&](std::size_t n, double lo, double hi) {
    for (std::size_t i = 0; i < n; ++i) {
      const double t = rng.uniform(lo, hi);
      q.push(t, static_cast<int>(seq));
      ref.push(RefEvent{t, seq, static_cast<int>(seq)});
      ++seq;
    }
  };
  auto drain = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(q.top(), ref.top().tag);
      q.pop();
      ref.pop();
    }
  };
  push_burst(10000, 0.0, 1e4);
  drain(9800);
  push_burst(5000, 1e4, 2e4);
  drain(5150);
  push_burst(200, 2e4, 2e4);  // equal-time tail
  drain(q.size());
  EXPECT_TRUE(ref.empty());
}

// Mirrors every operation into the reference heap and checks each pop.
struct Mirrored {
  CalendarQueue<int> q;
  RefQueue ref;
  std::uint64_t seq = 0;
  double clock = 0.0;

  void push(double t) {
    q.push(t, static_cast<int>(seq));
    ref.push(RefEvent{t, seq, static_cast<int>(seq)});
    ++seq;
  }
  void pop() {
    ASSERT_FALSE(ref.empty());
    ASSERT_EQ(q.top_time(), ref.top().time);
    ASSERT_EQ(q.top(), ref.top().tag) << "order diverged at seq " << seq;
    clock = ref.top().time;
    q.pop();
    ref.pop();
  }
};

TEST(CalendarQueueRebuildTest, FederationTransferShapeMatchesHeap) {
  // The federation's transfer queue: a burst of pushes landing in a
  // narrow window just ahead of the clock (latency + size/bandwidth),
  // mixed with pops, growing through several doublings...
  util::Rng rng(2024);
  Mirrored m;
  for (std::size_t i = 0; i < 50'000; ++i) {
    m.push(m.clock + 0.25 + rng.uniform(0.0, 0.05));
    if (i % 5 == 4) {
      m.pop();
      if (HasFatalFailure()) return;
    }
  }
  // ...then an equal-time flood at least as large as the queue, just
  // past every queued event, so a doubling rebuild fires in the middle
  // of it (and must keep it FIFO, and linear)...
  const double flood_time = m.clock + 0.31;
  const std::size_t flood = m.q.size() + 1000;
  for (std::size_t i = 0; i < flood; ++i) {
    m.push(flood_time);
    if (i % 97 == 0) m.push(m.clock + 0.25 + rng.uniform(0.0, 0.05));
  }
  // ...then a hold at constant size whose increments are far wider than
  // the window the buckets were sized for: the spread drifts until the
  // empty-bucket scans fire the stress re-width...
  for (std::size_t i = 0; i < 100'000; ++i) {
    m.pop();
    if (HasFatalFailure()) return;
    m.push(m.clock + rng.uniform(0.0, 1e4));
  }
  // ...and a drain through every halving.
  while (!m.q.empty()) {
    m.pop();
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(m.ref.empty());
}

TEST(CalendarQueueRebuildTest, EqualTimeFloodStraddlingRebuildsStaysFifo) {
  // Several equal-time floods at interleaved timestamps, each pushed in
  // runs that straddle doubling rebuilds, then popped through halvings.
  Mirrored m;
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < 20'000; ++i) {
      m.push(10.0 + static_cast<double>(i % 3));
      if (i % 1000 == 999) m.push(5.0 + static_cast<double>(round));
    }
    for (std::size_t i = 0; i < 15'000; ++i) {
      m.pop();
      if (HasFatalFailure()) return;
    }
  }
  while (!m.q.empty()) {
    m.pop();
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(m.ref.empty());
}

TEST(CalendarQueueRebuildTest, SkewedSpreadAcrossManyYearsMatchesHeap) {
  // A dense front plus a sparse tail thousands of bucket-years long: the
  // width follows the front's interquartile gap, so each bucket holds
  // events from many calendar years and a rebuild's walk meets runs that
  // interleave in time across old buckets.
  for (std::uint64_t seed = 40; seed < 42; ++seed) {
    util::Rng rng(seed);
    Mirrored m;
    auto push_one = [&] {
      const bool tail = rng.uniform01() < 0.2;
      m.push(m.clock + (tail ? rng.uniform(0.0, 1e5) : rng.uniform(0.0, 1.0)));
    };
    for (std::size_t i = 0; i < 12'000; ++i) {
      push_one();
      if (i % 3 == 2) {
        m.pop();
        if (HasFatalFailure()) return;
      }
    }
    for (std::size_t i = 0; i < 6'000; ++i) {
      m.pop();
      if (HasFatalFailure()) return;
      if (i % 4 == 0) push_one();
    }
    while (!m.q.empty()) {
      m.pop();
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(m.ref.empty());
  }
}

TEST(CalendarQueueRebuildTest, RebuildMergesRunsFromDifferentOldBuckets) {
  // A fresh queue has 16 buckets of width 1, so 16.5 (year 1) is the
  // last entry of old bucket 0 and 1.5 the first of old bucket 1. The
  // 33rd push doubles the table with a width of about 31, putting 0.5,
  // 16.5 and 1.5 into one new bucket: the walk meets 1.5 right after
  // 16.5 and must sort it in before it, not append it.
  Mirrored m;
  m.push(16.5);
  m.push(1.5);
  m.push(0.5);
  for (int k = 10; k <= 39; ++k) m.push(8.5 + 16.0 * k);  // all in bucket 8
  ASSERT_EQ(m.q.size(), 33u);
  while (!m.q.empty()) {
    m.pop();
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace gasched::sim
