// Tests for the schedule encoding (paper §3.1, Fig 2).

#include "core/encoding.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace gasched::core {
namespace {

FlatSchedule flat(const ProcQueues& queues) {
  FlatSchedule s;
  s.assign(queues);
  return s;
}

FlatSchedule decoded(const ScheduleCodec& codec, const ga::Chromosome& c) {
  FlatSchedule s;
  codec.decode_into(c, s);
  return s;
}

ProcQueues queues_of(const FlatSchedule& s) {
  ProcQueues q(s.num_procs());
  for (std::size_t j = 0; j < q.size(); ++j) {
    q[j].assign(s.queue(j).begin(), s.queue(j).end());
  }
  return q;
}

TEST(Codec, ChromosomeLengthIsHPlusMMinusOne) {
  EXPECT_EQ(ScheduleCodec(10, 4).chromosome_length(), 13u);
  EXPECT_EQ(ScheduleCodec(0, 3).chromosome_length(), 2u);
  EXPECT_EQ(ScheduleCodec(5, 1).chromosome_length(), 5u);
}

TEST(Codec, RejectsZeroProcessors) {
  EXPECT_THROW(ScheduleCodec(5, 0), std::invalid_argument);
}

TEST(Codec, EncodeDecodeRoundTrip) {
  const ScheduleCodec codec(6, 3);
  const FlatSchedule queues = flat({{0, 3}, {1, 4, 5}, {2}});
  const ga::Chromosome c = codec.encode(queues);
  EXPECT_EQ(c.size(), codec.chromosome_length());
  EXPECT_TRUE(codec.valid(c));
  EXPECT_EQ(decoded(codec, c), queues);
}

TEST(Codec, PaperFigureTwoShape) {
  // Fig 2 example: queues split by delimiters; verify layout precisely.
  const ScheduleCodec codec(4, 3);
  const ga::Chromosome c = codec.encode(flat({{2, 0}, {}, {1, 3}}));
  // P0: 2 0 | P1: (empty) | P2: 1 3  =>  [2, 0, d0, d1, 1, 3]
  const ga::Chromosome expected{2, 0, ScheduleCodec::delimiter_gene(0),
                                ScheduleCodec::delimiter_gene(1), 1, 3};
  EXPECT_EQ(c, expected);
}

TEST(Codec, EmptyBatchEncodesOnlyDelimiters) {
  const ScheduleCodec codec(0, 4);
  const ga::Chromosome c = codec.encode(flat(ProcQueues(4)));
  EXPECT_EQ(c.size(), 3u);
  for (const auto g : c) EXPECT_TRUE(ScheduleCodec::is_delimiter(g));
}

TEST(Codec, SingleProcessorNoDelimiters) {
  const ScheduleCodec codec(3, 1);
  const FlatSchedule queues = flat({{2, 0, 1}});
  const ga::Chromosome c = codec.encode(queues);
  EXPECT_EQ(c, (ga::Chromosome{2, 0, 1}));
  EXPECT_EQ(decoded(codec, c), queues);
}

TEST(Codec, EncodeRejectsBadQueues) {
  const ScheduleCodec codec(4, 2);
  EXPECT_THROW(codec.encode(flat({{0, 1}})), std::invalid_argument);
  // Slot out of range.
  EXPECT_THROW(codec.encode(flat({{0, 9}, {1, 2}})), std::invalid_argument);
  // Missing a task.
  EXPECT_THROW(codec.encode(flat({{0}, {1, 2}})), std::invalid_argument);
  // Duplicate task (length exceeds H+M-1).
  EXPECT_THROW(codec.encode(flat({{0, 0}, {1, 2, 3}})),
               std::invalid_argument);
}

TEST(Codec, DecodeAnyPermutationAssignsEveryTaskOnce) {
  const ScheduleCodec codec(12, 5);
  ga::Chromosome c;
  for (std::size_t i = 0; i < 12; ++i) c.push_back(static_cast<ga::Gene>(i));
  for (std::size_t k = 0; k < 4; ++k) {
    c.push_back(ScheduleCodec::delimiter_gene(k));
  }
  util::Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    rng.shuffle(c);
    ASSERT_TRUE(codec.valid(c));
    const FlatSchedule q = decoded(codec, c);
    ASSERT_EQ(q.num_procs(), 5u);
    std::vector<int> seen(12, 0);
    for (const auto slot : q.slots()) ++seen[slot];
    for (const int s : seen) ASSERT_EQ(s, 1);
  }
}

TEST(Codec, ValidRejectsWrongLengthAndDuplicates) {
  const ScheduleCodec codec(3, 2);
  EXPECT_FALSE(codec.valid({0, 1, 2}));                       // too short
  EXPECT_FALSE(codec.valid({0, 1, 1, ScheduleCodec::delimiter_gene(0)}));
  EXPECT_FALSE(codec.valid({0, 1, 5, ScheduleCodec::delimiter_gene(0)}));
  EXPECT_FALSE(codec.valid({0, 1, 2, ScheduleCodec::delimiter_gene(3)}));
  EXPECT_TRUE(codec.valid({0, 1, 2, ScheduleCodec::delimiter_gene(0)}));
}

TEST(Codec, DecodeRejectsTooManyDelimiters) {
  const ScheduleCodec codec(2, 2);
  const ga::Chromosome c{0, ScheduleCodec::delimiter_gene(0),
                         ScheduleCodec::delimiter_gene(1), 1};
  FlatSchedule out;
  EXPECT_THROW(codec.decode_into(c, out), std::invalid_argument);
}

TEST(Codec, DecodeUsesDelimiterPositionNotLabel) {
  // The k-th delimiter met ends queue k, whatever its label.
  const ScheduleCodec codec(4, 3);
  const ga::Chromosome c{2, ScheduleCodec::delimiter_gene(1), 0, 3,
                         ScheduleCodec::delimiter_gene(0), 1};
  ASSERT_TRUE(codec.valid(c));
  EXPECT_EQ(queues_of(decoded(codec, c)), (ProcQueues{{2}, {0, 3}, {1}}));
}

TEST(Codec, DelimiterGenesAreDistinctNegatives) {
  for (std::size_t k = 0; k < 10; ++k) {
    const ga::Gene g = ScheduleCodec::delimiter_gene(k);
    EXPECT_LT(g, 0);
    EXPECT_TRUE(ScheduleCodec::is_delimiter(g));
    for (std::size_t k2 = 0; k2 < k; ++k2) {
      EXPECT_NE(g, ScheduleCodec::delimiter_gene(k2));
    }
  }
}

TEST(FlatSchedule, DefaultConstructedHasNoQueues) {
  const FlatSchedule s;
  EXPECT_EQ(s.num_procs(), 0u);
  EXPECT_EQ(s.num_slots(), 0u);
  EXPECT_TRUE(s.slots().empty());
  EXPECT_EQ(s, FlatSchedule{});
  // One empty queue is a schedule; no queues at all is not the same one.
  EXPECT_FALSE(s == flat(ProcQueues(1)));
}

TEST(FlatSchedule, AssignKeepsQueueOrderAndEmptyQueues) {
  const ProcQueues queues{{}, {3, 1}, {}, {0, 2}, {}};
  const FlatSchedule s = flat(queues);
  EXPECT_EQ(s.num_procs(), 5u);
  EXPECT_EQ(s.num_slots(), 4u);
  EXPECT_EQ(queues_of(s), queues);
  EXPECT_EQ(std::vector<std::size_t>(s.slots().begin(), s.slots().end()),
            (std::vector<std::size_t>{3, 1, 0, 2}));
}

TEST(FlatSchedule, AssignOrderedKeepsGivenOrderWithinQueues) {
  const std::vector<std::size_t> slot_proc{1, 0, 1, 2, 0};
  const std::vector<std::size_t> order{4, 2, 0, 3, 1};
  FlatSchedule s;
  s.assign_ordered(order, slot_proc, 4);
  EXPECT_EQ(queues_of(s), (ProcQueues{{4, 1}, {2, 0}, {3}, {}}));
  EXPECT_EQ(s.num_slots(), 5u);
}

TEST(FlatSchedule, AssignGroupedSortsSlotsAndKeepsEmptyQueues) {
  const std::vector<std::size_t> slot_proc{2, 0, 2, 0, 1};
  FlatSchedule s;
  s.assign_grouped(slot_proc, 4);
  EXPECT_EQ(queues_of(s), (ProcQueues{{1, 3}, {4}, {0, 2}, {}}));
  // Grouped is ordered by ascending slot.
  FlatSchedule ordered;
  const std::vector<std::size_t> ascending{0, 1, 2, 3, 4};
  ordered.assign_ordered(ascending, slot_proc, 4);
  EXPECT_EQ(ordered, s);
}

TEST(FlatSchedule, RebuildingUsedBuffersMatchesFreshBuild) {
  // Every builder rewrites the whole schedule: a larger earlier shape
  // leaves nothing behind.
  const ProcQueues big{{0, 5, 2}, {1}, {3, 4, 6}, {7}, {}};
  const ProcQueues small{{1}, {0, 2}};
  FlatSchedule s = flat(big);
  s.assign(small);
  EXPECT_EQ(s, flat(small));

  const std::vector<std::size_t> slot_proc{1, 0, 1};
  s = flat(big);
  s.assign_grouped(slot_proc, 2);
  EXPECT_EQ(s, flat(small));

  s = flat(big);
  const std::vector<std::size_t> order{1, 0, 2};
  s.assign_ordered(order, slot_proc, 2);
  EXPECT_EQ(s, flat(small));

  const ScheduleCodec codec(3, 2);
  s = flat(big);
  codec.decode_into(codec.encode(flat(small)), s);
  EXPECT_EQ(s, flat(small));
}

TEST(FlatSchedule, MutableQueueViewEditsSlotsInPlace) {
  FlatSchedule s = flat({{0, 1}, {2, 3}});
  std::swap(s.queue(0)[1], s.queue(1)[0]);
  EXPECT_EQ(queues_of(s), (ProcQueues{{0, 2}, {1, 3}}));
  EXPECT_EQ(std::vector<std::size_t>(s.slots().begin(), s.slots().end()),
            (std::vector<std::size_t>{0, 2, 1, 3}));
  const ScheduleCodec codec(4, 2);
  EXPECT_EQ(codec.encode(s),
            (ga::Chromosome{0, 2, ScheduleCodec::delimiter_gene(0), 1, 3}));
}

}  // namespace
}  // namespace gasched::core
