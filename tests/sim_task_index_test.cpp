// sim::TaskIndex vs std::unordered_map: randomized insert / overwrite /
// erase / lookup sequences must agree exactly, through probe runs that
// wrap around the end of the table, backward-shift erases, and growth.

#include "sim/task_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "util/rng.hpp"

namespace gasched::sim {
namespace {

using workload::TaskId;

// Applies a random operation mix to both maps. Ids are drawn from
// [id_lo, id_lo + id_range); after every operation each id in the range
// must resolve identically.
void run_differential(std::uint64_t seed, std::size_t ops, TaskId id_lo,
                      std::size_t id_range, std::size_t max_live,
                      bool check_all_each_op) {
  util::Rng rng(seed);
  TaskIndex index;
  std::unordered_map<TaskId, std::size_t> ref;
  auto check = [&](TaskId id) {
    const auto it = ref.find(id);
    const std::size_t want = it == ref.end() ? TaskIndex::npos : it->second;
    ASSERT_EQ(index.find(id), want) << "id " << id;
  };
  for (std::size_t op = 0; op < ops; ++op) {
    const TaskId id = id_lo + static_cast<TaskId>(rng.index(id_range));
    const std::size_t value = rng.index(1'000'000);
    const double r = rng.uniform01();
    if (r < 0.45 && ref.size() < max_live) {
      const bool fresh = ref.emplace(id, value).second;
      ASSERT_EQ(index.insert(id, value), fresh);
    } else if (r < 0.6 && ref.size() < max_live) {
      ref[id] = value;
      index.insert_or_assign(id, value);
    } else {
      ASSERT_EQ(index.erase(id), ref.erase(id) == 1);
    }
    ASSERT_EQ(index.size(), ref.size());
    if (check_all_each_op) {
      for (std::size_t k = 0; k < id_range; ++k) {
        check(id_lo + static_cast<TaskId>(k));
        if (::testing::Test::HasFatalFailure()) return;
      }
    } else {
      check(id);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  for (std::size_t k = 0; k < id_range; ++k) {
    check(id_lo + static_cast<TaskId>(k));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(TaskIndexTest, SmallTableWithWrapAroundRunsMatchesUnorderedMap) {
  // At most 8 live entries keeps the table at its minimum 16 slots, so
  // clusters of colliding ids routinely run off the end and wrap; every
  // erase then backward-shifts across the wrap. Every id is checked
  // after every operation.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_differential(seed, 4000, /*id_lo=*/0, /*id_range=*/64,
                     /*max_live=*/8, /*check_all_each_op=*/true);
    if (HasFatalFailure()) return;
  }
}

TEST(TaskIndexTest, NegativeAndExtremeIdsMatchUnorderedMap) {
  run_differential(7, 20000, /*id_lo=*/-40, /*id_range=*/80,
                   /*max_live=*/30, /*check_all_each_op=*/true);
  run_differential(8, 5000, std::numeric_limits<TaskId>::max() - 63, 64,
                   /*max_live=*/40, /*check_all_each_op=*/true);
  run_differential(9, 5000, std::numeric_limits<TaskId>::min(), 64,
                   /*max_live=*/40, /*check_all_each_op=*/true);
}

TEST(TaskIndexTest, GrowthAndChurnMatchUnorderedMap) {
  // Grows through many doublings and keeps churning at large size.
  run_differential(3, 400'000, /*id_lo=*/0, /*id_range=*/200'000,
                   /*max_live=*/150'000, /*check_all_each_op=*/false);
}

TEST(TaskIndexTest, DenseIdsInsertFindEraseAll) {
  TaskIndex index;
  index.reserve(10);  // grows past the reservation below
  for (TaskId id = 0; id < 100'000; ++id) {
    ASSERT_TRUE(index.insert(id, static_cast<std::size_t>(id) * 3));
  }
  EXPECT_FALSE(index.insert(500, 1));  // duplicate leaves the entry as is
  EXPECT_EQ(index.find(500), 1500u);
  index.insert_or_assign(500, 7);  // migrate-back overwrite
  EXPECT_EQ(index.find(500), 7u);
  EXPECT_EQ(index.size(), 100'000u);
  for (TaskId id = 0; id < 100'000; id += 2) ASSERT_TRUE(index.erase(id));
  for (TaskId id = 0; id < 100'000; ++id) {
    const std::size_t want =
        id % 2 == 0 ? TaskIndex::npos : static_cast<std::size_t>(id) * 3;
    ASSERT_EQ(index.find(id), want) << id;
  }
  EXPECT_FALSE(index.erase(0));
  EXPECT_EQ(index.size(), 50'000u);
}

TEST(TaskIndexTest, IndexBeyond32BitsThrowsInsteadOfWrapping) {
  TaskIndex index;
  const std::size_t too_big = std::size_t{0xFFFFFFFFu};
  EXPECT_THROW(index.insert(1, too_big), std::length_error);
  EXPECT_THROW(index.insert_or_assign(1, too_big), std::length_error);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find(1), TaskIndex::npos);
  EXPECT_TRUE(index.insert(1, too_big - 1));
  EXPECT_EQ(index.find(1), too_big - 1);
}

}  // namespace
}  // namespace gasched::sim
