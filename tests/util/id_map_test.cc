#include "src/util/id_map.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"

namespace cknn {
namespace {

constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint64_t>::max();

TEST(IdMapTest, InsertFindErase) {
  IdMap<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(5), nullptr);
  EXPECT_FALSE(m.Erase(5));  // Erase on a never-allocated map.
  m[5] = 42;
  ASSERT_NE(m.Find(5), nullptr);
  EXPECT_EQ(*m.Find(5), 42);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.Erase(5));
  EXPECT_FALSE(m.Erase(5));
  EXPECT_EQ(m.Find(5), nullptr);
  EXPECT_TRUE(m.empty());
}

TEST(IdMapTest, TryEmplaceKeepsPresentValue) {
  IdMap<int> m;
  auto [v, inserted] = m.TryEmplace(3, 30);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 30);
  auto [w, again] = m.TryEmplace(3, 99);
  EXPECT_FALSE(again);
  EXPECT_EQ(*w, 30);
  EXPECT_EQ(m.size(), 1u);
}

TEST(IdMapTest, ArbitrarySixtyFourBitIds) {
  // No id is reserved: the empty-slot marker UINT64_MAX is a valid key too.
  IdMap<int> m;
  const std::vector<std::uint64_t> ids = {
      0, 1, std::uint64_t{1} << 26, std::uint64_t{1} << 40,
      std::uint64_t{1} << 63, kMaxId - 1, kMaxId};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    m[ids[i]] = static_cast<int>(i);
  }
  EXPECT_EQ(m.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_NE(m.Find(ids[i]), nullptr) << ids[i];
    EXPECT_EQ(*m.Find(ids[i]), static_cast<int>(i));
  }
  EXPECT_TRUE(m.Erase(kMaxId));
  EXPECT_EQ(m.Find(kMaxId), nullptr);
  EXPECT_FALSE(m.Erase(kMaxId));
  EXPECT_NE(m.Find(kMaxId - 1), nullptr);
  m[kMaxId] = 7;
  m.Clear();
  EXPECT_TRUE(m.empty());
  for (std::uint64_t id : ids) EXPECT_EQ(m.Find(id), nullptr);
  // Re-inserting after Clear value-initializes.
  EXPECT_EQ(m[kMaxId], 0);
  EXPECT_EQ(m[0], 0);
}

TEST(IdMapTest, ForEachVisitsAscending) {
  IdMap<int> m;
  const std::vector<std::uint64_t> ids = {900, 3, kMaxId, 70,
                                          std::uint64_t{1} << 40, 0};
  for (std::uint64_t id : ids) m[id] = static_cast<int>(id % 1000);
  std::vector<std::uint64_t> seen;
  m.ForEach([&](std::uint64_t id, const int& v) {
    EXPECT_EQ(v, static_cast<int>(id % 1000));
    seen.push_back(id);
  });
  const std::vector<std::uint64_t> want = {0, 3, 70, 900,
                                           std::uint64_t{1} << 40, kMaxId};
  EXPECT_EQ(seen, want);
  // ForEachUnordered visits the same entries, in slot order.
  std::vector<std::uint64_t> unordered;
  m.ForEachUnordered(
      [&](std::uint64_t id, const int&) { unordered.push_back(id); });
  std::sort(unordered.begin(), unordered.end());
  EXPECT_EQ(unordered, want);
}

TEST(IdMapTest, ClearEmptiesAndKeepsCapacity) {
  IdMap<int> m;
  for (std::uint64_t i = 0; i < 300; ++i) m[i * 7919] = static_cast<int>(i);
  const std::size_t cap = m.capacity();
  const std::size_t bytes = m.MemoryBytes();
  EXPECT_GE(cap * 3, 300u * 4);  // At most 3/4 full.
  m.Clear();
  EXPECT_EQ(m.size(), 0u);
  for (std::uint64_t i = 0; i < 300; ++i) EXPECT_EQ(m.Find(i * 7919), nullptr);
  // The slot array is kept for the next expansion of the same query.
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.MemoryBytes(), bytes);
}

TEST(IdMapTest, MemoryFollowsLiveEntriesNotIdRange) {
  IdMap<int> near_ids;
  near_ids[0] = 1;
  near_ids[1] = 2;
  IdMap<int> far_ids;
  far_ids[0] = 1;
  far_ids[std::uint64_t{1} << 40] = 2;
  // Two entries cost the smallest slot array wherever they are in the id
  // range — no page table as long as the largest id.
  EXPECT_EQ(far_ids.capacity(), 4u);
  EXPECT_EQ(far_ids.MemoryBytes(), near_ids.MemoryBytes());

  // 1000 ids spread over 2^60 cost what 1000 consecutive ids cost.
  IdMap<int> spread;
  IdMap<int> dense;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    spread[i << 50] = 1;
    dense[i] = 1;
  }
  EXPECT_EQ(spread.MemoryBytes(), dense.MemoryBytes());
  EXPECT_LE(spread.capacity(), 2048u);
}

TEST(IdMapTest, EraseRefillsProbeRuns) {
  // Many ids in a small array: long probe runs that wrap past the end.
  // Erasing from the middle of a run must keep every later id reachable.
  IdMap<int> m;
  for (std::uint64_t id = 0; id < 12; ++id) m[id * 16] = static_cast<int>(id);
  ASSERT_EQ(m.capacity(), 16u);
  for (std::uint64_t id = 0; id < 12; id += 2) ASSERT_TRUE(m.Erase(id * 16));
  for (std::uint64_t id = 0; id < 12; ++id) {
    const int* v = m.Find(id * 16);
    if (id % 2 == 0) {
      EXPECT_EQ(v, nullptr) << id;
    } else {
      ASSERT_NE(v, nullptr) << id;
      EXPECT_EQ(*v, static_cast<int>(id));
    }
  }
  EXPECT_EQ(m.size(), 6u);
}

/// Draws ids from a mix that makes collisions and wrap-around likely:
/// a narrow dense range, multiples of large powers of two, the top of the
/// id space, and arbitrary 64-bit values.
std::uint64_t DrawId(Rng* rng, std::uint64_t narrow) {
  switch (rng->NextIndex(4)) {
    case 0:
      return rng->NextIndex(narrow);
    case 1:
      return rng->NextIndex(narrow) << (20 + rng->NextIndex(40));
    case 2:
      return kMaxId - rng->NextIndex(4);
    default:
      return rng->NextU64();
  }
}

class IdMapFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(IdMapFuzzTest, DifferentialAgainstUnorderedMap) {
  Rng rng(testing::FuzzSeed(static_cast<std::uint64_t>(GetParam())) *
          0xD15EA5E);
  const int num_ops = testing::FuzzIterations(/*default_iters=*/20000,
                                              /*hard_cap=*/2000000);
  // Odd seeds keep the map small (many Clears, short wrapping runs); even
  // seeds let it grow through several doublings.
  const bool small = GetParam() % 2 == 1;
  const std::uint64_t narrow = small ? 24 : 4096;
  const std::size_t clear_one_in = small ? 60 : 4000;
  IdMap<double> m;
  std::unordered_map<std::uint64_t, double> ref;
  for (int op = 0; op < num_ops; ++op) {
    const std::uint64_t id = DrawId(&rng, narrow);
    switch (rng.NextIndex(5)) {
      case 0:
      case 1: {
        const double v = rng.Uniform(0.0, 1.0);
        m[id] = v;
        ref[id] = v;
        break;
      }
      case 2:
        ASSERT_EQ(m.Erase(id), ref.erase(id) != 0) << id;
        break;
      case 3: {
        auto it = ref.find(id);
        const double* p = m.Find(id);
        ASSERT_EQ(p != nullptr, it != ref.end()) << id;
        if (p != nullptr) {
          ASSERT_EQ(*p, it->second);
        }
        break;
      }
      case 4:
        if (rng.NextIndex(clear_one_in) == 0) {
          m.Clear();
          ref.clear();
        }
        break;
    }
    ASSERT_EQ(m.size(), ref.size());
    ASSERT_LE(m.size() * 4, m.capacity() * 3 + 4);  // Load cap (+ side slot).
    if (op % 997 == 0) {
      // Full comparison, and ForEach in ascending order.
      const std::map<std::uint64_t, double> sorted(ref.begin(), ref.end());
      auto want = sorted.begin();
      m.ForEach([&](std::uint64_t got_id, const double& v) {
        ASSERT_NE(want, sorted.end());
        EXPECT_EQ(got_id, want->first);
        EXPECT_EQ(v, want->second);
        ++want;
      });
      EXPECT_EQ(want, sorted.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdMapFuzzTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace cknn
