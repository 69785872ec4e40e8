// Edge cases for IndexedMinHeap beyond the basic suite: duplicate keys,
// decrease-key interleavings, Erase of interior/leaf/root nodes, and a
// randomized differential check against a sorted reference.

#include "src/util/indexed_min_heap.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"

namespace cknn {
namespace {

TEST(IndexedMinHeapEdgeTest, DuplicateKeysAllPopped) {
  IndexedMinHeap heap;
  for (std::uint64_t id = 0; id < 10; ++id) heap.Push(id, 1.0);
  std::vector<bool> seen(10, false);
  for (int i = 0; i < 10; ++i) {
    const auto entry = heap.Pop();
    EXPECT_DOUBLE_EQ(entry.key, 1.0);
    EXPECT_FALSE(seen[entry.id]);
    seen[entry.id] = true;
  }
  EXPECT_TRUE(heap.empty());
}

TEST(IndexedMinHeapEdgeTest, PushOrDecreaseIgnoresLargerKey) {
  IndexedMinHeap heap;
  heap.Push(7, 2.0);
  EXPECT_FALSE(heap.PushOrDecrease(7, 3.0));
  EXPECT_DOUBLE_EQ(heap.KeyOf(7), 2.0);
  EXPECT_FALSE(heap.PushOrDecrease(7, 2.0));  // equal key: no change
  EXPECT_TRUE(heap.PushOrDecrease(7, 1.5));
  EXPECT_DOUBLE_EQ(heap.KeyOf(7), 1.5);
  EXPECT_EQ(heap.size(), 1u);
}

TEST(IndexedMinHeapEdgeTest, DecreaseKeyPromotesToTop) {
  IndexedMinHeap heap;
  for (std::uint64_t id = 0; id < 32; ++id) {
    heap.Push(id, 10.0 + static_cast<double>(id));
  }
  EXPECT_TRUE(heap.PushOrDecrease(31, 0.5));
  EXPECT_EQ(heap.Top().id, 31u);
  EXPECT_DOUBLE_EQ(heap.Top().key, 0.5);
}

TEST(IndexedMinHeapEdgeTest, EraseRootLeafAndInterior) {
  IndexedMinHeap heap;
  for (std::uint64_t id = 0; id < 15; ++id) {
    heap.Push(id, static_cast<double>(id));
  }
  EXPECT_TRUE(heap.Erase(0));    // root
  EXPECT_TRUE(heap.Erase(14));   // last leaf
  EXPECT_TRUE(heap.Erase(5));    // interior
  EXPECT_FALSE(heap.Erase(5));   // already gone
  EXPECT_FALSE(heap.Erase(99));  // never present
  EXPECT_EQ(heap.size(), 12u);

  double prev = -std::numeric_limits<double>::infinity();
  while (!heap.empty()) {
    const auto entry = heap.Pop();
    EXPECT_NE(entry.id, 0u);
    EXPECT_NE(entry.id, 14u);
    EXPECT_NE(entry.id, 5u);
    EXPECT_GE(entry.key, prev);
    prev = entry.key;
  }
}

TEST(IndexedMinHeapEdgeTest, EraseLastElementLeavesEmptyHeap) {
  IndexedMinHeap heap;
  heap.Push(1, 1.0);
  EXPECT_TRUE(heap.Erase(1));
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.Contains(1));
  heap.Push(1, 2.0);  // id is reusable after erase
  EXPECT_DOUBLE_EQ(heap.KeyOf(1), 2.0);
}

TEST(IndexedMinHeapEdgeTest, ClearThenReuse) {
  IndexedMinHeap heap;
  for (std::uint64_t id = 0; id < 8; ++id) heap.Push(id, 8.0 - id);
  heap.Clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_FALSE(heap.Contains(3));
  heap.Push(3, 1.0);
  EXPECT_EQ(heap.Top().id, 3u);
}

TEST(IndexedMinHeapEdgeTest, NegativeAndExtremeKeys) {
  IndexedMinHeap heap;
  heap.Push(1, std::numeric_limits<double>::max());
  heap.Push(2, -std::numeric_limits<double>::max());
  heap.Push(3, 0.0);
  heap.Push(4, -0.0);
  EXPECT_EQ(heap.Pop().id, 2u);
  // 0.0 and -0.0 compare equal; either order is fine.
  const auto a = heap.Pop();
  const auto b = heap.Pop();
  EXPECT_DOUBLE_EQ(a.key, 0.0);
  EXPECT_DOUBLE_EQ(b.key, 0.0);
  EXPECT_EQ(heap.Pop().id, 1u);
}

TEST(IndexedMinHeapEdgeTest, LargeIdsDoNotCollide) {
  IndexedMinHeap heap;
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  heap.Push(big, 2.0);
  heap.Push(big - 1, 1.0);
  heap.Push(0, 3.0);
  EXPECT_EQ(heap.Pop().id, big - 1);
  EXPECT_EQ(heap.Pop().id, big);
  EXPECT_EQ(heap.Pop().id, 0u);
}

TEST(IndexedMinHeapEdgeTest, RandomizedDifferentialAgainstMultimap) {
  Rng rng(testing::FuzzSeed(20260729));
  IndexedMinHeap heap;
  // Reference: id -> key. Validates Contains/KeyOf/Pop order.
  std::map<std::uint64_t, double> reference;

  const int steps = testing::FuzzIterations(/*default_iters=*/5000,
                                            /*hard_cap=*/500000);
  for (int step = 0; step < steps; ++step) {
    // The top ten draws map to the top of the id space, UINT64_MAX
    // included, so the position index sees every kind of key.
    auto id = static_cast<std::uint64_t>(rng.UniformInt(0, 199));
    if (id >= 190) id = std::numeric_limits<std::uint64_t>::max() - (id - 190);
    const double key = rng.Uniform(0.0, 100.0);
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // PushOrDecrease
        auto it = reference.find(id);
        const bool changed = heap.PushOrDecrease(id, key);
        if (it == reference.end()) {
          EXPECT_TRUE(changed);
          reference[id] = key;
        } else if (key < it->second) {
          EXPECT_TRUE(changed);
          it->second = key;
        } else {
          EXPECT_FALSE(changed);
        }
        break;
      }
      case 1: {  // Erase
        const bool had = reference.erase(id) != 0;
        EXPECT_EQ(heap.Erase(id), had);
        break;
      }
      case 2: {  // Pop the minimum
        if (reference.empty()) {
          EXPECT_TRUE(heap.empty());
          break;
        }
        auto min_it = std::min_element(
            reference.begin(), reference.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
        const auto entry = heap.Pop();
        EXPECT_DOUBLE_EQ(entry.key, min_it->second);
        // Ties may pop any id with the minimal key.
        EXPECT_DOUBLE_EQ(reference.at(entry.id), entry.key);
        reference.erase(entry.id);
        break;
      }
      default: {  // Query
        EXPECT_EQ(heap.Contains(id), reference.count(id) != 0);
        if (reference.count(id) != 0) {
          EXPECT_DOUBLE_EQ(heap.KeyOf(id), reference.at(id));
        }
        EXPECT_EQ(heap.size(), reference.size());
      }
    }
  }
}

}  // namespace
}  // namespace cknn
