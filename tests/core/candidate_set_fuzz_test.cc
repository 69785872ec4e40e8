// Differential fuzz of CandidateSet against a naive reference model
// (unordered_map + full sort on every inspection). The candidate set is
// the ranking heart of every algorithm here, so its Offer/Set/Remove/
// PruneBeyond semantics get hammered with random operation tapes.

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/top_k.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"

namespace cknn {
namespace {

/// Reference model with the same interface semantics.
class NaiveCandidateSet {
 public:
  bool Offer(ObjectId id, double dist) {
    auto it = map_.find(id);
    if (it == map_.end()) {
      map_.emplace(id, dist);
      return true;
    }
    if (dist >= it->second) return false;
    it->second = dist;
    return true;
  }
  void Set(ObjectId id, double dist) { map_[id] = dist; }
  std::optional<double> Remove(ObjectId id) {
    auto it = map_.find(id);
    if (it == map_.end()) return std::nullopt;
    const double d = it->second;
    map_.erase(it);
    return d;
  }
  double KthDist(int k) const {
    auto sorted = Sorted();
    if (static_cast<int>(sorted.size()) < k) return kInfDist;
    return sorted[k - 1].distance;
  }
  std::vector<Neighbor> TopK(int k) const {
    auto sorted = Sorted();
    if (static_cast<int>(sorted.size()) > k) {
      sorted.resize(static_cast<std::size_t>(k));
    }
    return sorted;
  }
  void PruneBeyond(double bound) {
    for (auto it = map_.begin(); it != map_.end();) {
      it = it->second > bound ? map_.erase(it) : std::next(it);
    }
  }
  std::size_t size() const { return map_.size(); }

 private:
  std::vector<Neighbor> Sorted() const {
    std::vector<Neighbor> v;
    for (const auto& [id, d] : map_) v.push_back(Neighbor{id, d});
    std::sort(v.begin(), v.end(), [](const Neighbor& a, const Neighbor& b) {
      return a.distance != b.distance ? a.distance < b.distance
                                      : a.id < b.id;
    });
    return v;
  }
  std::map<ObjectId, double> map_;
};

class CandidateSetFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CandidateSetFuzzTest, AgreesWithNaiveModel) {
  Rng rng(testing::FuzzSeed(static_cast<std::uint64_t>(GetParam())) * 99991);
  CandidateSet real;
  NaiveCandidateSet naive;
  const int num_ops = testing::FuzzIterations(/*default_iters=*/3000,
                                              /*hard_cap=*/200000);
  // Odd seeds run a wide tape: enough live ids to overflow the sorted
  // top array (64 entries) and k beyond it, exercising the adaptive-cap
  // growth, displacement, and stale-rebuild paths. Even seeds keep the
  // original narrow tape (everything inside the array).
  const bool wide = GetParam() % 2 == 1;
  const int id_space = wide ? 300 : 60;
  const int max_k = wide ? 150 : 8;
  for (int op = 0; op < num_ops; ++op) {
    const ObjectId id = static_cast<ObjectId>(rng.NextIndex(id_space));
    // Quantized distances produce plenty of exact ties.
    const double dist = static_cast<double>(rng.NextIndex(40)) * 0.25;
    switch (rng.NextIndex(5)) {
      case 0:
      case 1:
        EXPECT_EQ(real.Offer(id, dist), naive.Offer(id, dist));
        break;
      case 2:
        real.Set(id, dist);
        naive.Set(id, dist);
        break;
      case 3: {
        const auto a = real.Remove(id);
        const auto b = naive.Remove(id);
        EXPECT_EQ(a.has_value(), b.has_value());
        if (a && b) {
          EXPECT_DOUBLE_EQ(*a, *b);
        }
        break;
      }
      case 4: {
        const double bound = static_cast<double>(rng.NextIndex(40)) * 0.25;
        real.PruneBeyond(bound);
        naive.PruneBeyond(bound);
        break;
      }
    }
    ASSERT_EQ(real.size(), naive.size());
    const int k = 1 + static_cast<int>(rng.NextIndex(max_k));
    ASSERT_EQ(real.KthDist(k), naive.KthDist(k));
    if (op % 50 == 0) {
      const auto a = real.TopK(k);
      const auto b = naive.TopK(k);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_DOUBLE_EQ(a[i].distance, b[i].distance);
      }
    }
  }
  // Final full comparison.
  const auto a = real.All();
  const auto b = naive.TopK(static_cast<int>(naive.size()));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].distance, b[i].distance);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateSetFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

/// Default size of CandidateSet's sorted nearest-entries array.
constexpr int kCap = 64;

class CandidateSetPrefixTest : public ::testing::TestWithParam<int> {};

TEST_P(CandidateSetPrefixTest, RankedReadsAgreeAtArrayBoundaries) {
  // The sorted array tracks an exact prefix of the order and is rebuilt
  // only when fewer than k entries remain tracked. Hammer that around the
  // array's size: one set per k in {1, cap-1, cap, cap+1, 2cap} (each read
  // only at its k, so the array grows to exactly that k past the cap) plus
  // one read at every k, all fed the same tape of inserts, lowers, raises,
  // removals and prunes, and all checked after every operation.
  Rng rng(testing::FuzzSeed(static_cast<std::uint64_t>(GetParam())) * 7919);
  const int num_ops = testing::FuzzIterations(/*default_iters=*/4000,
                                              /*hard_cap=*/200000);
  const std::vector<int> ks = {1, kCap - 1, kCap, kCap + 1, 2 * kCap};
  std::vector<CandidateSet> per_k(ks.size());
  CandidateSet mixed;
  NaiveCandidateSet naive;
  auto apply = [&](auto&& op) {
    for (CandidateSet& set : per_k) op(set);
    op(mixed);
  };
  for (int op = 0; op < num_ops; ++op) {
    const ObjectId id = static_cast<ObjectId>(rng.NextIndex(400));
    const double dist = static_cast<double>(rng.NextIndex(80)) * 0.25;
    // Keep the population between the boundaries: grow while small,
    // churn once large.
    const std::uint64_t roll = rng.NextIndex(naive.size() < 150 ? 6 : 10);
    if (roll < 3) {
      const bool changed = naive.Offer(id, dist);
      apply([&](CandidateSet& set) { EXPECT_EQ(set.Offer(id, dist), changed); });
    } else if (roll < 5) {
      // Set both lowers and raises.
      naive.Set(id, dist);
      apply([&](CandidateSet& set) { set.Set(id, dist); });
    } else if (roll < 9) {
      const auto want = naive.Remove(id);
      apply([&](CandidateSet& set) {
        const auto got = set.Remove(id);
        EXPECT_EQ(got.has_value(), want.has_value());
      });
    } else if (rng.NextIndex(20) == 0) {
      const double bound = 5.0 + static_cast<double>(rng.NextIndex(60)) * 0.25;
      naive.PruneBeyond(bound);
      apply([&](CandidateSet& set) { set.PruneBeyond(bound); });
    }
    const std::vector<Neighbor> sorted =
        naive.TopK(static_cast<int>(naive.size()));
    auto check = [&](const CandidateSet& set, int k) {
      ASSERT_EQ(set.size(), sorted.size());
      const double want_kth = static_cast<int>(sorted.size()) < k
                                  ? kInfDist
                                  : sorted[k - 1].distance;
      ASSERT_EQ(set.KthDist(k), want_kth) << "op " << op << " k " << k;
      const std::vector<Neighbor> got = set.TopK(k);
      ASSERT_EQ(got.size(), std::min<std::size_t>(k, sorted.size()));
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].id, sorted[i].id) << "op " << op << " k " << k;
        ASSERT_EQ(got[i].distance, sorted[i].distance);
      }
    };
    for (std::size_t i = 0; i < ks.size(); ++i) check(per_k[i], ks[i]);
    for (int k : ks) check(mixed, k);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateSetPrefixTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace cknn
