// Fixture: IdMap::ForEachUnordered visits entries in slot order, which
// follows the insertion history like a hash table's; every call counts as
// unordered-iter. ForEach (ascending ids) is the ordered sibling and is
// clean, and so is an escaped call.
#include <cstdint>
#include <vector>

#include "src/util/id_map.h"

struct Known {
  cknn::IdMap<double> by_id_;
  cknn::IdMap<double>* other_ = nullptr;

  std::vector<std::uint64_t> Ids() const {
    std::vector<std::uint64_t> ids;
    by_id_.ForEachUnordered(  // LINT-EXPECT: unordered-iter
        [&](std::uint64_t id, const double&) { ids.push_back(id); });
    return ids;
  }

  double Sum() const {
    double total = 0.0;
    other_->ForEachUnordered([&](std::uint64_t, const double& d) {  // LINT-EXPECT: unordered-iter
      total += d;
    });
    return total;
  }

  std::vector<std::uint64_t> SortedIds() const {
    std::vector<std::uint64_t> ids;
    by_id_.ForEach([&](std::uint64_t id, const double&) { ids.push_back(id); });
    return ids;
  }

  double Max() const {
    double best = 0.0;
    // cknn-lint: allow(unordered-iter) max is order-free
    by_id_.ForEachUnordered([&](std::uint64_t, const double& d) {
      if (d > best) best = d;
    });
    return best;
  }
};
