#ifndef CKNN_UTIL_INDEXED_MIN_HEAP_H_
#define CKNN_UTIL_INDEXED_MIN_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/id_map.h"
#include "src/util/macros.h"

namespace cknn {

/// \brief Binary min-heap keyed by double with decrease-key support,
/// addressable by an integer id. This is the search heap `H` of the paper's
/// Figure 2: network expansion needs to decrease the tentative distance of a
/// node that is already en-heaped (lines 20-23).
///
/// Ids are arbitrary 64-bit integers (node ids in practice); positions are
/// tracked in an `IdMap`, whose footprint follows the number of en-heaped
/// ids, not the id range.
class IndexedMinHeap {
 public:
  struct Entry {
    std::uint64_t id;
    double key;
  };

  IndexedMinHeap() = default;

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// True iff `id` is currently en-heaped.
  bool Contains(std::uint64_t id) const { return pos_.Contains(id); }

  /// Key of an en-heaped id. Checked error if absent.
  double KeyOf(std::uint64_t id) const {
    const std::size_t* p = pos_.Find(id);
    CKNN_CHECK(p != nullptr);
    return heap_[*p].key;
  }

  /// Smallest entry. Checked error when empty.
  const Entry& Top() const {
    CKNN_CHECK(!heap_.empty());
    return heap_[0];
  }

  /// Inserts a new id. Checked error if already present.
  void Push(std::uint64_t id, double key) {
    const bool inserted = pos_.TryEmplace(id, heap_.size()).second;
    CKNN_CHECK(inserted);
    heap_.push_back(Entry{id, key});
    SiftUp(heap_.size() - 1);
  }

  /// Inserts `id`, or lowers its key if already present with a larger key.
  /// Returns true if the heap changed.
  bool PushOrDecrease(std::uint64_t id, double key) {
    const std::size_t* p = pos_.Find(id);
    if (p == nullptr) {
      Push(id, key);
      return true;
    }
    std::size_t i = *p;
    if (key < heap_[i].key) {
      heap_[i].key = key;
      SiftUp(i);
      return true;
    }
    return false;
  }

  /// Removes and returns the smallest entry.
  Entry Pop() {
    CKNN_CHECK(!heap_.empty());
    Entry top = heap_[0];
    Swap(0, heap_.size() - 1);
    pos_.Erase(top.id);
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
    return top;
  }

  /// Removes an arbitrary id if present; returns true if it was removed.
  bool Erase(std::uint64_t id) {
    const std::size_t* p = pos_.Find(id);
    if (p == nullptr) return false;
    std::size_t i = *p;
    Swap(i, heap_.size() - 1);
    pos_.Erase(id);
    heap_.pop_back();
    if (i < heap_.size()) {
      SiftDown(i);
      SiftUp(i);
    }
    return true;
  }

  void Clear() {
    heap_.clear();
    pos_.Clear();
  }

  /// Estimated heap footprint in bytes: the entry array plus the position
  /// index.
  std::size_t MemoryBytes() const {
    return heap_.capacity() * sizeof(Entry) + pos_.MemoryBytes();
  }

 private:
  void Swap(std::size_t a, std::size_t b) {
    if (a == b) return;
    std::swap(heap_[a], heap_[b]);
    *pos_.Find(heap_[a].id) = a;
    *pos_.Find(heap_[b].id) = b;
  }

  void SiftUp(std::size_t i) {
    while (i > 0) {
      std::size_t parent = (i - 1) / 2;
      if (heap_[parent].key <= heap_[i].key) break;
      Swap(parent, i);
      i = parent;
    }
  }

  void SiftDown(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t left = 2 * i + 1;
      std::size_t right = left + 1;
      std::size_t smallest = i;
      if (left < n && heap_[left].key < heap_[smallest].key) smallest = left;
      if (right < n && heap_[right].key < heap_[smallest].key) {
        smallest = right;
      }
      if (smallest == i) break;
      Swap(i, smallest);
      i = smallest;
    }
  }

  std::vector<Entry> heap_;
  IdMap<std::size_t> pos_;
};

}  // namespace cknn

#endif  // CKNN_UTIL_INDEXED_MIN_HEAP_H_
