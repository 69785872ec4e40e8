#ifndef CKNN_UTIL_ID_MAP_H_
#define CKNN_UTIL_ID_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace cknn {

/// \brief Compact `uint64 -> T` hash map for the per-query state of the
/// expansion hot path (settled nodes, frontier labels, heap positions,
/// known-object distances).
///
/// Open addressing over a power-of-two slot array with linear probing and
/// backward-shift erase (no tombstones), at most 3/4 full. Memory is
/// proportional to the live entries — a query that settled a dozen nodes of
/// a large graph holds a 16-slot array, wherever those nodes are in the id
/// range. Capacity only grows: `Clear()` keeps the slot array for the next
/// expansion of the same query.
///
/// Every 64-bit id is a valid key. Empty slots are marked with the id
/// `UINT64_MAX`; an entry whose key *is* `UINT64_MAX` lives in a side slot
/// outside the array.
///
/// **Values move.** Insertion may rehash and erasure shifts later entries
/// back, so a `T*` or `T&` obtained from `Find`/`operator[]`/`TryEmplace` is
/// valid only until the next insert, erase or clear. Look the value up
/// again after any of them.
template <typename T>
class IdMap {
 public:
  IdMap() = default;

  /// Pointer to the live value for `id`, or nullptr if absent.
  T* Find(std::uint64_t id) {
    if (id == kEmpty) return has_max_ ? &max_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    Slot& s = slots_[Probe(id)];
    return s.id == id ? &s.value : nullptr;
  }
  const T* Find(std::uint64_t id) const {
    return const_cast<IdMap*>(this)->Find(id);
  }

  bool Contains(std::uint64_t id) const { return Find(id) != nullptr; }

  /// Live value for `id`, value-initializing it first if absent.
  T& operator[](std::uint64_t id) { return *Emplace(id).first; }

  /// Inserts `id -> value` if `id` is absent. Returns the stored value
  /// (untouched if `id` was present) and whether the insert happened.
  std::pair<T*, bool> TryEmplace(std::uint64_t id, const T& value) {
    const auto result = Emplace(id);
    if (result.second) *result.first = value;
    return result;
  }

  /// Removes `id`; returns true if it was present. Later entries of the
  /// probe run shift back into the hole, so no tombstone is left.
  bool Erase(std::uint64_t id) {
    if (id == kEmpty) {
      if (!has_max_) return false;
      has_max_ = false;
      --size_;
      return true;
    }
    if (slots_.empty()) return false;
    std::size_t hole = Probe(id);
    if (slots_[hole].id != id) return false;
    for (std::size_t j = Next(hole); slots_[j].id != kEmpty; j = Next(j)) {
      // The entry at j may fill the hole iff the hole lies on its probe
      // path, i.e. cyclically within [home(j), j).
      if (((j - hole) & Mask()) <= ((j - Home(slots_[j].id)) & Mask())) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].id = kEmpty;
    --size_;
    return true;
  }

  /// Removes every entry; the slot array is kept for reuse.
  void Clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) s.id = kEmpty;
    has_max_ = false;
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots in the array (0 until the first insert).
  std::size_t capacity() const { return slots_.size(); }

  /// Calls `f(id, const T&)` for every live entry in ascending id order.
  /// Sorts the live ids per call: O(size log size).
  template <typename F>
  void ForEach(F&& f) const {
    for (std::size_t i : SortedSlots()) f(slots_[i].id, slots_[i].value);
    if (has_max_) f(kEmpty, max_value_);
  }

  /// As ForEach, with mutable values. `f` must not insert or erase.
  template <typename F>
  void ForEachMutable(F&& f) {
    for (std::size_t i : SortedSlots()) f(slots_[i].id, slots_[i].value);
    if (has_max_) f(kEmpty, max_value_);
  }

  /// Calls `f(id, const T&)` for every live entry in slot order, which
  /// depends on the insertion history. Only for order-free work: the
  /// determinism lint flags every call as `unordered-iter`.
  template <typename F>
  void ForEachUnordered(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.id != kEmpty) f(s.id, s.value);
    }
    if (has_max_) f(kEmpty, max_value_);
  }

  /// Heap footprint: the slot array.
  std::size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  static constexpr std::uint64_t kEmpty =
      std::numeric_limits<std::uint64_t>::max();
  static constexpr std::size_t kMinCapacity = 4;

  struct Slot {
    std::uint64_t id = kEmpty;
    T value{};
  };

  std::size_t Mask() const { return slots_.size() - 1; }
  std::size_t Next(std::size_t i) const { return (i + 1) & Mask(); }

  /// Fibonacci hashing: the top bits of id * 2^64/phi, so consecutive node
  /// ids spread over the array instead of filling one run.
  std::size_t Home(std::uint64_t id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Index of `id`'s slot, or of the empty slot ending its probe run.
  /// Requires a non-empty array (the load cap keeps one slot empty).
  std::size_t Probe(std::uint64_t id) const {
    std::size_t i = Home(id);
    while (slots_[i].id != id && slots_[i].id != kEmpty) i = Next(i);
    return i;
  }

  /// Value slot for `id` and whether it was inserted (value-initialized).
  std::pair<T*, bool> Emplace(std::uint64_t id) {
    if (id == kEmpty) {
      const bool inserted = !has_max_;
      if (inserted) {
        has_max_ = true;
        max_value_ = T{};
        ++size_;
      }
      return {&max_value_, inserted};
    }
    std::size_t i = 0;
    if (!slots_.empty()) {
      i = Probe(id);
      if (slots_[i].id == id) return {&slots_[i].value, false};
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Grow();
      i = Probe(id);
    }
    slots_[i].id = id;
    slots_[i].value = T{};
    ++size_;
    return {&slots_[i].value, true};
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? kMinCapacity : 2 * old.size();
    slots_.assign(cap, Slot{});
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (Slot& s : old) {
      if (s.id != kEmpty) slots_[Probe(s.id)] = std::move(s);
    }
  }

  std::vector<std::size_t> SortedSlots() const {
    std::vector<std::size_t> order;
    order.reserve(size_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].id != kEmpty) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
      return slots_[a].id < slots_[b].id;
    });
    return order;
  }

  std::vector<Slot> slots_;
  int shift_ = 64;  ///< 64 - log2(capacity); Home() needs a non-empty array.
  std::size_t size_ = 0;
  bool has_max_ = false;
  T max_value_{};
};

}  // namespace cknn

#endif  // CKNN_UTIL_ID_MAP_H_
