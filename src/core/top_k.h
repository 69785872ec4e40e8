#ifndef CKNN_CORE_TOP_K_H_
#define CKNN_CORE_TOP_K_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/updates.h"
#include "src/graph/types.h"
#include "src/util/id_map.h"

namespace cknn {

/// \brief Distance-ordered candidate set — the generalized `q.result` of the
/// paper.
///
/// Stores, for every object the expansion has discovered, its best known
/// network distance. The k nearest neighbors are the k smallest entries;
/// `KthDist(k)` is the paper's `q.kNN_dist` (infinity while fewer than k
/// candidates are known). Keeping *all* discovered candidates — the k best
/// plus everything else inside the covered region — is what lets the
/// incremental algorithms re-rank after outgoing/incoming updates without
/// re-scanning the network, and closes the tie-at-the-kth-distance gap of
/// the paper's presentation.
///
/// Ordering is by (distance, id) so results are deterministic under ties.
///
/// Representation: an `IdMap` from id to distance plus a sorted array of
/// the nearest (distance, id) keys. The array is a *prefix* of the full
/// order: every entry it does not track ranks behind its last key. So
/// inserting or lowering an entry either slots it into the array
/// (displacing the last key when full) or leaves it behind, and removing or
/// raising a tracked entry just drops its key — the survivors are still the
/// nearest. A ranked read at k answers from the array while it tracks at
/// least k entries (or all of them), and only otherwise rebuilds it with
/// one `nth_element` over the map. The array holds at most `kTopCap` (64)
/// keys by default and grows to the largest k ever asked of a ranked read,
/// so large-k workloads (the paper's Fig. 14a goes to k = 200) keep O(1)
/// reads.
class CandidateSet {
 public:
  CandidateSet() = default;

  /// Lowers the stored distance of `id` to `dist` if it improves (or inserts
  /// it). Returns true if the set changed.
  bool Offer(ObjectId id, double dist);

  /// Replaces the stored distance of `id` (inserting if absent), regardless
  /// of direction. Used when a known object's distance is re-derived after
  /// weight changes.
  void Set(ObjectId id, double dist);

  /// Removes `id` if present; returns its old distance, or nullopt.
  std::optional<double> Remove(ObjectId id);

  /// Stored distance of `id`, or nullopt.
  std::optional<double> DistanceOf(ObjectId id) const;

  bool Contains(ObjectId id) const { return by_id_.Contains(id); }

  std::size_t size() const { return by_id_.size(); }
  bool empty() const { return by_id_.empty(); }

  /// Distance of the k-th nearest candidate; +inf while size() < k.
  double KthDist(int k) const;

  /// The k nearest candidates in (distance, id) order (fewer if size() < k).
  std::vector<Neighbor> TopK(int k) const;

  /// All candidates in (distance, id) order.
  std::vector<Neighbor> All() const;

  /// Removes every candidate with distance > bound.
  void PruneBeyond(double bound);

  void Clear();

  /// Estimated heap footprint in bytes.
  std::size_t MemoryBytes() const;

  /// Iteration over (id, distance) pairs; unspecified order.
  template <typename F>
  void ForEachCandidate(F&& f) const {
    // cknn-lint: allow(unordered-iter) order documented unspecified at callers
    by_id_.ForEachUnordered([&](std::uint64_t id, const double& dist) {
      f(static_cast<ObjectId>(id), dist);
    });
  }

 private:
  using Key = std::pair<double, ObjectId>;

  /// Default size of the sorted nearest-entries array; covers every
  /// small-k workload without growth.
  static constexpr int kTopCap = 64;

  /// Places the key of an entry the array does not track: into the array
  /// if it ranks ahead of the last key (displacing that key when full), or
  /// at the end if every other entry is tracked and there is room.
  void Track(const Key& key);
  /// Drops `key` from the array if it is there.
  void Untrack(const Key& key);
  /// Grows the cap to `k` and rebuilds the array if it tracks fewer than
  /// min(k, size()) entries (const: the array is a cache).
  void EnsureTop(int k) const;

  IdMap<double> by_id_;
  /// The nearest keys, ascending; every untracked key ranks behind back().
  mutable std::vector<Key> top_;
  /// Keys the array may hold: kTopCap or the largest k asked, if larger.
  mutable int top_cap_ = kTopCap;
};

}  // namespace cknn

#endif  // CKNN_CORE_TOP_K_H_
