#include "src/core/top_k.h"

#include <algorithm>

#include "src/util/macros.h"

namespace cknn {

void CandidateSet::Track(const Key& key) {
  const std::size_t cap = static_cast<std::size_t>(top_cap_);
  const bool ahead = !top_.empty() && key < top_.back();
  const bool others_tracked = top_.size() + 1 == by_id_.size();
  // Behind back(), the key joins only if every other entry is tracked and
  // there is room; otherwise it stays untracked.
  if (!ahead && (!others_tracked || top_.size() == cap)) return;
  if (top_.size() == cap) {
    top_.pop_back();  // Before the insert, so the array never outgrows cap.
  } else if (top_.size() == top_.capacity()) {
    top_.reserve(std::min(cap, std::max<std::size_t>(4, 2 * top_.size())));
  }
  top_.insert(std::lower_bound(top_.begin(), top_.end(), key), key);
}

void CandidateSet::Untrack(const Key& key) {
  const auto it = std::lower_bound(top_.begin(), top_.end(), key);
  if (it != top_.end() && *it == key) top_.erase(it);
}

void CandidateSet::EnsureTop(int k) const {
  top_cap_ = std::max(top_cap_, k);
  if (top_.size() >= static_cast<std::size_t>(k) ||
      top_.size() == by_id_.size()) {
    return;
  }
  std::vector<Key> keys;
  keys.reserve(by_id_.size());
  // cknn-lint: allow(unordered-iter) selected and sorted under a total order
  by_id_.ForEachUnordered([&](std::uint64_t id, const double& dist) {
    keys.emplace_back(dist, static_cast<ObjectId>(id));
  });
  const auto n = static_cast<std::ptrdiff_t>(
      std::min(keys.size(), static_cast<std::size_t>(top_cap_)));
  std::nth_element(keys.begin(), keys.begin() + n - 1, keys.end());
  std::sort(keys.begin(), keys.begin() + n - 1);
  top_.assign(keys.begin(), keys.begin() + n);
}

bool CandidateSet::Offer(ObjectId id, double dist) {
  const auto [stored, inserted] = by_id_.TryEmplace(id, dist);
  if (!inserted) {
    if (dist >= *stored) return false;
    const Key old{*stored, id};
    *stored = dist;
    Untrack(old);
  }
  Track(Key{dist, id});
  return true;
}

void CandidateSet::Set(ObjectId id, double dist) {
  const auto [stored, inserted] = by_id_.TryEmplace(id, dist);
  if (!inserted) {
    if (dist == *stored) return;
    const Key old{*stored, id};
    *stored = dist;
    Untrack(old);
  }
  Track(Key{dist, id});
}

std::optional<double> CandidateSet::Remove(ObjectId id) {
  const double* stored = by_id_.Find(id);
  if (stored == nullptr) return std::nullopt;
  const double dist = *stored;
  Untrack(Key{dist, id});
  by_id_.Erase(id);
  return dist;
}

std::optional<double> CandidateSet::DistanceOf(ObjectId id) const {
  const double* stored = by_id_.Find(id);
  if (stored == nullptr) return std::nullopt;
  return *stored;
}

double CandidateSet::KthDist(int k) const {
  CKNN_DCHECK(k >= 1);
  if (by_id_.size() < static_cast<std::size_t>(k)) return kInfDist;
  EnsureTop(k);
  return top_[static_cast<std::size_t>(k) - 1].first;
}

std::vector<Neighbor> CandidateSet::TopK(int k) const {
  CKNN_DCHECK(k >= 1);
  EnsureTop(k);
  const std::size_t n = std::min(static_cast<std::size_t>(k), top_.size());
  std::vector<Neighbor> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(Neighbor{top_[i].second, top_[i].first});
  }
  return out;
}

std::vector<Neighbor> CandidateSet::All() const {
  std::vector<Neighbor> out;
  out.reserve(by_id_.size());
  // cknn-lint: allow(unordered-iter) collected then sorted below
  by_id_.ForEachUnordered([&](std::uint64_t id, const double& dist) {
    out.push_back(Neighbor{static_cast<ObjectId>(id), dist});
  });
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    return Key{a.distance, a.id} < Key{b.distance, b.id};
  });
  return out;
}

void CandidateSet::PruneBeyond(double bound) {
  std::vector<ObjectId> doomed;
  // cknn-lint: allow(unordered-iter) keyed erases, order-free
  by_id_.ForEachUnordered([&](std::uint64_t id, const double& dist) {
    if (dist > bound) doomed.push_back(static_cast<ObjectId>(id));
  });
  for (ObjectId id : doomed) by_id_.Erase(id);
  // Untracked keys ranked behind the dropped tail: the prefix stays exact.
  while (!top_.empty() && top_.back().first > bound) top_.pop_back();
}

void CandidateSet::Clear() {
  by_id_.Clear();
  top_.clear();
}

std::size_t CandidateSet::MemoryBytes() const {
  return by_id_.MemoryBytes() + top_.capacity() * sizeof(Key);
}

}  // namespace cknn
