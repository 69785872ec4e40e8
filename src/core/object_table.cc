#include "src/core/object_table.h"

#include "src/util/macros.h"
#include "src/util/mem.h"

namespace cknn {

Status ObjectTable::Insert(ObjectId id, const NetworkPoint& pos) {
  if (pos.edge >= per_edge_.size()) {
    return Status::InvalidArgument("object position on unknown edge");
  }
  auto [it, inserted] = positions_.emplace(id, pos);
  (void)it;
  if (!inserted) return Status::AlreadyExists("object id already present");
  per_edge_[pos.edge].push_back(EdgeObject{id, pos.t});
  return Status::OK();
}

Status ObjectTable::Remove(ObjectId id) {
  auto it = positions_.find(id);
  if (it == positions_.end()) return Status::NotFound("unknown object id");
  DetachFromEdge(id, it->second.edge);
  positions_.erase(it);
  return Status::OK();
}

Status ObjectTable::Move(ObjectId id, const NetworkPoint& new_pos) {
  if (new_pos.edge >= per_edge_.size()) {
    return Status::InvalidArgument("object position on unknown edge");
  }
  auto it = positions_.find(id);
  if (it == positions_.end()) return Status::NotFound("unknown object id");
  if (it->second.edge != new_pos.edge) {
    DetachFromEdge(id, it->second.edge);
    per_edge_[new_pos.edge].push_back(EdgeObject{id, new_pos.t});
  } else {
    EdgeObject* rec = FindOnEdge(id, new_pos.edge);
    if (rec == nullptr) {
      return Status::Internal("object missing from its edge list");
    }
    rec->t = new_pos.t;
  }
  it->second = new_pos;
  return Status::OK();
}

Status ObjectTable::Apply(const ObjectUpdate& update) {
  if (update.old_pos.has_value() && update.new_pos.has_value()) {
    return Move(update.id, *update.new_pos);
  }
  if (update.old_pos.has_value()) return Remove(update.id);
  if (update.new_pos.has_value()) return Insert(update.id, *update.new_pos);
  return Status::OK();
}

Result<NetworkPoint> ObjectTable::Position(ObjectId id) const {
  auto it = positions_.find(id);
  if (it == positions_.end()) return Status::NotFound("unknown object id");
  return it->second;
}

const std::vector<ObjectTable::EdgeObject>& ObjectTable::ObjectsOn(
    EdgeId e) const {
  CKNN_CHECK(e < per_edge_.size());
  return per_edge_[e];
}

ObjectTable::EdgeObject* ObjectTable::FindOnEdge(ObjectId id, EdgeId e) {
  for (EdgeObject& o : per_edge_[e]) {
    if (o.id == id) return &o;
  }
  return nullptr;
}

void ObjectTable::DetachFromEdge(ObjectId id, EdgeId e) {
  EdgeObject* rec = FindOnEdge(id, e);
  CKNN_CHECK(rec != nullptr);
  // Order within an edge list is immaterial: swap-erase.
  std::vector<EdgeObject>& list = per_edge_[e];
  *rec = list.back();
  list.pop_back();
}

std::size_t ObjectTable::MemoryBytes() const {
  std::size_t bytes = HashMapBytes(positions_) +
                      per_edge_.capacity() * sizeof(per_edge_[0]);
  for (const auto& list : per_edge_) bytes += VectorBytes(list);
  return bytes;
}

}  // namespace cknn
