#ifndef CKNN_CORE_OBJECT_TABLE_H_
#define CKNN_CORE_OBJECT_TABLE_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "src/core/updates.h"
#include "src/graph/network_point.h"
#include "src/graph/road_network.h"
#include "src/graph/types.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace cknn {

/// \brief Positions of all data objects, with per-edge object lists — the
/// object half of the paper's edge table *ET* (Section 3).
///
/// Lookup directions:
///  * object id -> network point (for update validation and distances),
///  * edge id   -> (id, offset) of every object currently on the edge
///                 (scanned during network expansion, Fig. 2 line 14). The
///                 offset is stored inline, so a scan needs no per-object
///                 position lookup.
class ObjectTable {
 public:
  /// One object of an edge's list: its id and its fraction `t` along the
  /// edge (the `NetworkPoint::t` of its position).
  struct EdgeObject {
    ObjectId id = kInvalidObject;
    double t = 0.0;
  };

  /// \param num_edges edge-count of the network the table serves.
  explicit ObjectTable(std::size_t num_edges) : per_edge_(num_edges) {}

  ObjectTable(const ObjectTable&) = delete;
  ObjectTable& operator=(const ObjectTable&) = delete;
  ObjectTable(ObjectTable&&) = default;
  ObjectTable& operator=(ObjectTable&&) = default;

  /// Registers a new object. AlreadyExists if the id is in use.
  Status Insert(ObjectId id, const NetworkPoint& pos);

  /// Removes an object. NotFound if absent.
  Status Remove(ObjectId id);

  /// Moves an existing object. NotFound if absent; Internal if the table's
  /// two directions disagree about it.
  Status Move(ObjectId id, const NetworkPoint& new_pos);

  /// Applies one location update: old+new = Move, old only = Remove,
  /// new only = Insert, neither = no-op. The single dispatch shared by the
  /// server's table stage and the standalone monitors.
  Status Apply(const ObjectUpdate& update);

  /// Current position of an object.
  Result<NetworkPoint> Position(ObjectId id) const;

  /// Current position of an object, nullptr if absent — for lookups where
  /// absence is an answer, not an error.
  const NetworkPoint* Find(ObjectId id) const {
    auto it = positions_.find(id);
    return it == positions_.end() ? nullptr : &it->second;
  }

  bool Contains(ObjectId id) const { return positions_.count(id) != 0; }

  /// Objects currently lying on edge `e`, in unspecified order.
  const std::vector<EdgeObject>& ObjectsOn(EdgeId e) const;

  std::size_t size() const { return positions_.size(); }

  /// Estimated heap footprint in bytes.
  std::size_t MemoryBytes() const;

 private:
  /// The entry of `id` in edge `e`'s list, or nullptr.
  EdgeObject* FindOnEdge(ObjectId id, EdgeId e);
  void DetachFromEdge(ObjectId id, EdgeId e);

  std::unordered_map<ObjectId, NetworkPoint> positions_;
  std::vector<std::vector<EdgeObject>> per_edge_;
};

}  // namespace cknn

#endif  // CKNN_CORE_OBJECT_TABLE_H_
