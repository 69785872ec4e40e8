#ifndef CKNN_PERFBENCH_ORACLE_H_
#define CKNN_PERFBENCH_ORACLE_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/core/updates.h"
#include "src/graph/network_point.h"
#include "src/graph/road_network.h"
#include "src/graph/types.h"

namespace cknn::perfbench {

/// \brief Deliberately naive k-NN oracle for the benchmark's result checks.
///
/// It copies the edge list (endpoints and weights) out of a network once,
/// builds its own adjacency, and answers each check with two plain
/// `std::priority_queue` Dijkstra runs (one per endpoint of the query's
/// edge) plus a linear scan over every object. It shares no code with the
/// expansion core: not the CSR incidence array, not `IndexedMinHeap` (which
/// `DijkstraDistances` and the engines' `Frontier` both use), not
/// `CandidateSet`, and not the system's `ObjectTable`. The caller keeps the
/// oracle's weights and object positions in step with the update stream it
/// feeds the system under test.
class NaiveOracle {
 public:
  /// Copies topology and current weights of `net`; `objects[i]` is the
  /// position of object id `i`.
  NaiveOracle(const RoadNetwork& net, std::vector<NetworkPoint> objects);

  void SetWeight(EdgeId e, double weight) { edges_[e].weight = weight; }
  void MoveObject(ObjectId id, const NetworkPoint& pos) { objects_[id] = pos; }

  const std::vector<NetworkPoint>& objects() const { return objects_; }

  /// Empty when `got` is a correct k-NN answer for a query at `q`;
  /// otherwise a one-line description of the first discrepancy. Distances
  /// compare with relative tolerance `kRelTol`, so a tie may be broken
  /// either way, but every returned id must sit at its true distance and
  /// the distances must equal the true k smallest rank by rank.
  std::string Verify(const NetworkPoint& q, int k,
                     const std::vector<Neighbor>& got) const;

  static constexpr double kRelTol = 1e-7;

 private:
  struct EdgeRec {
    NodeId u = kInvalidNode;
    NodeId v = kInvalidNode;
    double weight = 0.0;
  };

  /// Single-source distances to every node (inf where unreachable).
  std::vector<double> Distances(NodeId source) const;

  std::vector<EdgeRec> edges_;
  /// Per node: (neighbor, edge) pairs.
  std::vector<std::vector<std::pair<NodeId, EdgeId>>> adjacency_;
  std::vector<NetworkPoint> objects_;
};

/// True iff the two results hold the same distances rank by rank, within
/// `NaiveOracle::kRelTol` (ids may differ only among tied distances).
bool SameDistances(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b);

}  // namespace cknn::perfbench

#endif  // CKNN_PERFBENCH_ORACLE_H_
