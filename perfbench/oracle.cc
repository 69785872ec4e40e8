#include "perfbench/oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>

namespace cknn::perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool Close(double a, double b) {
  return std::abs(a - b) <=
         NaiveOracle::kRelTol * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

NaiveOracle::NaiveOracle(const RoadNetwork& net,
                         std::vector<NetworkPoint> objects)
    : edges_(net.NumEdges()),
      adjacency_(net.NumNodes()),
      objects_(std::move(objects)) {
  for (EdgeId e = 0; e < net.NumEdges(); ++e) {
    const RoadNetwork::Edge edge = net.edge(e);
    edges_[e] = EdgeRec{edge.u, edge.v, edge.weight};
    adjacency_[edge.u].emplace_back(edge.v, e);
    adjacency_[edge.v].emplace_back(edge.u, e);
  }
}

std::vector<double> NaiveOracle::Distances(NodeId source) const {
  std::vector<double> dist(adjacency_.size(), kInf);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[source] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, n] = heap.top();
    heap.pop();
    if (d > dist[n]) continue;  // Stale entry.
    for (const auto& [m, e] : adjacency_[n]) {
      const double nd = d + edges_[e].weight;
      if (nd < dist[m]) {
        dist[m] = nd;
        heap.emplace(nd, m);
      }
    }
  }
  return dist;
}

std::string NaiveOracle::Verify(const NetworkPoint& q, int k,
                                const std::vector<Neighbor>& got) const {
  const EdgeRec& qe = edges_[q.edge];
  const std::vector<double> from_u = Distances(qe.u);
  const std::vector<double> from_v = Distances(qe.v);
  auto node_dist = [&](NodeId n) {
    return std::min(q.t * qe.weight + from_u[n],
                    (1.0 - q.t) * qe.weight + from_v[n]);
  };
  std::vector<double> dist(objects_.size());
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    const NetworkPoint& p = objects_[i];
    const EdgeRec& pe = edges_[p.edge];
    double d = std::min(node_dist(pe.u) + p.t * pe.weight,
                        node_dist(pe.v) + (1.0 - p.t) * pe.weight);
    if (p.edge == q.edge) d = std::min(d, std::abs(p.t - q.t) * qe.weight);
    dist[i] = d;
  }

  const std::size_t want =
      std::min(static_cast<std::size_t>(k), objects_.size());
  if (got.size() != want) {
    return "result has " + std::to_string(got.size()) + " neighbors, want " +
           std::to_string(want);
  }
  std::vector<double> best = dist;
  std::nth_element(best.begin(), best.begin() + want, best.end());
  best.resize(want);
  std::sort(best.begin(), best.end());
  std::vector<ObjectId> ids;
  for (std::size_t r = 0; r < want; ++r) {
    const Neighbor& n = got[r];
    if (n.id >= objects_.size()) {
      return "unknown object id " + std::to_string(n.id);
    }
    if (!Close(n.distance, dist[n.id])) {
      return "object " + std::to_string(n.id) + " reported at " +
             std::to_string(n.distance) + ", true distance " +
             std::to_string(dist[n.id]);
    }
    if (!Close(n.distance, best[r])) {
      return "rank " + std::to_string(r) + " distance " +
             std::to_string(n.distance) + ", true " + std::to_string(best[r]);
    }
    ids.push_back(n.id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "duplicate object id in result";
  }
  return "";
}

bool SameDistances(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!Close(a[i].distance, b[i].distance)) return false;
  }
  return true;
}

}  // namespace cknn::perfbench
