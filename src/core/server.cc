#include "src/core/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/util/macros.h"

namespace cknn {

namespace {

std::unique_ptr<PmrQuadtree> BuildSpatialIndex(const RoadNetwork& net) {
  Rect box = net.BoundingBox();
  // Pad so border segments survive floating-point containment checks. The
  // extent-proportional term covers ordinary networks; the absolute floor
  // keeps zero-extent workspaces (single point, coincident degenerate
  // edges) from collapsing into a box too thin to subdivide or search, and
  // is scaled with the coordinate magnitude so it cannot be absorbed by
  // floating-point rounding far from the origin.
  const double extent = std::max(box.Width(), box.Height());
  const double magnitude =
      std::max(std::max(std::abs(box.min_x), std::abs(box.max_x)),
               std::max(std::abs(box.min_y), std::abs(box.max_y)));
  const double pad =
      std::max(1e-3 * extent, std::max(1e-6, 1e-7 * magnitude));
  box.min_x -= pad;
  box.min_y -= pad;
  box.max_x += pad;
  box.max_y += pad;
  auto tree = std::make_unique<PmrQuadtree>(box);
  for (EdgeId e = 0; e < net.NumEdges(); ++e) {
    CKNN_CHECK(tree->Insert(e, net.EdgeSegment(e)).ok());
  }
  return tree;
}

/// Positions entering the system must lie on a known edge at a finite
/// fraction in [0, 1]; NaN offsets would otherwise slide through every
/// `<` comparison downstream (a NaN is ordered against nothing).
Status CheckPoint(const NetworkPoint& p, std::size_t num_edges,
                  const char* what) {
  if (p.edge >= num_edges) {
    return Status::InvalidArgument(std::string(what) + " on unknown edge");
  }
  if (!std::isfinite(p.t) || p.t < 0.0 || p.t > 1.0) {
    return Status::InvalidArgument(
        std::string(what) + " offset is not a finite fraction in [0, 1]");
  }
  return Status::OK();
}

/// An object update against the id's running position (nullopt: absent).
Status CheckObject(const ObjectUpdate& u,
                   const std::optional<NetworkPoint>& current,
                   std::size_t num_edges) {
  if (u.old_pos.has_value()) {
    if (!current.has_value()) {
      return Status::NotFound("update for unknown object");
    }
    if (!(*current == *u.old_pos)) {
      return Status::InvalidArgument(
          "object update old position does not match the table");
    }
  } else if (current.has_value()) {
    return Status::AlreadyExists("object appears but already exists");
  }
  if (!u.new_pos.has_value()) return Status::OK();
  return CheckPoint(*u.new_pos, num_edges, "object position");
}

/// A query update against the id's running registration. Every check
/// here mirrors an engine error return, so a folded batch cannot fail in
/// a shard.
Status CheckQuery(const QueryUpdate& u, bool registered,
                  std::size_t num_edges) {
  switch (u.kind) {
    case QueryUpdate::Kind::kTerminate:
      if (!registered) return Status::NotFound("terminate for unknown query");
      return Status::OK();
    case QueryUpdate::Kind::kMove:
      if (!registered) return Status::NotFound("move for unknown query");
      return CheckPoint(u.pos, num_edges, "query move position");
    case QueryUpdate::Kind::kInstall:
      if (registered) {
        return Status::AlreadyExists("query id already monitored");
      }
      if (u.k < 1) return Status::InvalidArgument("k must be >= 1");
      return CheckPoint(u.pos, num_edges, "query position");
  }
  return Status::OK();
}

/// A weight update: known edge, finite non-negative weight (NaN fails
/// every `<` comparison, so `new_weight < 0.0` alone would let it through).
Status CheckEdge(const EdgeUpdate& u, std::size_t num_edges) {
  if (u.edge >= num_edges) {
    return Status::NotFound("weight update for unknown edge");
  }
  if (!std::isfinite(u.new_weight) || u.new_weight < 0.0) {
    return Status::InvalidArgument(
        "edge weight must be finite and non-negative");
  }
  return Status::OK();
}

}  // namespace

MonitoringServer::MonitoringServer(RoadNetwork network, Algorithm algorithm,
                                   int num_shards, int pipeline_depth)
    : network_(std::move(network)),
      objects_(network_.NumEdges()),
      spatial_index_(BuildSpatialIndex(network_)),
      algorithm_(algorithm),
      pipeline_depth_(pipeline_depth),
      shards_(&network_, &objects_, algorithm, num_shards,
              /*pipelined=*/pipeline_depth > 1) {
  CKNN_CHECK(pipeline_depth >= 1 && pipeline_depth <= 2);
}

MonitoringServer::Fold MonitoringServer::FoldBatch(
    const UpdateBatch& batch, const MonitoringServer* tables) {
  using Stream = Verdict::Stream;
  Fold out;
  const std::size_t num_edges = tables != nullptr
                                    ? tables->network_.NumEdges()
                                    : std::numeric_limits<std::size_t>::max();
  // Each stream maps an id to its slot on first valid sight; a refused
  // first update takes its slot back, so the id's state before the batch
  // is looked up again at its next update.

  // Objects: out.batch.objects[slot] is the id's chain so far — old_pos
  // its position before the batch, new_pos its running position — which
  // is also its folded update (first old position, last new position).
  std::unordered_map<ObjectId, std::size_t> object_slot;
  object_slot.reserve(batch.objects.size());
  std::vector<ObjectUpdate>& objects = out.batch.objects;
  for (std::size_t i = 0; i < batch.objects.size(); ++i) {
    const ObjectUpdate& u = batch.objects[i];
    if (!u.old_pos.has_value() && !u.new_pos.has_value()) {
      continue;  // A no-op at any table state (ObjectTable::Apply).
    }
    const auto [it, fresh] = object_slot.try_emplace(u.id, objects.size());
    std::optional<NetworkPoint> current;
    if (!fresh) {
      current = objects[it->second].new_pos;
    } else if (tables == nullptr) {
      current = u.old_pos;
    } else if (const NetworkPoint* pos = tables->objects_.Find(u.id)) {
      current = *pos;
    }
    Status status = CheckObject(u, current, num_edges);
    if (!status.ok()) {
      out.verdicts.push_back(Verdict{Stream::kObjects, i, std::move(status)});
      if (fresh) object_slot.erase(it);
    } else if (fresh) {
      objects.push_back(u);
    } else {
      objects[it->second].new_pos = u.new_pos;
    }
  }
  // A chain that appeared and disappeared within the batch is a no-op.
  objects.erase(std::remove_if(objects.begin(), objects.end(),
                               [](const ObjectUpdate& u) {
                                 return !u.old_pos.has_value() &&
                                        !u.new_pos.has_value();
                               }),
                objects.end());

  // Queries: fold each id's install/move/terminate chain into its net
  // effect. A registered query that terminates and re-installs within the
  // timestamp cannot collapse into a single update (a bare install would
  // collide with the still-registered id), so it is emitted as a
  // kTerminate immediately followed by a kInstall — the one sanctioned
  // exception to "one update per entity" (see Monitor::ProcessTimestamp):
  // every algorithm processes terminations before installations.
  struct QueryChain {
    QueryId id;
    bool began_alive;  ///< Registered before the batch.
    bool alive;        ///< Registered after the chain so far.
    bool installed;    ///< The current registration is this batch's.
    NetworkPoint pos;
    int k;
  };
  std::vector<QueryChain> chains;
  std::unordered_map<QueryId, std::size_t> query_slot;
  query_slot.reserve(batch.queries.size());
  for (std::size_t i = 0; i < batch.queries.size(); ++i) {
    const QueryUpdate& u = batch.queries[i];
    const auto [it, fresh] = query_slot.try_emplace(u.id, chains.size());
    bool registered = false;
    if (!fresh) {
      registered = chains[it->second].alive;
    } else if (tables == nullptr) {
      registered = u.kind != QueryUpdate::Kind::kInstall;
    } else {
      registered = tables->shards_.IsRegistered(u.id);
    }
    Status status = CheckQuery(u, registered, num_edges);
    if (!status.ok()) {
      out.verdicts.push_back(Verdict{Stream::kQueries, i, std::move(status)});
      if (fresh) query_slot.erase(it);
      continue;
    }
    if (fresh) {
      chains.push_back(
          QueryChain{u.id, registered, registered, false, NetworkPoint{}, 1});
    }
    QueryChain& chain = chains[it->second];
    switch (u.kind) {
      case QueryUpdate::Kind::kInstall:
        chain.alive = chain.installed = true;
        chain.pos = u.pos;
        chain.k = u.k;
        break;
      case QueryUpdate::Kind::kMove:
        chain.pos = u.pos;
        break;
      case QueryUpdate::Kind::kTerminate:
        chain.alive = false;
        break;
    }
  }
  for (const QueryChain& c : chains) {
    if (c.began_alive && (!c.alive || c.installed)) {
      out.batch.queries.push_back(
          QueryUpdate{c.id, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
    }
    if (!c.alive) continue;
    out.batch.queries.push_back(
        c.installed ? QueryUpdate{c.id, QueryUpdate::Kind::kInstall, c.pos, c.k}
                    : QueryUpdate{c.id, QueryUpdate::Kind::kMove, c.pos, 0});
  }

  // Edges: last weight wins (the paper aggregates weight changes into one
  // overall change per timestamp).
  std::unordered_map<EdgeId, std::size_t> edge_slot;
  edge_slot.reserve(batch.edges.size());
  for (std::size_t i = 0; i < batch.edges.size(); ++i) {
    const EdgeUpdate& u = batch.edges[i];
    Status status = CheckEdge(u, num_edges);
    if (!status.ok()) {
      out.verdicts.push_back(Verdict{Stream::kEdges, i, std::move(status)});
      continue;
    }
    const auto [it, fresh] =
        edge_slot.try_emplace(u.edge, out.batch.edges.size());
    if (fresh) {
      out.batch.edges.push_back(u);
    } else {
      out.batch.edges[it->second].new_weight = u.new_weight;
    }
  }
  return out;
}

UpdateBatch MonitoringServer::AggregateBatch(const UpdateBatch& batch) {
  return FoldBatch(batch, nullptr).batch;
}

void MonitoringServer::Commit(const UpdateBatch& folded) {
  // Apply barrier: the shared table may only mutate once the in-flight
  // tick has fully retired. The fold refuses every update an engine would
  // reject, and by the time a shard runs the shared table is already
  // mutated, so a shard failure is corrupted engine state, not bad input:
  // it must not escape as a Status from a server that looks usable.
  if (shards_.InFlight()) {
    const Status retired = shards_.WaitProcessTimestamp();
    CKNN_CHECK(retired.ok());
  }
  // The shards run in shared-table mode and only route these updates
  // through their maintenance structures; during the parallel phase the
  // table is read-only.
  for (const ObjectUpdate& u : folded.objects) {
    CKNN_CHECK(objects_.Apply(u).ok());
  }
  if (pipeline_depth_ == 1) {
    const Status processed = shards_.ProcessTimestamp(folded);
    CKNN_CHECK(processed.ok());
  } else {
    // BeginProcessTimestamp copies the batch into per-shard scratch, so
    // the folded batch does not need to outlive this call.
    shards_.BeginProcessTimestamp(folded);
  }
  ++timestamp_;
}

Status MonitoringServer::SubmitBatch(const UpdateBatch& batch) {
  const Fold fold = FoldBatch(batch, this);
  if (!fold.verdicts.empty()) return fold.verdicts.front().status;
  Commit(fold.batch);
  return Status::OK();
}

std::vector<MonitoringServer::Verdict> MonitoringServer::SubmitValid(
    const UpdateBatch& batch) {
  Fold fold = FoldBatch(batch, this);
  const std::size_t updates =
      batch.objects.size() + batch.queries.size() + batch.edges.size();
  if (fold.verdicts.size() < updates) Commit(fold.batch);
  return std::move(fold.verdicts);
}

Status MonitoringServer::Drain() {
  if (shards_.InFlight()) {
    const Status shard_status = shards_.WaitProcessTimestamp();
    CKNN_CHECK(shard_status.ok());
  }
  return Status::OK();
}

Status MonitoringServer::Tick(const UpdateBatch& batch) {
  CKNN_RETURN_NOT_OK(SubmitBatch(batch));
  return Drain();
}

Status MonitoringServer::InstallQuery(QueryId id, const NetworkPoint& pos,
                                      int k) {
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{id, QueryUpdate::Kind::kInstall, pos, k});
  return Tick(batch);
}

Status MonitoringServer::TerminateQuery(QueryId id) {
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{id, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  return Tick(batch);
}

Status MonitoringServer::MoveQuery(QueryId id, const NetworkPoint& pos) {
  UpdateBatch batch;
  batch.queries.push_back(QueryUpdate{id, QueryUpdate::Kind::kMove, pos, 0});
  return Tick(batch);
}

Status MonitoringServer::AddObject(ObjectId id, const NetworkPoint& pos) {
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{id, std::nullopt, pos});
  return Tick(batch);
}

Status MonitoringServer::RemoveObject(ObjectId id) {
  auto pos = objects_.Position(id);
  if (!pos.ok()) return pos.status();
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{id, pos.value(), std::nullopt});
  return Tick(batch);
}

Status MonitoringServer::MoveObject(ObjectId id, const NetworkPoint& pos) {
  auto old_pos = objects_.Position(id);
  if (!old_pos.ok()) return old_pos.status();
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{id, old_pos.value(), pos});
  return Tick(batch);
}

Status MonitoringServer::UpdateEdgeWeight(EdgeId edge, double new_weight) {
  UpdateBatch batch;
  batch.edges.push_back(EdgeUpdate{edge, new_weight});
  return Tick(batch);
}

Result<NetworkPoint> MonitoringServer::Snap(const Point& p) const {
  auto hit = spatial_index_->Nearest(p);
  if (!hit.ok()) return hit.status();
  return NetworkPoint{static_cast<EdgeId>(hit->id), hit->t};
}

}  // namespace cknn
