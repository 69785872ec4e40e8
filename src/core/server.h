#ifndef CKNN_CORE_SERVER_H_
#define CKNN_CORE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/monitor.h"
#include "src/core/object_table.h"
#include "src/core/sharding.h"
#include "src/core/updates.h"
#include "src/graph/road_network.h"
#include "src/spatial/pmr_quadtree.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace cknn {

/// \brief The central monitoring server of Section 3: owns the road
/// network, the spatial index *SI* (PMR quadtree over the edges), the
/// object table, and the monitored queries — partitioned across one or
/// more worker shards (see src/core/sharding.h and docs/sharding.md).
///
/// Per timestamp, clients feed the server one `UpdateBatch`; a tick runs a
/// deterministic pipeline:
///  1. fold the batch in one validating pass (Section 4.5's preprocessing
///     step): every update is judged against the tables as a sequential
///     one-update-per-tick replay would see them, a valid one folds into
///     its entity's net update, a refused one gets a `Verdict`,
///  2. apply the folded object updates to the shared object table,
///  3. broadcast object/edge updates — and route query updates — to the
///     shards, which run their per-shard maintenance in parallel,
///  4. merge shard statuses/metrics in shard order.
/// `Tick`/`SubmitBatch` are all-or-nothing (any verdict rejects the whole
/// batch); `SubmitValid` commits the valid remainder and returns the
/// verdicts. With the default single shard this degenerates to the serial
/// algorithm of the paper; with `num_shards > 1` per-query results are
/// identical (same bytes) for IMA/OVH and identical within the conformance
/// distance tolerance for GMA, whose active-node grouping is shard-local
/// (docs/sharding.md).
///
/// With `pipeline_depth == 2` the server additionally exposes asynchronous
/// ingest (`SubmitBatch`/`Drain`, docs/pipeline.md): stage 1 of tick t+1
/// runs on the submitting thread while the shards maintain tick t on the
/// pool workers, with a strict apply barrier (stage 2 waits for the
/// in-flight tick) keeping every result byte-identical to serial
/// execution. `pipeline_depth == 1` is the serial degenerate case, where
/// `SubmitBatch` is `Tick`.
///
/// Positions may be given directly as `NetworkPoint`s or as raw
/// coordinates snapped through the spatial index.
class MonitoringServer {
 public:
  /// Takes ownership of the network. The network topology is fixed for the
  /// lifetime of the server; weights change through edge updates.
  /// `num_shards >= 1` selects the worker-shard count (1 = serial);
  /// `pipeline_depth` in {1, 2} selects synchronous ticks or
  /// double-buffered asynchronous ingest.
  MonitoringServer(RoadNetwork network, Algorithm algorithm,
                   int num_shards = 1, int pipeline_depth = 1);

  MonitoringServer(const MonitoringServer&) = delete;
  MonitoringServer& operator=(const MonitoringServer&) = delete;

  /// One refused update: which stream of the submitted batch, its index
  /// in that stream, and the error a sequential one-update-per-tick
  /// replay of the batch returns for it.
  struct Verdict {
    enum class Stream { kObjects, kQueries, kEdges };
    Stream stream = Stream::kObjects;
    std::size_t index = 0;
    Status status;
  };

  /// Processes one timestamp of updates (folding duplicates per entity)
  /// and advances the clock. Equivalent to `SubmitBatch` followed by
  /// `Drain`, at every pipeline depth.
  Status Tick(const UpdateBatch& batch);

  /// Submits one timestamp of updates, all or nothing: if any update is
  /// refused, returns the first verdict (objects, then queries, then
  /// edges) and leaves the server exactly as if the call had not been made
  /// (any in-flight tick keeps running). At depth 1 this is `Tick`. At
  /// depth 2 the fold runs on the calling thread — overlapping the
  /// in-flight tick's shard maintenance — then the call waits for that
  /// tick (the apply barrier), applies the object updates, and starts this
  /// tick's maintenance detached before returning.
  Status SubmitBatch(const UpdateBatch& batch);

  /// Submits the valid updates of `batch` as one tick — none if no update
  /// is valid — and returns the verdicts of the refused ones, in stream
  /// order. The tick carries the net effect a sequential
  /// one-update-per-tick replay of the batch has: there, too, a refused
  /// update changes nothing.
  std::vector<Verdict> SubmitValid(const UpdateBatch& batch);

  /// Blocks until no tick is in flight. Must be called (or implied via
  /// `Tick`) before reading results, metrics, or tables.
  Status Drain();

  /// Whether a submitted tick is still being maintained by the shards.
  bool InFlight() const { return shards_.InFlight(); }

  /// \name Convenience single-entity operations (each runs a mini-tick).
  /// @{
  Status InstallQuery(QueryId id, const NetworkPoint& pos, int k);
  Status TerminateQuery(QueryId id);
  Status MoveQuery(QueryId id, const NetworkPoint& pos);
  Status AddObject(ObjectId id, const NetworkPoint& pos);
  Status RemoveObject(ObjectId id);
  Status MoveObject(ObjectId id, const NetworkPoint& pos);
  Status UpdateEdgeWeight(EdgeId edge, double new_weight);
  /// @}

  /// Snaps raw coordinates to the nearest point on the network through the
  /// PMR quadtree (how coordinate-only location updates are interpreted).
  Result<NetworkPoint> Snap(const Point& p) const;

  /// Current k-NN set of a query, nullptr if unknown. Routed to the
  /// query's owning shard. Requires a drained server.
  const std::vector<Neighbor>* ResultOf(QueryId id) const {
    return shards_.ResultOf(id);
  }

  /// \name Non-aborting read accessors (serving front ends).
  /// Same data as `ResultOf`/`NumQueries`/`MonitorMemoryBytes`, but an
  /// in-flight tick yields FailedPrecondition instead of tripping the
  /// internal CHECK — a client read can never crash the server.
  /// @{
  Status TryResultOf(QueryId id, const std::vector<Neighbor>** out) const {
    return shards_.TryResultOf(id, out);
  }
  Result<std::size_t> TryNumQueries() const {
    return shards_.TryNumQueries();
  }
  Result<std::size_t> TryMonitorMemoryBytes() const {
    return shards_.TryMemoryBytes();
  }
  /// @}

  const RoadNetwork& network() const { return network_; }
  const ObjectTable& objects() const { return objects_; }
  const PmrQuadtree& spatial_index() const { return *spatial_index_; }
  Algorithm algorithm() const { return algorithm_; }
  std::uint64_t timestamp() const { return timestamp_; }
  int pipeline_depth() const { return pipeline_depth_; }

  /// Shard 0's monitor — with the default single shard, *the* monitor.
  /// (Kept for diagnostics and tests that reach into engine internals.)
  Monitor& monitor() { return shards_.monitor(0); }
  const Monitor& monitor() const { return shards_.monitor(0); }

  int num_shards() const { return shards_.num_shards(); }
  ShardSet& shards() { return shards_; }
  const ShardSet& shards() const { return shards_; }

  /// Registered queries across all shards. Requires a drained server.
  std::size_t NumQueries() const { return shards_.NumQueries(); }

  /// Monitoring-structure bytes (Figure 18's quantity), summed over the
  /// shards in shard order. Requires a drained server.
  std::size_t MonitorMemoryBytes() const { return shards_.MemoryBytes(); }

  /// Collapses multiple updates per object/query/edge into at most one, as
  /// required by the algorithms (Section 4.5) — except that a terminated
  /// and re-installed query collapses to a terminate immediately followed
  /// by an install (see Monitor::ProcessTimestamp). Entities keep their
  /// first-appearance order. This is the tick's validating fold without
  /// the server's tables: each entity's state before the batch is taken
  /// from its own first update, and updates the fold refuses are dropped.
  /// Exposed for testing and benchmarking.
  static UpdateBatch AggregateBatch(const UpdateBatch& batch);

 private:
  /// The folded batch and the verdicts of one validating pass.
  struct Fold {
    UpdateBatch batch;
    std::vector<Verdict> verdicts;
  };

  /// Stage 1: reads each stream of `batch` once and judges every update
  /// against one overlay — `tables`' object table, caller-side query
  /// registry and edge count, plus each entity's running state in the
  /// batch. A valid update folds into its entity's net update; a refused
  /// one gets a verdict and leaves the running state untouched, as a
  /// sequential replay would. With `tables == nullptr` an entity's state
  /// before the batch comes from its first update (`AggregateBatch`).
  /// Read-only, so safe while a detached tick is in flight: it reads only
  /// the object table (read-only during the parallel phase), the network
  /// topology, and the shard set's caller-side query registry.
  static Fold FoldBatch(const UpdateBatch& batch,
                        const MonitoringServer* tables);

  /// Stages 2–4 for a folded batch: the apply barrier, the object-table
  /// apply, and the shard maintenance (detached at depth 2); advances the
  /// clock.
  void Commit(const UpdateBatch& folded);

  RoadNetwork network_;
  ObjectTable objects_;
  std::unique_ptr<PmrQuadtree> spatial_index_;
  Algorithm algorithm_;
  int pipeline_depth_;
  ShardSet shards_;
  std::uint64_t timestamp_ = 0;
};

}  // namespace cknn

#endif  // CKNN_CORE_SERVER_H_
