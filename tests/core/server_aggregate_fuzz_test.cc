// Differential fuzz for Section 4.5 preprocessing: replaying a randomly
// generated update batch one-update-per-tick ("raw") must leave the server
// in the same observable state as submitting the whole batch in a single
// aggregated tick — for every algorithm, and for arbitrary per-entity
// chains (move-after-move, appear-then-move, terminate-then-reinstall,
// install-move-terminate, repeated weight updates, ...). This is the test
// that falsified the pre-fix collapse rules, which dropped the terminate
// of a terminate→reinstall chain and re-installed a still-registered id.
//
// The same differential check covers rejection: an invalid update must be
// refused by the aggregated tick with the code the raw replay hits, and
// SubmitValid's per-update verdicts must name exactly the updates the raw
// replay rejects.
//
// Runs under the `fuzz` label; seeds via CKNN_FUZZ_SEED, iteration budget
// via CKNN_FUZZ_SCALE (tests/fuzz_util.h).

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

constexpr ObjectId kNumObjectIds = 12;
constexpr QueryId kNumQueryIds = 8;

/// Ground truth the generator maintains so every chained update is valid
/// sequential input (old positions match, moves only touch live entities).
struct Model {
  std::map<ObjectId, NetworkPoint> objects;
  struct Query {
    NetworkPoint pos;
    int k = 1;
  };
  std::map<QueryId, Query> queries;
};

NetworkPoint RandomPoint(Rng* rng, std::size_t num_edges) {
  return NetworkPoint{static_cast<EdgeId>(rng->NextIndex(num_edges)),
                      rng->NextDouble()};
}

/// One random, sequentially valid update; appends it to `batch` and folds
/// it into `model`.
void AppendRandomUpdate(Rng* rng, std::size_t num_edges, Model* model,
                        UpdateBatch* batch) {
  switch (rng->NextIndex(3)) {
    case 0: {  // Object update.
      const ObjectId id = static_cast<ObjectId>(rng->NextIndex(kNumObjectIds));
      auto it = model->objects.find(id);
      if (it == model->objects.end()) {  // Appear.
        const NetworkPoint pos = RandomPoint(rng, num_edges);
        batch->objects.push_back(ObjectUpdate{id, std::nullopt, pos});
        model->objects.emplace(id, pos);
      } else if (rng->NextBool(0.25)) {  // Disappear.
        batch->objects.push_back(ObjectUpdate{id, it->second, std::nullopt});
        model->objects.erase(it);
      } else {  // Move.
        const NetworkPoint pos = RandomPoint(rng, num_edges);
        batch->objects.push_back(ObjectUpdate{id, it->second, pos});
        it->second = pos;
      }
      break;
    }
    case 1: {  // Query update.
      const QueryId id = static_cast<QueryId>(rng->NextIndex(kNumQueryIds));
      auto it = model->queries.find(id);
      if (it == model->queries.end()) {  // Install.
        Model::Query q{RandomPoint(rng, num_edges),
                       1 + static_cast<int>(rng->NextIndex(4))};
        batch->queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kInstall, q.pos, q.k});
        model->queries.emplace(id, q);
      } else if (rng->NextBool(0.3)) {  // Terminate.
        batch->queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
        model->queries.erase(it);
      } else {  // Move.
        const NetworkPoint pos = RandomPoint(rng, num_edges);
        batch->queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kMove, pos, 0});
        it->second.pos = pos;
      }
      break;
    }
    default: {  // Edge-weight update.
      batch->edges.push_back(
          EdgeUpdate{static_cast<EdgeId>(rng->NextIndex(num_edges)),
                     rng->Uniform(0.1, 5.0)});
      break;
    }
  }
}

/// A first tick: `objects` objects and three queries (k in 1..3) at
/// random points, mirrored into `model`.
UpdateBatch RandomSetup(Rng* rng, std::size_t num_edges, ObjectId objects,
                        Model* model) {
  UpdateBatch setup;
  for (ObjectId id = 0; id < objects; ++id) {
    const NetworkPoint pos = RandomPoint(rng, num_edges);
    setup.objects.push_back(ObjectUpdate{id, std::nullopt, pos});
    model->objects.emplace(id, pos);
  }
  for (QueryId id = 0; id < 3; ++id) {
    const Model::Query q{RandomPoint(rng, num_edges),
                         1 + static_cast<int>(rng->NextIndex(3))};
    setup.queries.push_back(
        QueryUpdate{id, QueryUpdate::Kind::kInstall, q.pos, q.k});
    model->queries.emplace(id, q);
  }
  return setup;
}

/// Every query of `model` must expose identical results on both servers.
void ExpectSameObservableState(const Model& model, const MonitoringServer& a,
                               const MonitoringServer& b) {
  ASSERT_EQ(a.NumQueries(), model.queries.size());
  ASSERT_EQ(b.NumQueries(), model.queries.size());
  ASSERT_EQ(a.objects().size(), model.objects.size());
  ASSERT_EQ(b.objects().size(), model.objects.size());
  for (const auto& [id, pos] : model.objects) {
    ASSERT_TRUE(a.objects().Position(id).ok());
    EXPECT_EQ(a.objects().Position(id).value(), pos);
    EXPECT_EQ(b.objects().Position(id).value(), pos);
  }
  for (const auto& [id, q] : model.queries) {
    (void)q;
    SCOPED_TRACE("query " + std::to_string(id));
    const std::vector<Neighbor>* ra = a.ResultOf(id);
    const std::vector<Neighbor>* rb = b.ResultOf(id);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    // The raw replay takes different incremental-maintenance paths (one
    // tick per update), so distances may differ by accumulated rounding —
    // compare with the same relative tolerance the engine's invariant
    // checker uses. The neighbor id multiset must match exactly.
    ASSERT_EQ(ra->size(), rb->size());
    std::vector<ObjectId> ids_a, ids_b;
    for (std::size_t r = 0; r < ra->size(); ++r) {
      const double da = (*ra)[r].distance;
      const double db = (*rb)[r].distance;
      EXPECT_LE(std::abs(da - db), 1e-9 * (1.0 + std::abs(da)))
          << "rank " << r << ": object " << (*ra)[r].id << " at " << da
          << " vs object " << (*rb)[r].id << " at " << db;
      ids_a.push_back((*ra)[r].id);
      ids_b.push_back((*rb)[r].id);
    }
    std::sort(ids_a.begin(), ids_a.end());
    std::sort(ids_b.begin(), ids_b.end());
    EXPECT_EQ(ids_a, ids_b) << "neighbor id multiset divergence";
  }
  for (EdgeId e = 0; e < a.network().NumEdges(); ++e) {
    ASSERT_DOUBLE_EQ(a.network().edge(e).weight, b.network().edge(e).weight);
  }
}

class AggregateFuzzTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AggregateFuzzTest, RawReplayEqualsAggregatedReplay) {
  const int cases = testing::FuzzIterations(6, 60);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = testing::FuzzSeed(3000 + c);
    SCOPED_TRACE("case " + std::to_string(c) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    // Shared starting state: a grid with a few objects and queries.
    RoadNetwork grid = testing::MakeGrid(4);
    const std::size_t num_edges = grid.NumEdges();
    MonitoringServer raw(testing::MakeGrid(4), GetParam());
    MonitoringServer aggregated(std::move(grid), GetParam());
    Model model;
    {
      UpdateBatch setup;
      for (ObjectId id = 0; id < 4; ++id) {
        const NetworkPoint pos = RandomPoint(&rng, num_edges);
        setup.objects.push_back(ObjectUpdate{id, std::nullopt, pos});
        model.objects.emplace(id, pos);
      }
      for (QueryId id = 0; id < 3; ++id) {
        Model::Query q{RandomPoint(&rng, num_edges),
                       1 + static_cast<int>(rng.NextIndex(3))};
        setup.queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kInstall, q.pos, q.k});
        model.queries.emplace(id, q);
      }
      ASSERT_TRUE(raw.Tick(setup).ok());
      ASSERT_TRUE(aggregated.Tick(setup).ok());
    }
    // One dense batch with long per-entity chains (few ids, many updates).
    UpdateBatch batch;
    const int updates = 6 + static_cast<int>(rng.NextIndex(20));
    for (int u = 0; u < updates; ++u) {
      AppendRandomUpdate(&rng, num_edges, &model, &batch);
    }
    // Raw: one mini-tick per update, in order.
    for (const ObjectUpdate& u : batch.objects) {
      // Interleaving order matters only per entity; replay streams in the
      // generated per-kind order, queries after objects, edges last —
      // the same relative order aggregation preserves.
      UpdateBatch one;
      one.objects.push_back(u);
      ASSERT_TRUE(raw.Tick(one).ok());
    }
    for (const QueryUpdate& u : batch.queries) {
      UpdateBatch one;
      one.queries.push_back(u);
      ASSERT_TRUE(raw.Tick(one).ok());
    }
    for (const EdgeUpdate& u : batch.edges) {
      UpdateBatch one;
      one.edges.push_back(u);
      ASSERT_TRUE(raw.Tick(one).ok());
    }
    // Aggregated: the whole batch in a single tick.
    ASSERT_TRUE(aggregated.Tick(batch).ok());
    ExpectSameObservableState(model, raw, aggregated);
  }
}

TEST_P(AggregateFuzzTest, InvalidObjectChainsRejectBothWays) {
  // Differential rejection: a batch whose object chain is sequentially
  // invalid (an old position that contradicts the running chain) must be
  // rejected by the aggregated single-tick path with the same status
  // category the raw one-update-per-tick replay hits — not laundered into
  // a plausible folded update (the pre-fix fold rewrote only new_pos, so
  // insert@p1 -> move(p999 -> p2) collapsed into a valid insert@p2).
  const int cases = testing::FuzzIterations(6, 60);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = testing::FuzzSeed(4000 + c);
    SCOPED_TRACE("case " + std::to_string(c) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    RoadNetwork grid = testing::MakeGrid(4);
    const std::size_t num_edges = grid.NumEdges();
    MonitoringServer raw(testing::MakeGrid(4), GetParam());
    MonitoringServer aggregated(std::move(grid), GetParam());
    Model model;
    {
      UpdateBatch setup;
      for (ObjectId id = 0; id < 5; ++id) {
        const NetworkPoint pos = RandomPoint(&rng, num_edges);
        setup.objects.push_back(ObjectUpdate{id, std::nullopt, pos});
        model.objects.emplace(id, pos);
      }
      ASSERT_TRUE(raw.Tick(setup).ok());
      ASSERT_TRUE(aggregated.Tick(setup).ok());
    }
    // A valid chained prefix...
    UpdateBatch batch;
    const int updates = 3 + static_cast<int>(rng.NextIndex(10));
    for (int u = 0; u < updates; ++u) {
      AppendRandomUpdate(&rng, num_edges, &model, &batch);
    }
    // ...then exactly one corrupted object update appended at the end.
    switch (rng.NextIndex(3)) {
      case 0: {  // Move with an old position that matches nothing.
        const ObjectId id = model.objects.empty()
                                ? ObjectId{0}
                                : model.objects.begin()->first;
        NetworkPoint wrong = RandomPoint(&rng, num_edges);
        wrong.t = 2.0 + rng.NextDouble();  // Guaranteed mismatch: t > 1.
        batch.objects.push_back(
            ObjectUpdate{id, wrong, RandomPoint(&rng, num_edges)});
        break;
      }
      case 1: {  // Insert of an object that is (or becomes) present.
        ObjectId id = kNumObjectIds;  // Outside the generator's id space.
        if (!model.objects.empty()) id = model.objects.begin()->first;
        if (model.objects.count(id) == 0) {
          // Everything died within the batch; make the target present.
          const NetworkPoint pos = RandomPoint(&rng, num_edges);
          batch.objects.push_back(ObjectUpdate{id, std::nullopt, pos});
          model.objects.emplace(id, pos);
        }
        batch.objects.push_back(
            ObjectUpdate{id, std::nullopt, RandomPoint(&rng, num_edges)});
        break;
      }
      default: {  // Move of an object that does not exist.
        const ObjectId id = kNumObjectIds + 7;  // Never used by the model.
        batch.objects.push_back(ObjectUpdate{id, RandomPoint(&rng, num_edges),
                                             RandomPoint(&rng, num_edges)});
        break;
      }
    }
    // Aggregated: the whole batch must be rejected in one tick.
    const Status agg_status = aggregated.Tick(batch);
    ASSERT_FALSE(agg_status.ok());
    // Raw: every prefix update replays fine; the corrupted one rejects
    // with the same status category.
    Status raw_status = Status::OK();
    for (std::size_t i = 0; i < batch.objects.size(); ++i) {
      UpdateBatch one;
      one.objects.push_back(batch.objects[i]);
      const Status st = raw.Tick(one);
      if (i + 1 < batch.objects.size()) {
        ASSERT_TRUE(st.ok()) << "prefix update " << i << ": "
                             << st.ToString();
      } else {
        raw_status = st;
      }
    }
    ASSERT_FALSE(raw_status.ok());
    EXPECT_EQ(agg_status.code(), raw_status.code())
        << "aggregated: " << agg_status.ToString()
        << " raw: " << raw_status.ToString();
  }
}

TEST_P(AggregateFuzzTest, InvalidQueryAndEdgeChainsRejectBothWays) {
  // Differential rejection for the query and edge streams: one bad update
  // followed by a later update of the same entity must not be folded
  // away (an earlier fold kept only a chain's last move or weight, so
  // every shape below was accepted whole). The single aggregated tick
  // must reject with the code the one-update-per-tick replay hits.
  const int cases = testing::FuzzIterations(6, 60);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = testing::FuzzSeed(5000 + c);
    const int shape = c % 6;
    SCOPED_TRACE("case " + std::to_string(c) + " shape " +
                 std::to_string(shape) + " seed " + std::to_string(seed));
    Rng rng(seed);
    RoadNetwork grid = testing::MakeGrid(4);
    const std::size_t num_edges = grid.NumEdges();
    MonitoringServer raw(testing::MakeGrid(4), GetParam());
    MonitoringServer aggregated(std::move(grid), GetParam());
    Model model;
    const UpdateBatch setup = RandomSetup(&rng, num_edges, 5, &model);
    ASSERT_TRUE(raw.Tick(setup).ok());
    ASSERT_TRUE(aggregated.Tick(setup).ok());
    // A valid chained prefix...
    UpdateBatch batch;
    const int updates = 3 + static_cast<int>(rng.NextIndex(10));
    for (int u = 0; u < updates; ++u) {
      AppendRandomUpdate(&rng, num_edges, &model, &batch);
    }
    // ...then one bad chain. `live` is a query registered at this point.
    if (model.queries.empty()) {
      const NetworkPoint pos = RandomPoint(&rng, num_edges);
      batch.queries.push_back(
          QueryUpdate{0, QueryUpdate::Kind::kInstall, pos, 1});
      model.queries.emplace(0, Model::Query{pos, 1});
    }
    const QueryId live = model.queries.begin()->first;
    const QueryId fresh = kNumQueryIds + 7;  // Never used by the model.
    const EdgeId edge = static_cast<EdgeId>(rng.NextIndex(num_edges));
    const QueryUpdate terminate{live, QueryUpdate::Kind::kTerminate,
                                NetworkPoint{}, 0};
    const QueryUpdate move{live, QueryUpdate::Kind::kMove,
                           RandomPoint(&rng, num_edges), 0};
    switch (shape) {
      case 0:  // [terminate, move]: the move targets a dead query.
        batch.queries.push_back(terminate);
        batch.queries.push_back(move);
        break;
      case 1:  // [terminate, terminate].
        batch.queries.push_back(terminate);
        batch.queries.push_back(terminate);
        break;
      case 2:  // [install, terminate, move] of a new query.
        batch.queries.push_back(QueryUpdate{
            fresh, QueryUpdate::Kind::kInstall, RandomPoint(&rng, num_edges),
            1});
        batch.queries.push_back(
            QueryUpdate{fresh, QueryUpdate::Kind::kTerminate, {}, 0});
        batch.queries.push_back(QueryUpdate{fresh, QueryUpdate::Kind::kMove,
                                            RandomPoint(&rng, num_edges), 0});
        break;
      case 3:  // [move to a NaN offset, move].
        batch.queries.push_back(QueryUpdate{
            live, QueryUpdate::Kind::kMove,
            NetworkPoint{edge, std::numeric_limits<double>::quiet_NaN()}, 0});
        batch.queries.push_back(move);
        break;
      case 4:  // Edge [NaN, 2.0].
        batch.edges.push_back(
            EdgeUpdate{edge, std::numeric_limits<double>::quiet_NaN()});
        batch.edges.push_back(EdgeUpdate{edge, 2.0});
        break;
      default:  // Edge [-1.0, 2.0].
        batch.edges.push_back(EdgeUpdate{edge, -1.0});
        batch.edges.push_back(EdgeUpdate{edge, 2.0});
        break;
    }
    const Status agg_status = aggregated.Tick(batch);
    const std::vector<MonitoringServer::Verdict> raw_rejects =
        testing::ReplayOneUpdatePerTick(batch, &raw);
    ASSERT_EQ(raw_rejects.size(), 1u);
    const Status& raw_status = raw_rejects[0].status;
    ASSERT_FALSE(agg_status.ok()) << "raw: " << raw_status.ToString();
    EXPECT_EQ(agg_status.code(), raw_status.code())
        << "aggregated: " << agg_status.ToString()
        << " raw: " << raw_status.ToString();
  }
}

TEST_P(AggregateFuzzTest, ValidSubsetMatchesSequentialReplay) {
  // The verdict contract: a valid batch with 1-3 bad updates of any kind
  // injected, submitted once through SubmitValid, names exactly the
  // updates a one-update-per-tick replay rejects, costs one tick, and
  // leaves the state the replay leaves. A bad update changes nothing, so
  // the valid updates around it stay valid wherever it lands.
  const int cases = testing::FuzzIterations(6, 60);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = testing::FuzzSeed(6000 + c);
    SCOPED_TRACE("case " + std::to_string(c) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    RoadNetwork grid = testing::MakeGrid(4);
    const std::size_t num_edges = grid.NumEdges();
    MonitoringServer raw(testing::MakeGrid(4), GetParam());
    MonitoringServer aggregated(std::move(grid), GetParam());
    Model model;
    const UpdateBatch setup = RandomSetup(&rng, num_edges, 4, &model);
    ASSERT_TRUE(raw.Tick(setup).ok());
    ASSERT_TRUE(aggregated.Tick(setup).ok());
    UpdateBatch batch;
    const int updates = 6 + static_cast<int>(rng.NextIndex(20));
    for (int u = 0; u < updates; ++u) {
      AppendRandomUpdate(&rng, num_edges, &model, &batch);
    }
    // Bad at any state: an old position no object holds (t > 1), a point
    // off the network, k = 0, a NaN offset or weight, an unknown id.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const NetworkPoint off_network{static_cast<EdgeId>(num_edges + 3), 0.5};
    const int bad = 1 + static_cast<int>(rng.NextIndex(3));
    for (int b = 0; b < bad; ++b) {
      const ObjectId object =
          static_cast<ObjectId>(rng.NextIndex(kNumObjectIds + 2));
      const QueryId query = static_cast<QueryId>(rng.NextIndex(kNumQueryIds));
      const EdgeId edge = static_cast<EdgeId>(rng.NextIndex(num_edges));
      const NetworkPoint wrong{edge, 2.0 + rng.NextDouble()};
      const NetworkPoint p = RandomPoint(&rng, num_edges);
      switch (rng.NextIndex(9)) {
        case 0:
          batch.objects.insert(
              batch.objects.begin() + rng.NextIndex(batch.objects.size() + 1),
              ObjectUpdate{object, wrong, p});
          break;
        case 1:
          batch.objects.insert(
              batch.objects.begin() + rng.NextIndex(batch.objects.size() + 1),
              ObjectUpdate{kNumObjectIds + 9, std::nullopt, off_network});
          break;
        case 2:
          batch.queries.insert(
              batch.queries.begin() + rng.NextIndex(batch.queries.size() + 1),
              QueryUpdate{query, QueryUpdate::Kind::kInstall, p, 0});
          break;
        case 3:
          batch.queries.insert(
              batch.queries.begin() + rng.NextIndex(batch.queries.size() + 1),
              QueryUpdate{query, QueryUpdate::Kind::kMove,
                          NetworkPoint{edge, nan}, 0});
          break;
        case 4:
          batch.queries.insert(
              batch.queries.begin() + rng.NextIndex(batch.queries.size() + 1),
              QueryUpdate{kNumQueryIds + 9, QueryUpdate::Kind::kTerminate,
                          NetworkPoint{}, 0});
          break;
        case 5:
          batch.queries.insert(
              batch.queries.begin() + rng.NextIndex(batch.queries.size() + 1),
              QueryUpdate{kNumQueryIds + 9, QueryUpdate::Kind::kInstall,
                          off_network, 1});
          break;
        case 6:
          batch.edges.insert(
              batch.edges.begin() + rng.NextIndex(batch.edges.size() + 1),
              EdgeUpdate{edge, nan});
          break;
        case 7:
          batch.edges.insert(
              batch.edges.begin() + rng.NextIndex(batch.edges.size() + 1),
              EdgeUpdate{edge, -1.0});
          break;
        default:
          batch.edges.insert(
              batch.edges.begin() + rng.NextIndex(batch.edges.size() + 1),
              EdgeUpdate{static_cast<EdgeId>(num_edges), 1.0});
          break;
      }
    }
    const std::uint64_t before = aggregated.timestamp();
    const std::vector<std::string> verdicts =
        testing::VerdictLines(aggregated.SubmitValid(batch));
    EXPECT_EQ(aggregated.timestamp(), before + 1);
    const std::vector<std::string> raw_rejects =
        testing::VerdictLines(testing::ReplayOneUpdatePerTick(batch, &raw));
    EXPECT_EQ(raw_rejects.size(), static_cast<std::size_t>(bad));
    EXPECT_EQ(verdicts, raw_rejects);
    ExpectSameObservableState(model, raw, aggregated);
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AggregateFuzzTest,
                         ::testing::Values(Algorithm::kIma, Algorithm::kGma,
                                           Algorithm::kOvh),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           return std::string(AlgorithmName(info.param));
                         });

}  // namespace
}  // namespace cknn
