// Section 4.5 preprocessing through the server's Tick path: when one
// entity issues several updates in a single timestamp, the batch handed to
// the algorithm must collapse to the last-write state — for every
// algorithm, and with the same observable outcome as submitting the
// collapsed update directly.

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

class TickAggregationTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  /// Fresh server on a 4x4 unit grid with two objects and one 2-NN query.
  std::unique_ptr<MonitoringServer> MakeServer() {
    auto server = std::make_unique<MonitoringServer>(testing::MakeGrid(4),
                                                     GetParam());
    EXPECT_TRUE(server->AddObject(0, NetworkPoint{0, 0.25}).ok());
    EXPECT_TRUE(server->AddObject(1, NetworkPoint{10, 0.5}).ok());
    EXPECT_TRUE(server->InstallQuery(0, NetworkPoint{2, 0.5}, 2).ok());
    return server;
  }

  /// Both servers must expose identical query-0 results.
  void ExpectSameResult(const MonitoringServer& a, const MonitoringServer& b) {
    const auto* ra = a.ResultOf(0);
    const auto* rb = b.ResultOf(0);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(*ra, *rb);
  }
};

TEST_P(TickAggregationTest, ChainedObjectMovesCollapseToLastWrite) {
  auto chained = MakeServer();
  auto collapsed = MakeServer();
  UpdateBatch batch;
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{0, 0.25}, NetworkPoint{5, 0.5}});
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{5, 0.5}, NetworkPoint{9, 0.75}});
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{9, 0.75}, NetworkPoint{14, 0.5}});
  ASSERT_TRUE(chained->Tick(batch).ok());

  UpdateBatch single;
  single.objects.push_back(
      ObjectUpdate{0, NetworkPoint{0, 0.25}, NetworkPoint{14, 0.5}});
  ASSERT_TRUE(collapsed->Tick(single).ok());

  EXPECT_EQ(chained->objects().Position(0).value(), (NetworkPoint{14, 0.5}));
  ExpectSameResult(*chained, *collapsed);
  // One batch, one timestamp — regardless of how many updates it carried.
  EXPECT_EQ(chained->timestamp(), collapsed->timestamp());
}

TEST_P(TickAggregationTest, AppearThenMoveCollapsesToFinalAppearance) {
  auto chained = MakeServer();
  auto collapsed = MakeServer();
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{7, std::nullopt, NetworkPoint{4, 0.5}});
  batch.objects.push_back(
      ObjectUpdate{7, NetworkPoint{4, 0.5}, NetworkPoint{2, 0.25}});
  ASSERT_TRUE(chained->Tick(batch).ok());

  UpdateBatch single;
  single.objects.push_back(
      ObjectUpdate{7, std::nullopt, NetworkPoint{2, 0.25}});
  ASSERT_TRUE(collapsed->Tick(single).ok());

  EXPECT_EQ(chained->objects().Position(7).value(), (NetworkPoint{2, 0.25}));
  ExpectSameResult(*chained, *collapsed);
}

TEST_P(TickAggregationTest, MoveThenDisappearRemovesTheObject) {
  auto server = MakeServer();
  UpdateBatch batch;
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{0, 0.25}, NetworkPoint{5, 0.5}});
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{5, 0.5}, std::nullopt});
  ASSERT_TRUE(server->Tick(batch).ok());
  EXPECT_FALSE(server->objects().Contains(0));
  const auto* result = server->ResultOf(0);
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->size(), 1u);  // Only object 1 remains.
  EXPECT_EQ((*result)[0].id, 1u);
}

TEST_P(TickAggregationTest, RepeatedEdgeWeightUpdatesLastWriteWins) {
  auto chained = MakeServer();
  auto collapsed = MakeServer();
  UpdateBatch batch;
  batch.edges.push_back(EdgeUpdate{2, 9.0});
  batch.edges.push_back(EdgeUpdate{2, 0.5});
  batch.edges.push_back(EdgeUpdate{2, 3.25});
  batch.edges.push_back(EdgeUpdate{7, 2.0});  // Another edge rides along.
  ASSERT_TRUE(chained->Tick(batch).ok());

  UpdateBatch single;
  single.edges.push_back(EdgeUpdate{2, 3.25});
  single.edges.push_back(EdgeUpdate{7, 2.0});
  ASSERT_TRUE(collapsed->Tick(single).ok());

  EXPECT_DOUBLE_EQ(chained->network().edge(2).weight, 3.25);
  EXPECT_DOUBLE_EQ(chained->network().edge(7).weight, 2.0);
  ExpectSameResult(*chained, *collapsed);
}

TEST_P(TickAggregationTest, ChainedQueryMovesCollapseToLastWrite) {
  auto chained = MakeServer();
  auto collapsed = MakeServer();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{8, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{12, 0.75}, 0});
  ASSERT_TRUE(chained->Tick(batch).ok());

  UpdateBatch single;
  single.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{12, 0.75}, 0});
  ASSERT_TRUE(collapsed->Tick(single).ok());
  ExpectSameResult(*chained, *collapsed);
}

TEST_P(TickAggregationTest, InstallMoveTerminateWithinOneTickIsANoOp) {
  auto server = MakeServer();
  const std::size_t queries_before = server->monitor().NumQueries();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kInstall, NetworkPoint{1, 0.5}, 3});
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kMove, NetworkPoint{3, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  ASSERT_TRUE(server->Tick(batch).ok());
  EXPECT_EQ(server->ResultOf(5), nullptr);
  EXPECT_EQ(server->monitor().NumQueries(), queries_before);
}

TEST_P(TickAggregationTest, TerminateThenReinstallKeepsTheQueryAlive) {
  // Regression: the pre-fix collapse rules folded terminate→install into a
  // bare install of a still-registered id, which every algorithm rejects
  // with AlreadyExists. The net effect must be a re-installation.
  auto chained = MakeServer();
  auto sequential = MakeServer();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kInstall, NetworkPoint{6, 0.5}, 1});
  ASSERT_TRUE(chained->Tick(batch).ok());

  ASSERT_TRUE(sequential->TerminateQuery(0).ok());
  ASSERT_TRUE(sequential->InstallQuery(0, NetworkPoint{6, 0.5}, 1).ok());
  ExpectSameResult(*chained, *sequential);
  EXPECT_EQ(chained->NumQueries(), 1u);
}

TEST_P(TickAggregationTest, MoveTerminateReinstallMoveCollapses) {
  // The "move-after-reinstall" chain of the issue: the final state is a
  // fresh installation at the last position with the reinstall's k.
  auto chained = MakeServer();
  auto sequential = MakeServer();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{8, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kInstall, NetworkPoint{3, 0.25}, 1});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{12, 0.75}, 0});
  ASSERT_TRUE(chained->Tick(batch).ok());

  ASSERT_TRUE(
      sequential->MoveQuery(0, NetworkPoint{8, 0.5}).ok());
  ASSERT_TRUE(sequential->TerminateQuery(0).ok());
  ASSERT_TRUE(sequential->InstallQuery(0, NetworkPoint{3, 0.25}, 1).ok());
  ASSERT_TRUE(sequential->MoveQuery(0, NetworkPoint{12, 0.75}).ok());
  ExpectSameResult(*chained, *sequential);
}

TEST_P(TickAggregationTest, TerminateReinstallTerminateIsATerminate) {
  // Regression: the pre-fix rules dropped this chain entirely (treating it
  // as a no-op), leaving the original query registered.
  auto server = MakeServer();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kInstall, NetworkPoint{6, 0.5}, 2});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  ASSERT_TRUE(server->Tick(batch).ok());
  EXPECT_EQ(server->ResultOf(0), nullptr);
  EXPECT_EQ(server->NumQueries(), 0u);
}

TEST(AggregateBatchTest, TerminateReinstallEmitsTerminateThenInstall) {
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{4, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  batch.queries.push_back(
      QueryUpdate{4, QueryUpdate::Kind::kInstall, NetworkPoint{1, 0.5}, 3});
  batch.queries.push_back(
      QueryUpdate{4, QueryUpdate::Kind::kMove, NetworkPoint{2, 0.25}, 0});
  const UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  ASSERT_EQ(out.queries.size(), 2u);
  EXPECT_EQ(out.queries[0].kind, QueryUpdate::Kind::kTerminate);
  EXPECT_EQ(out.queries[0].id, 4u);
  EXPECT_EQ(out.queries[1].kind, QueryUpdate::Kind::kInstall);
  EXPECT_EQ(out.queries[1].id, 4u);
  EXPECT_EQ(out.queries[1].pos, (NetworkPoint{2, 0.25}));
  EXPECT_EQ(out.queries[1].k, 3);
}

TEST_P(TickAggregationTest, InstallOfAliveQueryStillSurfacesAlreadyExists) {
  // [move, install] of a registered query is invalid sequential input; the
  // collapse must not quietly turn it into a move (losing the install's k
  // and the error) — the algorithms reject it like a sequential replay.
  auto server = MakeServer();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{8, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kInstall, NetworkPoint{3, 0.25}, 5});
  EXPECT_TRUE(server->Tick(batch).IsAlreadyExists());
}

TEST_P(TickAggregationTest, DuplicateInstallOfNewQuerySurfacesAlreadyExists) {
  // [install, install] of a within-tick-new id is invalid sequential input
  // (the second install would be rejected); the batch is rejected whole.
  auto server = MakeServer();
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kInstall, NetworkPoint{1, 0.5}, 1});
  batch.queries.push_back(
      QueryUpdate{5, QueryUpdate::Kind::kInstall, NetworkPoint{3, 0.25}, 5});
  EXPECT_TRUE(server->Tick(batch).IsAlreadyExists());
  EXPECT_EQ(server->ResultOf(5), nullptr);
}

TEST(AggregateBatchTest, InconsistentObjectChainIsRefusedNotFolded) {
  // insert@p1 -> move(old=p999 -> p2): the old position contradicts the
  // running chain, so the fold must refuse the move — with the code a
  // sequential replay hits — instead of laundering the pair into a single
  // plausible insert@p2.
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{1, std::nullopt, NetworkPoint{0, 0.1}});
  batch.objects.push_back(
      ObjectUpdate{1, NetworkPoint{9, 0.9}, NetworkPoint{0, 0.2}});
  const UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  ASSERT_EQ(out.objects.size(), 1u);
  EXPECT_EQ(out.objects[0], batch.objects[0]);

  MonitoringServer all_or_nothing(testing::MakeGrid(4), Algorithm::kIma);
  EXPECT_TRUE(all_or_nothing.Tick(batch).IsInvalidArgument());
  EXPECT_FALSE(all_or_nothing.objects().Contains(1));

  MonitoringServer server(testing::MakeGrid(4), Algorithm::kIma);
  MonitoringServer replay(testing::MakeGrid(4), Algorithm::kIma);
  const std::vector<std::string> verdicts =
      testing::VerdictLines(server.SubmitValid(batch));
  EXPECT_EQ(verdicts, std::vector<std::string>{"objects[1] InvalidArgument"});
  EXPECT_EQ(verdicts, testing::VerdictLines(
                          testing::ReplayOneUpdatePerTick(batch, &replay)));
  EXPECT_EQ(server.objects().Position(1).value(), (NetworkPoint{0, 0.1}));
}

TEST(AggregateBatchTest, BrokenChainIsRefusedWhereASequentialReplayFails) {
  // insert -> delete -> inconsistent move. Where the id already exists, a
  // sequential replay fails at the insert (AlreadyExists), so the fold
  // must not cancel the insert+delete pair before judging it; where the
  // id is new, the pair is a valid no-op and only the move fails.
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{1, std::nullopt, NetworkPoint{0, 0.1}});
  batch.objects.push_back(ObjectUpdate{1, NetworkPoint{0, 0.1}, std::nullopt});
  batch.objects.push_back(
      ObjectUpdate{1, NetworkPoint{9, 0.9}, NetworkPoint{0, 0.2}});
  for (const bool present : {true, false}) {
    SCOPED_TRACE(present ? "id present" : "id new");
    MonitoringServer all_or_nothing(testing::MakeGrid(4), Algorithm::kIma);
    MonitoringServer server(testing::MakeGrid(4), Algorithm::kIma);
    MonitoringServer replay(testing::MakeGrid(4), Algorithm::kIma);
    if (present) {
      for (MonitoringServer* s : {&all_or_nothing, &server, &replay}) {
        ASSERT_TRUE(s->AddObject(1, NetworkPoint{5, 0.5}).ok());
      }
    }
    EXPECT_EQ(all_or_nothing.Tick(batch).code(),
              present ? StatusCode::kAlreadyExists : StatusCode::kNotFound);
    const std::vector<std::string> verdicts =
        testing::VerdictLines(server.SubmitValid(batch));
    const std::vector<std::string> expected =
        present ? std::vector<std::string>{"objects[0] AlreadyExists",
                                           "objects[1] InvalidArgument",
                                           "objects[2] InvalidArgument"}
                : std::vector<std::string>{"objects[2] NotFound"};
    EXPECT_EQ(verdicts, expected);
    EXPECT_EQ(verdicts, testing::VerdictLines(
                            testing::ReplayOneUpdatePerTick(batch, &replay)));
    EXPECT_EQ(server.objects().Contains(1), present);
  }
}

TEST(AggregateBatchTest, NoOpObjectUpdateDoesNotPoisonTheChain) {
  // An update with neither position is a no-op at any table state
  // (ObjectTable::Apply); it must neither survive aggregation nor count
  // as evidence that the object is absent.
  UpdateBatch batch;
  batch.objects.push_back(ObjectUpdate{1, std::nullopt, std::nullopt});
  batch.objects.push_back(
      ObjectUpdate{1, NetworkPoint{0, 0.5}, NetworkPoint{0, 0.75}});
  const UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  ASSERT_EQ(out.objects.size(), 1u);
  EXPECT_EQ(out.objects[0], batch.objects[1]);
}

TEST(AggregateBatchTest, MoveChainStaysASingleMove) {
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{1, QueryUpdate::Kind::kMove, NetworkPoint{1, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{1, QueryUpdate::Kind::kMove, NetworkPoint{2, 0.5}, 0});
  const UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  ASSERT_EQ(out.queries.size(), 1u);
  EXPECT_EQ(out.queries[0].kind, QueryUpdate::Kind::kMove);
  EXPECT_EQ(out.queries[0].pos, (NetworkPoint{2, 0.5}));
}

TEST(AggregateBatchTest, InstallTerminateCancelsOut) {
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{9, QueryUpdate::Kind::kInstall, NetworkPoint{1, 0.5}, 2});
  batch.queries.push_back(
      QueryUpdate{9, QueryUpdate::Kind::kMove, NetworkPoint{2, 0.5}, 0});
  batch.queries.push_back(
      QueryUpdate{9, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  const UpdateBatch out = MonitoringServer::AggregateBatch(batch);
  EXPECT_TRUE(out.queries.empty());
}

TEST_P(TickAggregationTest, MixedEntitiesAggregateIndependently) {
  auto chained = MakeServer();
  auto collapsed = MakeServer();
  UpdateBatch batch;
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{0, 0.25}, NetworkPoint{1, 0.5}});
  batch.objects.push_back(
      ObjectUpdate{0, NetworkPoint{1, 0.5}, NetworkPoint{1, 0.75}});
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{4, 0.5}, 0});
  batch.edges.push_back(EdgeUpdate{1, 4.0});
  batch.edges.push_back(EdgeUpdate{1, 1.5});
  ASSERT_TRUE(chained->Tick(batch).ok());

  UpdateBatch single;
  single.objects.push_back(
      ObjectUpdate{0, NetworkPoint{0, 0.25}, NetworkPoint{1, 0.75}});
  single.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kMove, NetworkPoint{4, 0.5}, 0});
  single.edges.push_back(EdgeUpdate{1, 1.5});
  ASSERT_TRUE(collapsed->Tick(single).ok());

  EXPECT_EQ(chained->objects().Position(0).value(), (NetworkPoint{1, 0.75}));
  EXPECT_DOUBLE_EQ(chained->network().edge(1).weight, 1.5);
  ExpectSameResult(*chained, *collapsed);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, TickAggregationTest,
                         ::testing::Values(Algorithm::kIma, Algorithm::kGma,
                                           Algorithm::kOvh),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           return std::string(AlgorithmName(info.param));
                         });

}  // namespace
}  // namespace cknn
