// ServingFrontEnd semantics (docs/serving.md): bounded-queue admission
// control (ResourceExhausted, never abort), blocking back-pressure and its
// release, drain-on-shutdown, non-aborting reads, and per-request
// verdicts that count-and-drop instead of vetoing the batch.

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/serve/front_end.h"

namespace cknn {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

MonitoringServer MakeServer(int shards = 1, int pipeline_depth = 2) {
  const NetworkGenConfig net{.target_edges = 200, .seed = 7};
  return MonitoringServer(GenerateRoadNetwork(net), Algorithm::kIma, shards,
                          pipeline_depth);
}

ServeRequest AddObject(std::uint64_t id, EdgeId edge, double t) {
  ServeRequest r;
  r.op = ServeRequest::Op::kAddObject;
  r.id = id;
  r.pos = NetworkPoint{edge, t};
  return r;
}

ServeRequest MoveObject(std::uint64_t id, EdgeId edge, double t) {
  ServeRequest r;
  r.op = ServeRequest::Op::kMoveObject;
  r.id = id;
  r.pos = NetworkPoint{edge, t};
  return r;
}

ServeRequest RemoveObject(std::uint64_t id) {
  ServeRequest r;
  r.op = ServeRequest::Op::kRemoveObject;
  r.id = id;
  return r;
}

ServeRequest MoveQuery(std::uint64_t id, EdgeId edge, double t) {
  ServeRequest r;
  r.op = ServeRequest::Op::kMoveQuery;
  r.id = id;
  r.pos = NetworkPoint{edge, t};
  return r;
}

ServeRequest InstallQuery(std::uint64_t id, EdgeId edge, double t, int k) {
  ServeRequest r;
  r.op = ServeRequest::Op::kInstallQuery;
  r.id = id;
  r.pos = NetworkPoint{edge, t};
  r.k = k;
  return r;
}

ServeRequest UpdateWeight(std::uint64_t edge, double weight) {
  ServeRequest r;
  r.op = ServeRequest::Op::kUpdateWeight;
  r.id = edge;
  r.weight = weight;
  return r;
}

TEST(FrontEndTest, QueueFullRejectsWithResourceExhausted) {
  MonitoringServer server = MakeServer();
  ServingConfig config;
  config.queue_capacity = 4;
  ServingFrontEnd fe(&server, config);  // No pump: the queue stays put.
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(fe.TrySubmit(AddObject(i, 0, 0.25)).ok());
  }
  EXPECT_EQ(fe.QueueDepth(), 4u);
  const Status full = fe.TrySubmit(AddObject(9, 0, 0.5));
  EXPECT_TRUE(full.IsResourceExhausted()) << full.ToString();
  EXPECT_EQ(fe.QueueDepth(), 4u);

  // Folding the window frees the queue: admission resumes.
  ASSERT_TRUE(fe.Flush().ok());
  EXPECT_EQ(fe.QueueDepth(), 0u);
  EXPECT_TRUE(fe.TrySubmit(AddObject(9, 0, 0.5)).ok());
  ASSERT_TRUE(fe.Flush().ok());

  const ServingStats stats = fe.Stats();
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.applied, 5u);
  EXPECT_EQ(stats.max_queue_depth, 4u);
}

TEST(FrontEndTest, SubmitBlocksUntilSpaceFreesUp) {
  MonitoringServer server = MakeServer();
  ServingConfig config;
  config.queue_capacity = 2;
  ServingFrontEnd fe(&server, config);  // No pump.
  ASSERT_TRUE(fe.TrySubmit(AddObject(0, 0, 0.25)).ok());
  ASSERT_TRUE(fe.TrySubmit(AddObject(1, 0, 0.75)).ok());

  std::atomic<bool> released{false};
  std::thread producer([&] {
    const Status blocked = fe.Submit(AddObject(2, 1, 0.5));
    EXPECT_TRUE(blocked.ok()) << blocked.ToString();
    released.store(true);
  });
  // Submit cannot return while the queue is full — only Flush (below)
  // frees a slot, so this read is race-free in its false phase.
  EXPECT_FALSE(released.load());
  ASSERT_TRUE(fe.Flush().ok());
  producer.join();
  EXPECT_TRUE(released.load());
  ASSERT_TRUE(fe.Flush().ok());
  EXPECT_EQ(fe.Stats().applied, 3u);
}

TEST(FrontEndTest, ShutdownDrainsEverythingAccepted) {
  MonitoringServer server = MakeServer();
  ServingFrontEnd fe(&server);
  fe.Start();
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(fe.Submit(AddObject(i, static_cast<EdgeId>(i % 5), 0.5))
                    .ok());
  }
  fe.Shutdown();
  const ServingStats stats = fe.Stats();
  EXPECT_EQ(stats.accepted, 10u);
  EXPECT_EQ(stats.applied, 10u);
  EXPECT_EQ(fe.QueueDepth(), 0u);

  // The front end is closed for business but stays readable.
  EXPECT_TRUE(fe.TrySubmit(AddObject(99, 0, 0.5)).IsFailedPrecondition());
  EXPECT_TRUE(fe.Submit(AddObject(99, 0, 0.5)).IsFailedPrecondition());
  EXPECT_TRUE(fe.ReadResult(12345).status().IsNotFound());
  fe.Shutdown();  // Idempotent.
}

TEST(FrontEndTest, ReadYourWritesAfterFlush) {
  MonitoringServer server = MakeServer();
  ServingFrontEnd fe(&server);
  fe.Start();
  ASSERT_TRUE(fe.Submit(InstallQuery(5, 0, 0.5, 2)).ok());
  ASSERT_TRUE(fe.Submit(AddObject(1, 0, 0.25)).ok());
  ASSERT_TRUE(fe.Submit(AddObject(2, 0, 0.75)).ok());
  ASSERT_TRUE(fe.Flush().ok());

  Result<std::vector<Neighbor>> result = fe.ReadResult(5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 2u);
  EXPECT_TRUE(fe.ReadResult(12345).status().IsNotFound());
  fe.Shutdown();
}

TEST(FrontEndTest, InvalidRequestsAreCountedAndDropped) {
  MonitoringServer server = MakeServer();
  ServingFrontEnd fe(&server);  // No pump: windows are explicit.

  // Window 1: a move and a remove of unknown objects, which BuildBatch
  // cannot translate, and a double install, which the server refuses.
  ASSERT_TRUE(fe.TrySubmit(MoveObject(42, 0, 0.5)).ok());
  ASSERT_TRUE(fe.TrySubmit(RemoveObject(43)).ok());
  ASSERT_TRUE(fe.TrySubmit(InstallQuery(1, 0, 0.5, 1)).ok());
  ASSERT_TRUE(fe.TrySubmit(InstallQuery(1, 1, 0.5, 1)).ok());
  ASSERT_TRUE(fe.Flush().ok());
  ServingStats stats = fe.Stats();
  EXPECT_EQ(stats.rejected_invalid, 3u);
  EXPECT_EQ(stats.applied, 1u);  // The first install.

  // Window 2: valid requests around four the server refuses — a NaN
  // weight, an edge id the network does not have, a move to a NaN offset
  // and a k = 0 install. The refusals are per-update verdicts: the window
  // still costs one tick, and one bad request never vetoes its neighbors,
  // not even a later request of the same query.
  const std::uint64_t ticks = stats.ticks;
  ASSERT_TRUE(fe.TrySubmit(AddObject(7, 0, 0.5)).ok());
  ASSERT_TRUE(fe.TrySubmit(UpdateWeight(3, 2.0)).ok());
  ASSERT_TRUE(fe.TrySubmit(UpdateWeight(4, kNan)).ok());
  ASSERT_TRUE(fe.TrySubmit(UpdateWeight(std::uint64_t{1} << 30, 2.0)).ok());
  ASSERT_TRUE(fe.TrySubmit(MoveQuery(1, 0, kNan)).ok());
  ASSERT_TRUE(fe.TrySubmit(MoveQuery(1, 2, 0.25)).ok());
  ASSERT_TRUE(fe.TrySubmit(InstallQuery(2, 1, 0.25, 0)).ok());
  ASSERT_TRUE(fe.TrySubmit(InstallQuery(3, 1, 0.75, 2)).ok());
  ASSERT_TRUE(fe.Flush().ok());
  stats = fe.Stats();
  EXPECT_EQ(stats.ticks, ticks + 1);
  EXPECT_EQ(stats.rejected_invalid, 7u);
  EXPECT_EQ(stats.applied, 5u);
  EXPECT_FALSE(fe.last_error().ok());
  EXPECT_TRUE(server.objects().Contains(7));
  EXPECT_DOUBLE_EQ(server.network().edge(3).weight, 2.0);
  EXPECT_TRUE(fe.ReadResult(1).ok());
  EXPECT_TRUE(fe.ReadResult(2).status().IsNotFound());
  EXPECT_TRUE(fe.ReadResult(3).ok());
}

// Regression: an engine-side reject is a per-update verdict, so Flush()
// returns OK and the counters look like an ordinary validation drop — the
// latched last_error() is the only witness. Report consumers (the load
// scenario's `engine_error` field) must carry it; reading Stats() alone
// reproduces the old silent-failure path.
TEST(FrontEndTest, OkFlushDoesNotClearTheEngineErrorWitness) {
  MonitoringServer server = MakeServer();
  ServingFrontEnd fe(&server);
  ASSERT_TRUE(fe.TrySubmit(UpdateWeight(std::uint64_t{1} << 30, 2.0)).ok());
  const Status flushed = fe.Flush();
  EXPECT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_FALSE(fe.last_error().ok());
  fe.Shutdown();
  // Survives the final drain, so post-run reporting still sees it.
  EXPECT_FALSE(fe.last_error().ok());
}

TEST(FrontEndTest, LatencyStatsArePopulated) {
  MonitoringServer server = MakeServer();
  ServingFrontEnd fe(&server);
  fe.Start();
  for (std::uint64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(fe.Submit(AddObject(i, static_cast<EdgeId>(i % 7), 0.5))
                    .ok());
  }
  ASSERT_TRUE(fe.Flush().ok());
  // ReadResult drains the engine, retiring any latencies still pending
  // behind the depth-2 pipeline.
  EXPECT_TRUE(fe.ReadResult(0).status().IsNotFound());
  const ServingStats stats = fe.Stats();
  EXPECT_EQ(stats.latency_samples, 32u);
  EXPECT_GE(stats.latency_p50_sec, 0.0);
  EXPECT_LE(stats.latency_p50_sec, stats.latency_p95_sec);
  EXPECT_LE(stats.latency_p95_sec, stats.latency_p99_sec);
  EXPECT_LE(stats.latency_p99_sec, stats.latency_max_sec);
  fe.Shutdown();
}

TEST(FrontEndTest, TryAccessorsFailCleanlyWhileInFlight) {
  MonitoringServer server = MakeServer(/*shards=*/2, /*pipeline_depth=*/2);
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kInstall, NetworkPoint{0, 0.5}, 1});
  batch.objects.push_back(
      ObjectUpdate{0, std::nullopt, NetworkPoint{0, 0.25}});
  ASSERT_TRUE(server.SubmitBatch(batch).ok());
  ASSERT_TRUE(server.InFlight());

  // The CHECK-guarded accessors would abort here; the Try* variants
  // answer FailedPrecondition instead (the client-reachable path).
  const std::vector<Neighbor>* neighbors = nullptr;
  EXPECT_TRUE(server.TryResultOf(0, &neighbors).IsFailedPrecondition());
  EXPECT_TRUE(server.TryNumQueries().status().IsFailedPrecondition());
  EXPECT_TRUE(
      server.TryMonitorMemoryBytes().status().IsFailedPrecondition());

  ASSERT_TRUE(server.Drain().ok());
  ASSERT_TRUE(server.TryResultOf(0, &neighbors).ok());
  ASSERT_NE(neighbors, nullptr);
  Result<std::size_t> queries = server.TryNumQueries();
  ASSERT_TRUE(queries.ok());
  EXPECT_EQ(*queries, 1u);
  EXPECT_TRUE(server.TryMonitorMemoryBytes().ok());
}

}  // namespace
}  // namespace cknn
