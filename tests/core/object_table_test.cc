#include "src/core/object_table.h"

#include <algorithm>

#include "gtest/gtest.h"

namespace cknn {
namespace {

TEST(ObjectTableTest, InsertAndLookup) {
  ObjectTable table(4);
  ASSERT_TRUE(table.Insert(7, NetworkPoint{2, 0.5}).ok());
  EXPECT_TRUE(table.Contains(7));
  EXPECT_EQ(table.size(), 1u);
  auto pos = table.Position(7);
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(pos->edge, 2u);
  EXPECT_DOUBLE_EQ(pos->t, 0.5);
  EXPECT_EQ(table.ObjectsOn(2).size(), 1u);
  EXPECT_TRUE(table.ObjectsOn(0).empty());
}

TEST(ObjectTableTest, DuplicateInsertRejected) {
  ObjectTable table(2);
  ASSERT_TRUE(table.Insert(1, NetworkPoint{0, 0.1}).ok());
  EXPECT_TRUE(table.Insert(1, NetworkPoint{1, 0.2}).IsAlreadyExists());
  EXPECT_EQ(table.ObjectsOn(1).size(), 0u);  // Failed insert left no trace.
}

TEST(ObjectTableTest, InsertOnUnknownEdgeRejected) {
  ObjectTable table(2);
  EXPECT_TRUE(table.Insert(1, NetworkPoint{5, 0.1}).IsInvalidArgument());
}

TEST(ObjectTableTest, RemoveDetachesFromEdge) {
  ObjectTable table(2);
  ASSERT_TRUE(table.Insert(1, NetworkPoint{0, 0.1}).ok());
  ASSERT_TRUE(table.Insert(2, NetworkPoint{0, 0.9}).ok());
  ASSERT_TRUE(table.Remove(1).ok());
  EXPECT_FALSE(table.Contains(1));
  EXPECT_EQ(table.ObjectsOn(0).size(), 1u);
  EXPECT_EQ(table.ObjectsOn(0)[0].id, 2u);
  EXPECT_TRUE(table.Remove(1).IsNotFound());
}

TEST(ObjectTableTest, MoveAcrossEdges) {
  ObjectTable table(3);
  ASSERT_TRUE(table.Insert(5, NetworkPoint{0, 0.5}).ok());
  ASSERT_TRUE(table.Move(5, NetworkPoint{2, 0.25}).ok());
  EXPECT_TRUE(table.ObjectsOn(0).empty());
  ASSERT_EQ(table.ObjectsOn(2).size(), 1u);
  EXPECT_DOUBLE_EQ(table.ObjectsOn(2)[0].t, 0.25);
  EXPECT_DOUBLE_EQ(table.Position(5)->t, 0.25);
}

TEST(ObjectTableTest, MoveWithinEdgeKeepsSingleEntry) {
  ObjectTable table(1);
  ASSERT_TRUE(table.Insert(5, NetworkPoint{0, 0.5}).ok());
  ASSERT_TRUE(table.Move(5, NetworkPoint{0, 0.6}).ok());
  ASSERT_EQ(table.ObjectsOn(0).size(), 1u);
  // The edge list's inline offset follows the move.
  EXPECT_DOUBLE_EQ(table.ObjectsOn(0)[0].t, 0.6);
  EXPECT_DOUBLE_EQ(table.Position(5)->t, 0.6);
}

TEST(ObjectTableTest, EdgeListOffsetsMatchPositions) {
  ObjectTable table(3);
  for (ObjectId i = 0; i < 30; ++i) {
    ASSERT_TRUE(table.Insert(i, NetworkPoint{i % 3, i / 30.0}).ok());
  }
  for (ObjectId i = 0; i < 30; i += 3) {
    ASSERT_TRUE(table.Move(i, NetworkPoint{(i + 1) % 3, 0.5}).ok());
    ASSERT_TRUE(table.Move(i + 1, NetworkPoint{(i + 1) % 3, 0.75}).ok());
  }
  ASSERT_TRUE(table.Remove(4).ok());
  std::size_t listed = 0;
  for (EdgeId e = 0; e < 3; ++e) {
    for (const ObjectTable::EdgeObject& obj : table.ObjectsOn(e)) {
      ++listed;
      const auto pos = table.Position(obj.id);
      ASSERT_TRUE(pos.ok());
      EXPECT_EQ(pos->edge, e);
      EXPECT_DOUBLE_EQ(pos->t, obj.t);
    }
  }
  EXPECT_EQ(listed, table.size());
}

TEST(ObjectTableTest, MoveUnknownRejected) {
  ObjectTable table(1);
  EXPECT_TRUE(table.Move(9, NetworkPoint{0, 0.1}).IsNotFound());
}

TEST(ObjectTableTest, ManyObjectsPerEdge) {
  ObjectTable table(1);
  for (ObjectId i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.Insert(i, NetworkPoint{0, i / 100.0}).ok());
  }
  EXPECT_EQ(table.ObjectsOn(0).size(), 100u);
  for (ObjectId i = 0; i < 100; i += 2) {
    ASSERT_TRUE(table.Remove(i).ok());
  }
  auto on_edge = table.ObjectsOn(0);
  EXPECT_EQ(on_edge.size(), 50u);
  EXPECT_TRUE(std::all_of(
      on_edge.begin(), on_edge.end(),
      [](const ObjectTable::EdgeObject& o) { return o.id % 2 == 1; }));
}

TEST(ObjectTableTest, MemoryBytesGrows) {
  ObjectTable table(10);
  const std::size_t before = table.MemoryBytes();
  for (ObjectId i = 0; i < 64; ++i) {
    ASSERT_TRUE(table.Insert(i, NetworkPoint{i % 10, 0.5}).ok());
  }
  EXPECT_GT(table.MemoryBytes(), before);
}

}  // namespace
}  // namespace cknn
