// BatchPipeline plumbing that needs no concurrency to verify: the
// sequential fallbacks (serial hive, single batch), stats bookkeeping, and
// reuse across Run calls. The overlap/determinism guarantees live in
// tests/threading/pipeline_determinism_test.cc.

#include "core/batch_pipeline.h"

#include <gtest/gtest.h>

#include "core/pghive.h"
#include "pg/batch.h"

namespace pghive::core {
namespace {

pg::PropertyGraph SmallGraph() {
  pg::PropertyGraph g;
  for (int i = 0; i < 12; ++i) {
    auto n = g.AddNode({i % 2 == 0 ? "Even" : "Odd"});
    g.SetNodeProperty(n, "v", pg::Value(static_cast<int64_t>(i)));
  }
  for (int i = 0; i < 12; ++i) {
    g.AddEdge(i, (i + 1) % 12, {"NEXT"});
  }
  return g;
}

TEST(BatchPipelineTest, SerialHiveFallsBackToSequentialLoop) {
  pg::PropertyGraph g1 = SmallGraph();
  pg::PropertyGraph g2 = SmallGraph();
  PgHiveOptions serial;
  serial.num_threads = 1;  // No pool => overlap impossible.

  PgHive loop_hive(&g1, serial);
  for (const auto& batch : pg::SplitIntoBatches(g1, 3, 4)) {
    ASSERT_TRUE(loop_hive.ProcessBatch(batch).ok());
  }
  ASSERT_TRUE(loop_hive.Finish().ok());

  PgHive pipe_hive(&g2, serial);
  ASSERT_EQ(pipe_hive.pool(), nullptr);
  BatchPipeline pipeline(&pipe_hive);
  ASSERT_TRUE(pipeline.Run(pg::SplitIntoBatches(g2, 3, 4)).ok());
  ASSERT_TRUE(pipe_hive.Finish().ok());

  EXPECT_EQ(pipeline.batch_stats().size(), 3u);
  EXPECT_EQ(pipe_hive.NodeAssignment(), loop_hive.NodeAssignment());
  EXPECT_EQ(pipe_hive.EdgeAssignment(), loop_hive.EdgeAssignment());
}

TEST(BatchPipelineTest, EmptyBatchListIsANoOp) {
  pg::PropertyGraph g = SmallGraph();
  PgHive hive(&g, {});
  BatchPipeline pipeline(&hive);
  ASSERT_TRUE(pipeline.Run({}).ok());
  EXPECT_TRUE(pipeline.batch_stats().empty());
  EXPECT_EQ(hive.schema().num_node_types(), 0u);
}

TEST(BatchPipelineTest, SingleBatchMatchesRun) {
  pg::PropertyGraph g1 = SmallGraph();
  pg::PropertyGraph g2 = SmallGraph();
  PgHive static_hive(&g1, {});
  ASSERT_TRUE(static_hive.Run().ok());

  PgHive pipe_hive(&g2, {});
  BatchPipeline pipeline(&pipe_hive);
  ASSERT_TRUE(pipeline.Run({pg::FullBatch(g2)}).ok());
  ASSERT_TRUE(pipe_hive.Finish().ok());

  EXPECT_EQ(pipeline.batch_stats().size(), 1u);
  EXPECT_EQ(pipe_hive.schema().num_node_types(),
            static_hive.schema().num_node_types());
  EXPECT_EQ(pipe_hive.NodeAssignment(), static_hive.NodeAssignment());
}

TEST(BatchPipelineTest, RerunClearsPreviousStats) {
  pg::PropertyGraph g = SmallGraph();
  PgHive hive(&g, {});
  BatchPipeline pipeline(&hive);
  ASSERT_TRUE(pipeline.Run(pg::SplitIntoBatches(g, 4, 8)).ok());
  EXPECT_EQ(pipeline.batch_stats().size(), 4u);
  ASSERT_TRUE(pipeline.Run(pg::SplitIntoBatches(g, 2, 8)).ok());
  EXPECT_EQ(pipeline.batch_stats().size(), 2u);
  EXPECT_GT(pipeline.wall_ms(), 0.0);
}

}  // namespace
}  // namespace pghive::core
