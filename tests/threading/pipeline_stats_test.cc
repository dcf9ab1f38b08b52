// PipelineStats accounting under cross-batch overlap: every stage time is
// measured on the thread that ran the stage, so per-batch stats must stay
// internally consistent (non-negative, totals = sum of stages, hive totals
// = sum over batches) even while batch i+1's preprocess races batch i's
// extract.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/batch_pipeline.h"
#include "core/pghive.h"
#include "core/schema.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "pg/batch.h"

namespace pghive {
namespace {

core::PgHiveOptions OverlapOptions() {
  core::PgHiveOptions options;
  options.num_threads = 4;
  return options;
}

TEST(PipelineStatsTest, PerBatchStatsConsistentUnderOverlap) {
  datasets::Dataset dataset =
      datasets::Generate(datasets::LdbcSpec(), 0.2, 21);
  core::PgHive hive(&dataset.graph, OverlapOptions());
  core::BatchPipeline executor(&hive);
  auto batches = pg::SplitIntoBatches(dataset.graph, 5, 9);
  ASSERT_TRUE(executor.Run(batches).ok());

  const auto& stats = executor.batch_stats();
  ASSERT_EQ(stats.size(), batches.size());
  double preprocess_sum = 0, cluster_sum = 0, extract_sum = 0, post_sum = 0;
  size_t node_cluster_sum = 0, edge_cluster_sum = 0;
  for (size_t i = 0; i < stats.size(); ++i) {
    const core::PipelineStats& s = stats[i];
    EXPECT_GE(s.preprocess_ms, 0.0) << "batch " << i;
    EXPECT_GE(s.cluster_ms, 0.0) << "batch " << i;
    EXPECT_GE(s.extract_ms, 0.0) << "batch " << i;
    EXPECT_GE(s.post_process_ms, 0.0) << "batch " << i;
    // total_ms/discovery_ms are derived sums of the stage fields.
    EXPECT_DOUBLE_EQ(s.total_ms(), s.preprocess_ms + s.cluster_ms +
                                       s.extract_ms + s.post_process_ms);
    EXPECT_DOUBLE_EQ(s.discovery_ms(),
                     s.preprocess_ms + s.cluster_ms + s.extract_ms);
    // Post-processing runs at Finish, never in a batch.
    EXPECT_EQ(s.post_process_ms, 0.0) << "batch " << i;
    // Non-empty batches did real preprocess + cluster work.
    if (!batches[i].empty()) {
      EXPECT_GT(s.node_clusters + s.edge_clusters, 0u) << "batch " << i;
    }
    preprocess_sum += s.preprocess_ms;
    cluster_sum += s.cluster_ms;
    extract_sum += s.extract_ms;
    post_sum += s.post_process_ms;
    node_cluster_sum += s.node_clusters;
    edge_cluster_sum += s.edge_clusters;
  }

  // The hive's cumulative stats are the per-batch sums: overlap must not
  // double-count a stage or attribute one batch's time to another.
  const core::PipelineStats& total = hive.total_stats();
  EXPECT_NEAR(total.preprocess_ms, preprocess_sum, 1e-9);
  EXPECT_NEAR(total.cluster_ms, cluster_sum, 1e-9);
  EXPECT_NEAR(total.extract_ms, extract_sum, 1e-9);
  EXPECT_NEAR(total.post_process_ms, post_sum, 1e-9);
  EXPECT_EQ(total.node_clusters, node_cluster_sum);
  EXPECT_EQ(total.edge_clusters, edge_cluster_sum);

  // last_stats() is the final batch's snapshot.
  EXPECT_DOUBLE_EQ(hive.last_stats().preprocess_ms,
                   stats.back().preprocess_ms);
  EXPECT_EQ(hive.last_stats().node_clusters, stats.back().node_clusters);

  // The pipeline measured a positive wall clock, and on overlapped runs the
  // per-stage sum may legitimately exceed it (that is the speedup).
  EXPECT_GT(executor.wall_ms(), 0.0);
}

TEST(PipelineStatsTest, SequentialAndOverlappedStatsCountSameClusters) {
  // Stage *times* differ run to run, but the structural tallies (clusters
  // per batch) are part of the determinism contract: 1 thread runs the
  // sequential loop, more threads the lookahead.
  auto run = [](size_t threads) {
    datasets::Dataset dataset =
        datasets::Generate(datasets::Mb6Spec(), 0.2, 23);
    core::PgHiveOptions options;
    options.num_threads = threads;
    core::PgHive hive(&dataset.graph, options);
    core::BatchPipeline executor(&hive);
    auto batches = pg::SplitIntoBatches(dataset.graph, 4, 13);
    EXPECT_TRUE(executor.Run(batches).ok());
    std::vector<std::pair<size_t, size_t>> clusters;
    for (const auto& s : executor.batch_stats()) {
      clusters.emplace_back(s.node_clusters, s.edge_clusters);
    }
    return clusters;
  };
  EXPECT_EQ(run(1), run(4));
  EXPECT_EQ(run(2), run(8));
}

}  // namespace
}  // namespace pghive
