// Checkpoint/resume determinism under concurrency: a run interrupted at a
// BatchPipeline barrier, snapshotted with PgHive::SaveState, and resumed in
// a fresh hive must finish with a schema byte-identical to the
// uninterrupted sequential run — at every thread count (1 = the sequential
// loop, more = the one-batch lookahead), on every zoo dataset. Runs under
// the `threaded` label so the TSan CI job checks that snapshotting at a
// barrier really does observe quiescent pipeline state.

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_pipeline.h"
#include "core/pghive.h"
#include "core/serialize.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "pg/batch.h"

namespace pghive {
namespace {

core::PgHiveOptions MakeOptions(size_t num_threads) {
  core::PgHiveOptions options;
  options.num_threads = num_threads;
  options.datatype_options.sample = true;
  options.datatype_options.min_sample = 50;
  return options;
}

std::string SchemaBytes(const core::PgHive& hive,
                        const pg::PropertyGraph& graph) {
  return core::SerializePgSchema(hive.schema(), graph.vocab(),
                                 core::SchemaMode::kStrict) +
         core::SerializeXsd(hive.schema(), graph.vocab());
}

// The uninterrupted ground truth: one pipelined run over all batches.
std::string UninterruptedRun(const datasets::DatasetSpec& spec,
                             size_t batches) {
  datasets::Dataset dataset = datasets::Generate(spec, /*scale=*/0.04,
                                                 /*seed=*/99);
  core::PgHive hive(&dataset.graph, MakeOptions(1));
  core::BatchPipeline executor(&hive);
  auto split = pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/5);
  EXPECT_TRUE(executor.Run(split).ok());
  EXPECT_TRUE(hive.Finish().ok());
  return SchemaBytes(hive, dataset.graph);
}

// Runs the first `checkpoint_at` batches pipelined, snapshots at the
// barrier, restores into a fresh hive (same thread count), and finishes
// with the rest.
std::string CheckpointedRun(const datasets::DatasetSpec& spec, size_t batches,
                            size_t checkpoint_at, size_t num_threads) {
  std::string snapshot;
  {
    datasets::Dataset dataset = datasets::Generate(spec, /*scale=*/0.04,
                                                   /*seed=*/99);
    core::PgHive hive(&dataset.graph, MakeOptions(num_threads));
    core::BatchPipeline executor(&hive);
    auto split = pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/5);
    std::vector<pg::GraphBatch> head(
        std::make_move_iterator(split.begin()),
        std::make_move_iterator(split.begin() + checkpoint_at));
    EXPECT_TRUE(executor.Run(head).ok());
    std::ostringstream sink;
    EXPECT_TRUE(hive.SaveState(sink).ok());
    snapshot = sink.str();
  }

  datasets::Dataset dataset = datasets::Generate(spec, /*scale=*/0.04,
                                                 /*seed=*/99);
  core::PgHive hive(&dataset.graph, MakeOptions(num_threads));
  std::istringstream source(snapshot);
  auto restored = hive.RestoreState(source);
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  if (!restored.ok()) return {};
  auto split = pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/5);
  std::vector<pg::GraphBatch> tail(
      std::make_move_iterator(split.begin() + static_cast<long>(*restored)),
      std::make_move_iterator(split.end()));
  core::BatchPipeline executor(&hive);
  EXPECT_TRUE(executor.Run(tail).ok());
  EXPECT_TRUE(hive.Finish().ok());
  return SchemaBytes(hive, dataset.graph);
}

TEST(CheckpointDeterminismTest, ResumeIdenticalOnAllZooDatasets) {
  const size_t batches = 4;
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    std::string expected = UninterruptedRun(spec, batches);
    ASSERT_FALSE(expected.empty()) << spec.name;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      EXPECT_EQ(CheckpointedRun(spec, batches, /*checkpoint_at=*/2, threads),
                expected)
          << spec.name << " threads=" << threads;
    }
  }
}

// A snapshot taken under one execution plan must resume under a different
// one: the thread count is byte-identity-neutral, so save at 8 threads (the
// lookahead) and resume at 1 thread (the sequential loop); both land on the
// sequential schema.
TEST(CheckpointDeterminismTest, PlanChangeAcrossResume) {
  const datasets::DatasetSpec spec = datasets::PoleSpec();
  const size_t batches = 4;
  std::string expected = UninterruptedRun(spec, batches);

  std::string snapshot;
  {
    datasets::Dataset dataset = datasets::Generate(spec, 0.04, 99);
    core::PgHive hive(&dataset.graph, MakeOptions(8));
    core::BatchPipeline executor(&hive);
    auto split = pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/5);
    split.resize(2);
    ASSERT_TRUE(executor.Run(split).ok());
    std::ostringstream sink;
    ASSERT_TRUE(hive.SaveState(sink).ok());
    snapshot = sink.str();
  }

  datasets::Dataset dataset = datasets::Generate(spec, 0.04, 99);
  core::PgHive hive(&dataset.graph, MakeOptions(1));
  std::istringstream source(snapshot);
  auto restored = hive.RestoreState(source);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(*restored, 2u);
  auto split = pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/5);
  std::vector<pg::GraphBatch> tail(split.begin() + 2, split.end());
  core::BatchPipeline executor(&hive);
  ASSERT_TRUE(executor.Run(tail).ok());
  ASSERT_TRUE(hive.Finish().ok());
  EXPECT_EQ(SchemaBytes(hive, dataset.graph), expected);
}

}  // namespace
}  // namespace pghive
