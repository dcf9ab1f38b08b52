// Checkpoint/resume determinism under concurrency: a run interrupted at a
// BatchPipeline barrier, snapshotted with PgHive::SaveState, and resumed in
// a fresh hive must finish with a schema byte-identical to the
// uninterrupted sequential run — at every thread count (1 = the sequential
// loop, more = the one-batch lookahead), on every zoo dataset. Runs under
// the `threaded` label so the TSan CI job checks that snapshotting at a
// barrier really does observe quiescent pipeline state.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
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

// Datatype sampling is on; it samples only the types above
// DataTypeOptions::min_sample instances.
core::PgHiveOptions MakeOptions(size_t num_threads) {
  core::PgHiveOptions options;
  options.num_threads = num_threads;
  options.datatype_options.sample = true;
  return options;
}

constexpr double kScale = 0.04;

std::string SchemaBytes(const core::PgHive& hive,
                        const pg::PropertyGraph& graph) {
  return core::SerializePgSchema(hive.schema(), graph.vocab(),
                                 core::SchemaMode::kStrict) +
         core::SerializeXsd(hive.schema(), graph.vocab());
}

// The uninterrupted ground truth: one pipelined run over all batches. When
// `largest_type` is set, it receives the instances of the largest type.
std::string UninterruptedRun(const datasets::DatasetSpec& spec,
                             size_t batches, double scale = kScale,
                             size_t* largest_type = nullptr) {
  datasets::Dataset dataset = datasets::Generate(spec, scale, /*seed=*/99);
  core::PgHive hive(&dataset.graph, MakeOptions(1));
  core::BatchPipeline executor(&hive);
  auto split = pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/5);
  EXPECT_TRUE(executor.Run(split).ok());
  EXPECT_TRUE(hive.Finish().ok());
  if (largest_type != nullptr) {
    *largest_type = 0;
    for (const auto& type : hive.schema().node_types()) {
      *largest_type = std::max(*largest_type, type.instances.size());
    }
    for (const auto& type : hive.schema().edge_types()) {
      *largest_type = std::max(*largest_type, type.instances.size());
    }
  }
  return SchemaBytes(hive, dataset.graph);
}

// Runs the first `checkpoint_at` batches pipelined, snapshots at the
// barrier, restores into a fresh hive (same thread count), and finishes
// with the rest.
std::string CheckpointedRun(const datasets::DatasetSpec& spec, size_t batches,
                            size_t checkpoint_at, size_t num_threads,
                            double scale = kScale) {
  std::string snapshot;
  {
    datasets::Dataset dataset = datasets::Generate(spec, scale, /*seed=*/99);
    core::PgHive hive(&dataset.graph, MakeOptions(num_threads));
    core::BatchPipeline executor(&hive);
    auto split = pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/5);
    std::vector<pg::GraphBatch> head(
        std::make_move_iterator(split.begin()),
        std::make_move_iterator(split.begin() + checkpoint_at));
    EXPECT_TRUE(executor.Run(head).ok());
    auto bytes = hive.SaveState();
    EXPECT_TRUE(bytes.ok());
    if (bytes.ok()) snapshot = *bytes;
  }

  datasets::Dataset dataset = datasets::Generate(spec, scale, /*seed=*/99);
  core::PgHive hive(&dataset.graph, MakeOptions(num_threads));
  auto restored = hive.RestoreState(snapshot);
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

// Finish samples the datatypes of a type above min_sample instances, after
// the resume; the sample depends only on the restored types, so the resumed
// schema matches the uninterrupted one.
TEST(CheckpointDeterminismTest, SampledResumeIdentical) {
  const datasets::DatasetSpec spec = datasets::LdbcSpec();
  const size_t batches = 4;
  const double scale = 0.3;
  size_t largest_type = 0;
  std::string expected =
      UninterruptedRun(spec, batches, scale, &largest_type);
  EXPECT_GT(largest_type, core::DataTypeOptions::min_sample);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EXPECT_EQ(CheckpointedRun(spec, batches, /*checkpoint_at=*/2, threads,
                              scale),
              expected)
        << "threads=" << threads;
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
    datasets::Dataset dataset = datasets::Generate(spec, kScale, 99);
    core::PgHive hive(&dataset.graph, MakeOptions(8));
    core::BatchPipeline executor(&hive);
    auto split = pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/5);
    split.resize(2);
    ASSERT_TRUE(executor.Run(split).ok());
    auto bytes = hive.SaveState();
    ASSERT_TRUE(bytes.ok());
    snapshot = *bytes;
  }

  datasets::Dataset dataset = datasets::Generate(spec, kScale, 99);
  core::PgHive hive(&dataset.graph, MakeOptions(1));
  auto restored = hive.RestoreState(snapshot);
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
