// The pipelined batch executor's determinism guarantee: BatchPipeline must
// produce a schema byte-identical to the sequential ProcessBatch loop at
// every thread count — at 1 thread it is the sequential loop itself, and
// from 2 threads on the preprocess of batch i+1 overlapping the extract of
// batch i must be unobservable in the output. Runs under the `threaded`
// label so the TSan CI job races the preprocess thread against the
// coordinator.

#include <gtest/gtest.h>

#include <algorithm>
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

struct Discovery {
  std::string pgs;
  std::string xsd;
  std::vector<uint32_t> node_assignment;
  std::vector<uint32_t> edge_assignment;
  size_t largest_type = 0;  ///< Instances of the largest type.
};

// Datatype sampling is on; it samples only the types above
// DataTypeOptions::min_sample instances.
core::PgHiveOptions BaseOptions(core::ClusterMethod method,
                                size_t num_threads) {
  core::PgHiveOptions options;
  options.method = method;
  options.num_threads = num_threads;
  options.datatype_options.sample = true;
  return options;
}

Discovery Serialize(const core::PgHive& pipeline,
                    const pg::PropertyGraph& graph) {
  Discovery out;
  out.pgs = core::SerializePgSchema(pipeline.schema(), graph.vocab(),
                                    core::SchemaMode::kStrict);
  out.xsd = core::SerializeXsd(pipeline.schema(), graph.vocab());
  out.node_assignment = pipeline.NodeAssignment();
  out.edge_assignment = pipeline.EdgeAssignment();
  for (const auto& type : pipeline.schema().node_types()) {
    out.largest_type = std::max(out.largest_type, type.instances.size());
  }
  for (const auto& type : pipeline.schema().edge_types()) {
    out.largest_type = std::max(out.largest_type, type.instances.size());
  }
  return out;
}

// The ground truth: the strictly sequential ProcessBatch loop, single
// threaded. Each run regenerates the dataset so vocabularies never leak
// across runs.
Discovery SequentialDiscover(const datasets::DatasetSpec& spec, double scale,
                             core::ClusterMethod method, size_t batches) {
  datasets::Dataset dataset = datasets::Generate(spec, scale, /*seed=*/99);
  core::PgHive pipeline(&dataset.graph, BaseOptions(method, 1));
  for (const auto& batch :
       pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/5)) {
    EXPECT_TRUE(pipeline.ProcessBatch(batch).ok());
  }
  EXPECT_TRUE(pipeline.Finish().ok());
  return Serialize(pipeline, dataset.graph);
}

Discovery PipelinedDiscover(const datasets::DatasetSpec& spec, double scale,
                            core::ClusterMethod method, size_t batches,
                            size_t num_threads) {
  datasets::Dataset dataset = datasets::Generate(spec, scale, /*seed=*/99);
  core::PgHive pipeline(&dataset.graph, BaseOptions(method, num_threads));
  core::BatchPipeline executor(&pipeline);
  auto split = pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/5);
  EXPECT_TRUE(executor.Run(split).ok());
  EXPECT_EQ(executor.batch_stats().size(), split.size());
  EXPECT_TRUE(pipeline.Finish().ok());
  return Serialize(pipeline, dataset.graph);
}

// Returns the sequential run's discovery.
Discovery ExpectPipelineMatchesSequential(const datasets::DatasetSpec& spec,
                                          double scale,
                                          core::ClusterMethod method,
                                          size_t batches) {
  Discovery sequential = SequentialDiscover(spec, scale, method, batches);
  EXPECT_FALSE(sequential.pgs.empty());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    Discovery pipelined =
        PipelinedDiscover(spec, scale, method, batches, threads);
    EXPECT_EQ(pipelined.pgs, sequential.pgs)
        << spec.name << " threads=" << threads;
    EXPECT_EQ(pipelined.xsd, sequential.xsd)
        << spec.name << " threads=" << threads;
    EXPECT_EQ(pipelined.node_assignment, sequential.node_assignment)
        << spec.name << " threads=" << threads;
    EXPECT_EQ(pipelined.edge_assignment, sequential.edge_assignment)
        << spec.name << " threads=" << threads;
  }
  return sequential;
}

TEST(PipelineDeterminismTest, ElshIdenticalOnAllZooDatasets) {
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    ExpectPipelineMatchesSequential(spec, /*scale=*/0.04,
                                    core::ClusterMethod::kElsh,
                                    /*batches=*/3);
  }
}

TEST(PipelineDeterminismTest, MinHashIdentical) {
  ExpectPipelineMatchesSequential(datasets::PoleSpec(), /*scale=*/0.1,
                                  core::ClusterMethod::kMinHash,
                                  /*batches=*/4);
}

// Finish samples the datatypes of every type above min_sample instances
// from that type's own pre-split RNG, so the sampled schema of a
// lookahead run matches the sequential loop byte for byte too.
TEST(PipelineDeterminismTest, SampledDatatypesIdentical) {
  Discovery sequential = ExpectPipelineMatchesSequential(
      datasets::LdbcSpec(), /*scale=*/0.3, core::ClusterMethod::kElsh,
      /*batches=*/4);
  EXPECT_GT(sequential.largest_type, core::DataTypeOptions::min_sample);
}

// Hardware-default thread count (0 resolves to whatever the host has) with
// overlap enabled must also match.
TEST(PipelineDeterminismTest, HardwareDefaultWithOverlapMatchesSequential) {
  Discovery sequential = SequentialDiscover(
      datasets::IcijSpec(), 0.1, core::ClusterMethod::kElsh, 4);
  Discovery hw = PipelinedDiscover(datasets::IcijSpec(), 0.1,
                                   core::ClusterMethod::kElsh, 4,
                                   /*num_threads=*/0);
  EXPECT_EQ(hw.pgs, sequential.pgs);
  EXPECT_EQ(hw.edge_assignment, sequential.edge_assignment);
}

// An adversarial hand-built split: every edge arrives one batch before its
// endpoints (batch 0 = all edges, batch 1 = all nodes, plus an empty tail
// batch). Batches reference the full graph, so endpoint labels resolve
// either way — the pipeline must neither crash nor diverge from the
// sequential loop.
TEST(PipelineDeterminismTest, EdgesBeforeEndpointsTolerated) {
  auto make_graph = [] {
    datasets::Dataset dataset =
        datasets::Generate(datasets::PoleSpec(), 0.05, 3);
    return std::move(dataset.graph);
  };
  auto make_batches = [](const pg::PropertyGraph& graph) {
    std::vector<pg::GraphBatch> batches(3);
    for (pg::EdgeId e = 0; e < graph.num_edges(); ++e) {
      batches[0].edge_ids.push_back(e);
    }
    for (pg::NodeId n = 0; n < graph.num_nodes(); ++n) {
      batches[1].node_ids.push_back(n);
    }
    return batches;  // batches[2] stays empty on purpose.
  };

  pg::PropertyGraph sequential_graph = make_graph();
  core::PgHive sequential(
      &sequential_graph,
      BaseOptions(core::ClusterMethod::kElsh, 1));
  for (const auto& batch : make_batches(sequential_graph)) {
    ASSERT_TRUE(sequential.ProcessBatch(batch).ok());
  }
  ASSERT_TRUE(sequential.Finish().ok());

  pg::PropertyGraph pipelined_graph = make_graph();
  core::PgHive pipelined(
      &pipelined_graph,
      BaseOptions(core::ClusterMethod::kElsh, 4));
  core::BatchPipeline executor(&pipelined);
  auto batches = make_batches(pipelined_graph);
  ASSERT_TRUE(executor.Run(batches).ok());
  ASSERT_TRUE(pipelined.Finish().ok());

  EXPECT_EQ(core::SerializePgSchema(pipelined.schema(),
                                    pipelined_graph.vocab(),
                                    core::SchemaMode::kStrict),
            core::SerializePgSchema(sequential.schema(),
                                    sequential_graph.vocab(),
                                    core::SchemaMode::kStrict));
  EXPECT_EQ(pipelined.NodeAssignment(), sequential.NodeAssignment());
}

// A finished hive refuses more batches and stays as it was: with a pool, the
// lookahead must not preprocess a batch (intern its tokens, train the
// embedder on it) before the refusal, so the snapshot bytes do not change.
TEST(PipelineDeterminismTest, FinishedHiveRefusesRunUnchanged) {
  datasets::Dataset dataset =
      datasets::Generate(datasets::PoleSpec(), 0.05, 3);
  core::PgHive hive(&dataset.graph,
                    BaseOptions(core::ClusterMethod::kElsh, 4));
  ASSERT_NE(hive.pool(), nullptr);
  const auto batches = pg::SplitIntoBatches(dataset.graph, 3, 1);
  core::BatchPipeline executor(&hive);
  ASSERT_TRUE(executor.Run(batches).ok());
  ASSERT_TRUE(hive.Finish().ok());
  auto before = hive.SaveState();
  ASSERT_TRUE(before.ok());

  EXPECT_EQ(executor.Run(batches).code(),
            util::StatusCode::kFailedPrecondition);
  auto after = hive.SaveState();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(*after == *before) << "the refused Run changed the hive";
}

}  // namespace
}  // namespace pghive
