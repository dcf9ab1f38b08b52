// The parallel engine's determinism guarantee: discovery produces a
// byte-identical schema no matter how many threads run the pipeline
// (ParallelFor shards by index, RNG seeds are pre-split per shard, and the
// node and edge sides merge in fixed order).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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

Discovery Discover(const datasets::DatasetSpec& spec, double scale,
                   core::ClusterMethod method, size_t num_threads,
                   size_t batches = 1) {
  // Each run regenerates the dataset so vocabularies never leak across runs.
  datasets::Dataset dataset = datasets::Generate(spec, scale, /*seed=*/99);
  core::PgHiveOptions options;
  options.method = method;
  options.num_threads = num_threads;
  // Samples the datatypes of the types above DataTypeOptions::min_sample
  // instances.
  options.datatype_options.sample = true;
  core::PgHive pipeline(&dataset.graph, options);
  if (batches <= 1) {
    EXPECT_TRUE(pipeline.Run().ok());
  } else {
    for (const auto& batch :
         pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/5)) {
      EXPECT_TRUE(pipeline.ProcessBatch(batch).ok());
    }
    EXPECT_TRUE(pipeline.Finish().ok());
  }
  Discovery out;
  out.pgs = core::SerializePgSchema(pipeline.schema(), dataset.graph.vocab(),
                                    core::SchemaMode::kStrict);
  out.xsd = core::SerializeXsd(pipeline.schema(), dataset.graph.vocab());
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

// Returns the serial run's discovery.
Discovery ExpectIdenticalAcrossThreadCounts(const datasets::DatasetSpec& spec,
                                            double scale,
                                            core::ClusterMethod method,
                                            size_t batches = 1) {
  Discovery serial = Discover(spec, scale, method, /*num_threads=*/1, batches);
  EXPECT_FALSE(serial.pgs.empty());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    Discovery parallel = Discover(spec, scale, method, threads, batches);
    EXPECT_EQ(parallel.pgs, serial.pgs)
        << spec.name << " threads=" << threads;
    EXPECT_EQ(parallel.xsd, serial.xsd)
        << spec.name << " threads=" << threads;
    EXPECT_EQ(parallel.node_assignment, serial.node_assignment)
        << spec.name << " threads=" << threads;
    EXPECT_EQ(parallel.edge_assignment, serial.edge_assignment)
        << spec.name << " threads=" << threads;
  }
  return serial;
}

TEST(DeterminismTest, ElshIdenticalAcrossThreadCountsOnAllZooDatasets) {
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    ExpectIdenticalAcrossThreadCounts(spec, /*scale=*/0.05,
                                      core::ClusterMethod::kElsh);
  }
}

TEST(DeterminismTest, MinHashIdenticalAcrossThreadCounts) {
  ExpectIdenticalAcrossThreadCounts(datasets::PoleSpec(), /*scale=*/0.1,
                                    core::ClusterMethod::kMinHash);
  ExpectIdenticalAcrossThreadCounts(datasets::IcijSpec(), /*scale=*/0.1,
                                    core::ClusterMethod::kMinHash);
}

TEST(DeterminismTest, IncrementalBatchesIdenticalAcrossThreadCounts) {
  ExpectIdenticalAcrossThreadCounts(datasets::LdbcSpec(), /*scale=*/0.1,
                                    core::ClusterMethod::kElsh,
                                    /*batches=*/4);
}

// Each type draws its datatype sample from its own pre-split RNG, so the
// sampled schema is identical at every thread count, in one batch and in
// several.
TEST(DeterminismTest, SampledDatatypesIdenticalAcrossThreadCounts) {
  for (size_t batches : {size_t{1}, size_t{4}}) {
    Discovery serial = ExpectIdenticalAcrossThreadCounts(
        datasets::LdbcSpec(), /*scale=*/0.3, core::ClusterMethod::kElsh,
        batches);
    EXPECT_GT(serial.largest_type, core::DataTypeOptions::min_sample)
        << batches << " batches";
  }
}

TEST(DeterminismTest, HardwareDefaultMatchesSerial) {
  // num_threads = 0 resolves to the hardware concurrency; whatever that is
  // on the host, the schema must match the serial run.
  Discovery serial = Discover(datasets::Mb6Spec(), 0.1,
                              core::ClusterMethod::kElsh, /*num_threads=*/1);
  Discovery hw = Discover(datasets::Mb6Spec(), 0.1,
                          core::ClusterMethod::kElsh, /*num_threads=*/0);
  EXPECT_EQ(hw.pgs, serial.pgs);
  EXPECT_EQ(hw.node_assignment, serial.node_assignment);
}

}  // namespace
}  // namespace pghive
