// Cross-cutting property-based tests: system-level invariants the paper
// states in §4.7 ("Theoretical Guarantees"), exercised over randomized
// graphs and the dataset zoo.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/batch_pipeline.h"
#include "core/constraints.h"
#include "core/pghive.h"
#include "core/serialize.h"
#include "core/type_extraction.h"
#include "datasets/generator.h"
#include "datasets/noise.h"
#include "datasets/zoo.h"
#include "eval/f1.h"
#include "util/rng.h"

namespace pghive {
namespace {

// Builds a random property graph with `seed`-controlled structure: random
// label sets (possibly empty), random property subsets, random edges.
pg::PropertyGraph RandomGraph(uint64_t seed, size_t nodes, size_t edges) {
  util::Rng rng(seed);
  pg::PropertyGraph g;
  const char* labels[] = {"A", "B", "C", "D", "E"};
  const char* keys[] = {"k0", "k1", "k2", "k3", "k4", "k5"};
  for (size_t i = 0; i < nodes; ++i) {
    std::vector<std::string> node_labels;
    size_t count = rng.NextBounded(3);  // 0..2 labels.
    for (size_t l = 0; l < count; ++l) {
      node_labels.push_back(labels[rng.NextBounded(5)]);
    }
    pg::NodeId id = g.AddNode(node_labels);
    for (size_t k = 0; k < 6; ++k) {
      if (rng.NextBool(0.4)) {
        g.SetNodeProperty(id, keys[k],
                          pg::Value(static_cast<int64_t>(rng.NextBounded(100))));
      }
    }
  }
  for (size_t e = 0; e < edges && nodes > 1; ++e) {
    pg::NodeId src = rng.NextBounded(nodes);
    pg::NodeId dst = rng.NextBounded(nodes);
    std::vector<std::string> edge_labels;
    if (rng.NextBool(0.8)) edge_labels.push_back(labels[rng.NextBounded(5)]);
    pg::EdgeId id = g.AddEdge(src, dst, edge_labels);
    if (rng.NextBool(0.3)) {
      g.SetEdgeProperty(id, "w", pg::Value(rng.NextDouble()));
    }
  }
  return g;
}

class RandomGraphTest : public ::testing::TestWithParam<uint64_t> {};

// §4.7 "Type completeness": every label and property observed in the graph
// appears in the schema; every element is assigned to some type.
TEST_P(RandomGraphTest, TypeCompleteness) {
  pg::PropertyGraph g = RandomGraph(GetParam(), 120, 150);
  core::PgHiveOptions options;
  options.seed = GetParam();
  core::PgHive pipeline(&g, options);
  ASSERT_TRUE(pipeline.Run().ok());

  std::set<pg::LabelId> graph_labels;
  std::set<pg::PropKeyId> graph_keys;
  for (const pg::Node& n : g.nodes()) {
    graph_labels.insert(n.labels.begin(), n.labels.end());
    for (const auto& [k, v] : n.properties.entries()) graph_keys.insert(k);
  }
  std::set<pg::LabelId> schema_labels;
  std::set<pg::PropKeyId> schema_keys;
  for (const auto& t : pipeline.schema().node_types()) {
    schema_labels.insert(t.labels.begin(), t.labels.end());
    for (const auto& [k, info] : t.properties) schema_keys.insert(k);
  }
  EXPECT_TRUE(std::includes(schema_labels.begin(), schema_labels.end(),
                            graph_labels.begin(), graph_labels.end()));
  EXPECT_TRUE(std::includes(schema_keys.begin(), schema_keys.end(),
                            graph_keys.begin(), graph_keys.end()));
  for (uint32_t a : pipeline.NodeAssignment()) EXPECT_NE(a, UINT32_MAX);
  for (uint32_t a : pipeline.EdgeAssignment()) EXPECT_NE(a, UINT32_MAX);
}

// §4.7 "Property constraints": every property marked mandatory is indeed
// present in every assigned instance.
TEST_P(RandomGraphTest, MandatoryPropertiesAreSound) {
  pg::PropertyGraph g = RandomGraph(GetParam() ^ 0xBEEF, 100, 80);
  core::PgHiveOptions options;
  core::PgHive pipeline(&g, options);
  ASSERT_TRUE(pipeline.Run().ok());
  for (const auto& t : pipeline.schema().node_types()) {
    for (const auto& [key, info] : t.properties) {
      if (info.requiredness != core::Requiredness::kMandatory) continue;
      for (uint64_t id : t.instances) {
        EXPECT_TRUE(g.node(id).properties.Has(key))
            << "mandatory key " << g.vocab().KeyName(key)
            << " missing on node " << id;
      }
    }
  }
}

// §4.7 "Data type inference": all observed values of a property are
// compatible with (join to) the inferred type.
TEST_P(RandomGraphTest, InferredTypesCoverAllValues) {
  pg::PropertyGraph g = RandomGraph(GetParam() ^ 0xF00D, 100, 60);
  core::PgHiveOptions options;
  core::PgHive pipeline(&g, options);
  ASSERT_TRUE(pipeline.Run().ok());
  for (const auto& t : pipeline.schema().node_types()) {
    for (const auto& [key, info] : t.properties) {
      for (uint64_t id : t.instances) {
        const pg::Value* v = g.node(id).properties.Get(key);
        if (v == nullptr || v->is_null()) continue;
        EXPECT_EQ(pg::JoinDataTypes(v->InferType(), info.data_type),
                  info.data_type);
      }
    }
  }
}

// §4.7 "Cardinalities": recorded bounds are sound — recomputing from the
// assigned instances never exceeds them — and tight: some source attains
// max_out and some target attains max_in.
TEST_P(RandomGraphTest, CardinalityBoundsAreSound) {
  pg::PropertyGraph g = RandomGraph(GetParam() ^ 0xCAFE, 80, 200);
  core::PgHiveOptions options;
  core::PgHive pipeline(&g, options);
  ASSERT_TRUE(pipeline.Run().ok());
  for (const auto& t : pipeline.schema().edge_types()) {
    std::map<pg::NodeId, std::set<pg::NodeId>> out;
    std::map<pg::NodeId, std::set<pg::NodeId>> in;
    for (uint64_t id : t.instances) {
      out[g.edge(id).src].insert(g.edge(id).dst);
      in[g.edge(id).dst].insert(g.edge(id).src);
    }
    size_t max_out = 0;
    size_t max_in = 0;
    for (const auto& [src, targets] : out) {
      EXPECT_LE(targets.size(), t.cardinality.max_out);
      max_out = std::max(max_out, targets.size());
    }
    for (const auto& [dst, sources] : in) {
      EXPECT_LE(sources.size(), t.cardinality.max_in);
      max_in = std::max(max_in, sources.size());
    }
    EXPECT_EQ(max_out, t.cardinality.max_out);
    EXPECT_EQ(max_in, t.cardinality.max_in);
    EXPECT_EQ(t.cardinality.kind, core::ClassifyCardinality(max_out, max_in));
  }
}

// Incremental == static (schema extent): batch order does not change which
// labels/keys the final schema covers.
TEST_P(RandomGraphTest, BatchOrderInvariantCoverage) {
  pg::PropertyGraph g1 = RandomGraph(GetParam() ^ 0x1234, 100, 100);
  pg::PropertyGraph g2 = RandomGraph(GetParam() ^ 0x1234, 100, 100);
  core::PgHiveOptions options;

  core::PgHive static_run(&g1, options);
  ASSERT_TRUE(static_run.Run().ok());

  core::PgHive incremental(&g2, options);
  for (const auto& batch :
       pg::SplitIntoBatches(g2, 4, GetParam() ^ 0x9999)) {
    ASSERT_TRUE(incremental.ProcessBatch(batch).ok());
  }
  ASSERT_TRUE(incremental.Finish().ok());

  auto coverage = [](const core::SchemaGraph& schema) {
    std::set<pg::LabelId> labels;
    std::set<pg::PropKeyId> keys;
    for (const auto& t : schema.node_types()) {
      labels.insert(t.labels.begin(), t.labels.end());
      for (const auto& [k, info] : t.properties) keys.insert(k);
    }
    return std::make_pair(labels, keys);
  };
  EXPECT_EQ(coverage(static_run.schema()), coverage(incremental.schema()));
}

// Pipelined ingest == sequential ingest, byte for byte, on randomized
// graphs and randomized splits (which routinely deliver an edge before its
// endpoints — the stream shape §4.6 requires the pipeline to tolerate).
TEST_P(RandomGraphTest, PipelinedIngestMatchesSequentialOnRandomSplits) {
  pg::PropertyGraph g1 = RandomGraph(GetParam() ^ 0x7777, 110, 130);
  pg::PropertyGraph g2 = RandomGraph(GetParam() ^ 0x7777, 110, 130);
  core::PgHiveOptions sequential_options;
  sequential_options.num_threads = 1;

  core::PgHive sequential(&g1, sequential_options);
  auto batches1 = pg::SplitIntoBatches(g1, 5, GetParam() ^ 0x3333);
  for (const auto& batch : batches1) {
    ASSERT_TRUE(sequential.ProcessBatch(batch).ok());
  }
  ASSERT_TRUE(sequential.Finish().ok());

  core::PgHiveOptions pipelined_options;
  pipelined_options.num_threads = 4;
  core::PgHive pipelined(&g2, pipelined_options);
  core::BatchPipeline executor(&pipelined);
  auto batches2 = pg::SplitIntoBatches(g2, 5, GetParam() ^ 0x3333);
  ASSERT_TRUE(executor.Run(batches2).ok());
  ASSERT_TRUE(pipelined.Finish().ok());

  EXPECT_EQ(core::SerializePgSchema(pipelined.schema(), g2.vocab(),
                                    core::SchemaMode::kStrict),
            core::SerializePgSchema(sequential.schema(), g1.vocab(),
                                    core::SchemaMode::kStrict));
  EXPECT_EQ(pipelined.NodeAssignment(), sequential.NodeAssignment());
  EXPECT_EQ(pipelined.EdgeAssignment(), sequential.EdgeAssignment());
}

// Serialization is deterministic and parse-stable across repeated export.
TEST_P(RandomGraphTest, SerializationDeterministic) {
  pg::PropertyGraph g = RandomGraph(GetParam() ^ 0x5555, 60, 40);
  core::PgHiveOptions options;
  core::PgHive pipeline(&g, options);
  ASSERT_TRUE(pipeline.Run().ok());
  std::string a = core::SerializePgSchema(pipeline.schema(), g.vocab(),
                                          core::SchemaMode::kStrict);
  std::string b = core::SerializePgSchema(pipeline.schema(), g.vocab(),
                                          core::SchemaMode::kStrict);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// F1* metric invariances: renaming cluster ids or type ids never changes
// the score.
class MetricInvarianceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricInvarianceTest, InvariantUnderRelabeling) {
  util::Rng rng(GetParam());
  const size_t n = 200;
  std::vector<uint32_t> assignment(n), truth(n);
  for (size_t i = 0; i < n; ++i) {
    assignment[i] = static_cast<uint32_t>(rng.NextBounded(7));
    truth[i] = static_cast<uint32_t>(rng.NextBounded(5));
  }
  auto base = eval::MajorityF1(assignment, truth);
  // Permute cluster ids via an affine-ish map (injective on small ranges).
  std::vector<uint32_t> renamed(n);
  for (size_t i = 0; i < n; ++i) renamed[i] = assignment[i] * 31 + 7;
  auto permuted = eval::MajorityF1(renamed, truth);
  EXPECT_DOUBLE_EQ(base.f1, permuted.f1);
  EXPECT_DOUBLE_EQ(base.coverage, permuted.coverage);
  // Refining clusters (splitting by parity of index) never lowers F1*.
  std::vector<uint32_t> refined(n);
  for (size_t i = 0; i < n; ++i) {
    refined[i] = assignment[i] * 2 + static_cast<uint32_t>(i % 2);
  }
  auto split = eval::MajorityF1(refined, truth);
  EXPECT_GE(split.f1 + 1e-12, base.f1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricInvarianceTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Noise monotonicity on a zoo dataset: PG-HIVE's F1* under increasing noise
// never collapses below the paper's floor (0.8) on POLE.
class NoiseSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(NoiseSweepTest, PoleQualityFloorHolds) {
  static datasets::Dataset* dataset = new datasets::Dataset(
      datasets::Generate(datasets::PoleSpec(), 0.15, 0x404));
  double noise = GetParam() / 100.0;
  pg::PropertyGraph g = dataset->graph;
  datasets::NoiseConfig config;
  config.property_removal = noise;
  config.seed = 5;
  datasets::InjectNoise(&g, config);
  core::PgHiveOptions options;
  core::PgHive pipeline(&g, options);
  ASSERT_TRUE(pipeline.Run().ok());
  auto f1 =
      eval::MajorityF1(pipeline.NodeAssignment(), dataset->truth.node_type);
  EXPECT_GT(f1.f1, 0.8) << "noise " << noise;
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, NoiseSweepTest,
                         ::testing::Values(0, 10, 20, 30, 40));

}  // namespace
}  // namespace pghive
