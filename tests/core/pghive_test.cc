#include "core/pghive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "pg/batch.h"

namespace pghive::core {
namespace {

// The paper's Fig. 1 running example.
pg::PropertyGraph RunningExample() {
  pg::PropertyGraph g;
  auto bob = g.AddNode({"Person"});
  g.SetNodeProperty(bob, "name", pg::Value("Bob"));
  g.SetNodeProperty(bob, "gender", pg::Value("male"));
  g.SetNodeProperty(bob, "bday", pg::Value("1980-05-02"));
  auto alice = g.AddNode({});  // Unlabeled.
  g.SetNodeProperty(alice, "name", pg::Value("Alice"));
  g.SetNodeProperty(alice, "gender", pg::Value("female"));
  g.SetNodeProperty(alice, "bday", pg::Value("1999-12-19"));
  auto john = g.AddNode({"Person"});
  g.SetNodeProperty(john, "name", pg::Value("John"));
  g.SetNodeProperty(john, "gender", pg::Value("male"));
  g.SetNodeProperty(john, "bday", pg::Value("2005-09-24"));
  auto post1 = g.AddNode({"Post"});
  g.SetNodeProperty(post1, "imgFile", pg::Value("s.png"));
  auto post2 = g.AddNode({"Post"});
  g.SetNodeProperty(post2, "content", pg::Value("bazinga!"));
  auto org = g.AddNode({"Org"});
  g.SetNodeProperty(org, "url", pg::Value("example.com"));
  g.SetNodeProperty(org, "name", pg::Value("Example"));
  auto place = g.AddNode({"Place"});
  g.SetNodeProperty(place, "name", pg::Value("Greece"));
  g.AddEdge(alice, john, {"KNOWS"});
  g.AddEdge(bob, alice, {"KNOWS"});
  g.AddEdge(alice, post1, {"LIKES"});
  g.AddEdge(john, post2, {"LIKES"});
  auto works = g.AddEdge(bob, org, {"WORKS_AT"});
  g.SetEdgeProperty(works, "from", pg::Value(static_cast<int64_t>(2000)));
  g.AddEdge(org, place, {"LOCATED_IN"});
  return g;
}

TEST(PgHiveTest, DiscoversRunningExampleSchema) {
  pg::PropertyGraph g = RunningExample();
  PgHiveOptions options;
  auto result = DiscoverSchema(&g, options);
  ASSERT_TRUE(result.ok());
  const SchemaGraph& schema = result.value();
  // Example 5: unlabeled Alice merges into Person; the two Post variants
  // merge by label -> 4 node types.
  EXPECT_EQ(schema.num_node_types(), 4u);
  EXPECT_EQ(schema.num_edge_types(), 4u);
  // Person has 3 instances despite Alice being unlabeled.
  const NodeType* person = nullptr;
  for (const auto& t : schema.node_types()) {
    if (t.Name(g.vocab(), 0) == "Person") person = &t;
  }
  ASSERT_NE(person, nullptr);
  EXPECT_EQ(person->instance_count, 3u);
}

TEST(PgHiveTest, PostPropertiesAreOptional) {
  pg::PropertyGraph g = RunningExample();
  auto result = DiscoverSchema(&g);
  ASSERT_TRUE(result.ok());
  for (const auto& t : result.value().node_types()) {
    if (t.Name(g.vocab(), 0) != "Post") continue;
    for (const auto& [key, info] : t.properties) {
      EXPECT_EQ(info.requiredness, Requiredness::kOptional);
    }
    EXPECT_EQ(t.pattern_hashes.size(), 2u);  // Two structural variants.
  }
}

TEST(PgHiveTest, PersonPropertiesMandatoryWithDateType) {
  pg::PropertyGraph g = RunningExample();
  auto result = DiscoverSchema(&g);
  ASSERT_TRUE(result.ok());
  pg::PropKeyId bday = g.vocab().FindKey("bday");
  for (const auto& t : result.value().node_types()) {
    if (t.Name(g.vocab(), 0) != "Person") continue;
    ASSERT_TRUE(t.properties.count(bday));
    EXPECT_EQ(t.properties.at(bday).requiredness, Requiredness::kMandatory);
    EXPECT_EQ(t.properties.at(bday).data_type, pg::DataType::kDate);
  }
}

TEST(PgHiveTest, MinHashVariantFindsSameTypes) {
  pg::PropertyGraph g = RunningExample();
  PgHiveOptions options;
  options.method = ClusterMethod::kMinHash;
  auto result = DiscoverSchema(&g, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_node_types(), 4u);
  EXPECT_EQ(result.value().num_edge_types(), 4u);
}

TEST(PgHiveTest, HashEmbedderVariantWorks) {
  pg::PropertyGraph g = RunningExample();
  PgHiveOptions options;
  options.embedder = EmbedderKind::kHash;
  auto result = DiscoverSchema(&g, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_node_types(), 4u);
}

TEST(PgHiveTest, ManualParametersRespected) {
  pg::PropertyGraph g = RunningExample();
  PgHiveOptions options;
  options.adaptive = false;
  options.bucket_length = 2.0;
  options.num_tables = 12;
  PgHive pipeline(&g, options);
  ASSERT_TRUE(pipeline.Run().ok());
  EXPECT_EQ(pipeline.last_stats().node_params.num_tables, 12u);
  EXPECT_DOUBLE_EQ(pipeline.last_stats().node_params.bucket_length, 2.0);
}

TEST(PgHiveTest, AssignmentsCoverEveryElement) {
  pg::PropertyGraph g = RunningExample();
  PgHive pipeline(&g, {});
  ASSERT_TRUE(pipeline.Run().ok());
  for (uint32_t a : pipeline.NodeAssignment()) {
    EXPECT_NE(a, UINT32_MAX);
  }
  for (uint32_t a : pipeline.EdgeAssignment()) {
    EXPECT_NE(a, UINT32_MAX);
  }
}

TEST(PgHiveTest, LabelNamedWithPipeIsNotTheLabelSetItSpells) {
  // One node labelled "A|B", one labelled {A, B}: distinct label sets, so
  // distinct tokens, embeddings and node types.
  pg::PropertyGraph g;
  auto one = g.AddNode({"A|B"});
  g.SetNodeProperty(one, "name", pg::Value("x"));
  auto both = g.AddNode({"A", "B"});
  g.SetNodeProperty(both, "name", pg::Value("y"));
  for (const ClusterMethod method :
       {ClusterMethod::kElsh, ClusterMethod::kMinHash}) {
    PgHiveOptions options;
    options.method = method;
    PgHive pipeline(&g, options);
    ASSERT_TRUE(pipeline.Run().ok());
    const std::vector<uint32_t> assignment = pipeline.NodeAssignment();
    ASSERT_EQ(assignment.size(), 2u);
    EXPECT_NE(assignment[one], assignment[both]);
    EXPECT_EQ(pipeline.schema().num_node_types(), 2u);
  }
}

TEST(PgHiveTest, EmptyGraphYieldsEmptySchema) {
  pg::PropertyGraph g;
  auto result = DiscoverSchema(&g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_node_types(), 0u);
  EXPECT_EQ(result.value().num_edge_types(), 0u);
}

TEST(PgHiveTest, StatsArePopulated) {
  pg::PropertyGraph g = RunningExample();
  PgHive pipeline(&g, {});
  ASSERT_TRUE(pipeline.Run().ok());
  const PipelineStats& stats = pipeline.last_stats();
  EXPECT_GT(stats.node_clusters, 0u);
  EXPECT_GT(stats.edge_clusters, 0u);
  EXPECT_GE(stats.total_ms(), stats.discovery_ms());
}

// Incremental processing: the schema chain is monotone (S_i ⊑ S_{i+1},
// §4.6) — labels, keys and instance coverage only grow.
TEST(PgHiveTest, IncrementalChainIsMonotone) {
  pg::PropertyGraph g = RunningExample();
  PgHive pipeline(&g, {});
  auto batches = pg::SplitIntoBatches(g, 3, 77);
  std::set<pg::LabelId> prev_labels;
  std::set<pg::PropKeyId> prev_keys;
  size_t prev_instances = 0;
  for (const auto& batch : batches) {
    ASSERT_TRUE(pipeline.ProcessBatch(batch).ok());
    std::set<pg::LabelId> labels;
    std::set<pg::PropKeyId> keys;
    size_t instances = 0;
    for (const auto& t : pipeline.schema().node_types()) {
      labels.insert(t.labels.begin(), t.labels.end());
      for (const auto& [k, info] : t.properties) keys.insert(k);
      instances += t.instances.size();
    }
    EXPECT_TRUE(std::includes(labels.begin(), labels.end(),
                              prev_labels.begin(), prev_labels.end()));
    EXPECT_TRUE(std::includes(keys.begin(), keys.end(), prev_keys.begin(),
                              prev_keys.end()));
    EXPECT_GE(instances, prev_instances);
    prev_labels = std::move(labels);
    prev_keys = std::move(keys);
    prev_instances = instances;
  }
  ASSERT_TRUE(pipeline.Finish().ok());
}

TEST(PgHiveTest, IncrementalMatchesStaticTypeCount) {
  pg::PropertyGraph g1 = RunningExample();
  pg::PropertyGraph g2 = RunningExample();
  PgHive incremental(&g1, {});
  for (const auto& batch : pg::SplitIntoBatches(g1, 4, 5)) {
    ASSERT_TRUE(incremental.ProcessBatch(batch).ok());
  }
  ASSERT_TRUE(incremental.Finish().ok());
  PgHive full(&g2, {});
  ASSERT_TRUE(full.Run().ok());
  EXPECT_EQ(incremental.schema().num_node_types(),
            full.schema().num_node_types());
  EXPECT_EQ(incremental.schema().num_edge_types(),
            full.schema().num_edge_types());
}

TEST(PgHiveTest, PostProcessEachBatchFlagWorks) {
  pg::PropertyGraph g = RunningExample();
  PgHiveOptions options;
  options.post_process_each_batch = true;
  PgHive pipeline(&g, options);
  ASSERT_TRUE(pipeline.ProcessBatch(pg::FullBatch(g)).ok());
  // Constraints already inferred without Finish().
  bool any_mandatory = false;
  for (const auto& t : pipeline.schema().node_types()) {
    for (const auto& [k, info] : t.properties) {
      if (info.requiredness == Requiredness::kMandatory) any_mandatory = true;
    }
  }
  EXPECT_TRUE(any_mandatory);
}

// The two-stage API underneath the pipelined executor: ProcessBatch is
// exactly PreprocessBatch + ProcessPrepared, and a PreparedBatch carries
// everything the later stages need.
TEST(PgHiveTest, PreprocessPlusProcessPreparedEqualsProcessBatch) {
  pg::PropertyGraph g1 = RunningExample();
  pg::PropertyGraph g2 = RunningExample();
  auto batches1 = pg::SplitIntoBatches(g1, 3, 77);
  auto batches2 = pg::SplitIntoBatches(g2, 3, 77);

  PgHive whole(&g1, {});
  for (const auto& batch : batches1) {
    ASSERT_TRUE(whole.ProcessBatch(batch).ok());
  }
  ASSERT_TRUE(whole.Finish().ok());

  PgHive staged(&g2, {});
  for (const auto& batch : batches2) {
    PgHive::PreparedBatch prepared = staged.PreprocessBatch(batch);
    EXPECT_EQ(prepared.batch.node_ids, batch.node_ids);
    EXPECT_EQ(prepared.batch.edge_ids, batch.edge_ids);
    ASSERT_NE(prepared.vectorizer, nullptr);
    EXPECT_EQ(prepared.node_features.num, batch.node_ids.size());
    EXPECT_EQ(prepared.edge_features.num, batch.edge_ids.size());
    // The warmed cache serves the endpoint tokens the extract side reads.
    EXPECT_EQ(prepared.vectorizer->EdgeEndpointTokens(batch).size(),
              batch.edge_ids.size());
    EXPECT_GE(prepared.preprocess_ms, 0.0);
    ASSERT_TRUE(staged.ProcessPrepared(std::move(prepared)).ok());
  }
  ASSERT_TRUE(staged.Finish().ok());

  EXPECT_EQ(staged.schema().num_node_types(),
            whole.schema().num_node_types());
  EXPECT_EQ(staged.schema().num_edge_types(),
            whole.schema().num_edge_types());
  EXPECT_EQ(staged.NodeAssignment(), whole.NodeAssignment());
  EXPECT_EQ(staged.EdgeAssignment(), whole.EdgeAssignment());
}

TEST(PgHiveTest, MutatingCallsAfterFinishReturnFailedPrecondition) {
  pg::PropertyGraph g = RunningExample();
  PgHive pipeline(&g, {});
  ASSERT_TRUE(pipeline.ProcessBatch(pg::FullBatch(g)).ok());
  ASSERT_TRUE(pipeline.Finish().ok());
  EXPECT_EQ(pipeline.phase(), PgHive::Phase::kFinished);

  // The schema stays readable, but every mutating entry point is closed.
  EXPECT_GT(pipeline.schema().num_node_types(), 0u);
  auto batch = pipeline.ProcessBatch(pg::FullBatch(g));
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.code(), util::StatusCode::kFailedPrecondition);
  auto run = pipeline.Run();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.code(), util::StatusCode::kFailedPrecondition);
  auto finish = pipeline.Finish();
  ASSERT_FALSE(finish.ok());
  EXPECT_EQ(finish.code(), util::StatusCode::kFailedPrecondition);
}

TEST(PgHiveTest, CreateValidatesOptions) {
  pg::PropertyGraph g = RunningExample();
  PgHiveOptions bad;
  bad.embedding_dim = 0;
  EXPECT_FALSE(PgHive::Create(&g, bad).ok());

  PgHiveOptions good;
  auto created = PgHive::Create(&g, good);
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE((*created)->Run().ok());
  EXPECT_GT((*created)->schema().num_node_types(), 0u);
}

TEST(PgHiveTest, DeterministicAcrossRuns) {
  pg::PropertyGraph g1 = RunningExample();
  pg::PropertyGraph g2 = RunningExample();
  auto r1 = DiscoverSchema(&g1);
  auto r2 = DiscoverSchema(&g2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.value().num_node_types(), r2.value().num_node_types());
  EXPECT_EQ(r1.value().num_edge_types(), r2.value().num_edge_types());
}

}  // namespace
}  // namespace pghive::core
