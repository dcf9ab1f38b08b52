#include "baselines/schemi.h"

#include <gtest/gtest.h>

#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "eval/f1.h"

namespace pghive::baselines {
namespace {

TEST(SchemiTest, RejectsUnlabeledNodes) {
  pg::PropertyGraph g;
  g.AddNode({});
  auto result = SchemI::Discover(g);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(SchemiTest, RejectsUnlabeledEdges) {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode({"A"});
  pg::NodeId b = g.AddNode({"B"});
  g.AddEdge(a, b, {});
  EXPECT_FALSE(SchemI::Discover(g).ok());
}

TEST(SchemiTest, GroupsBySingleLabel) {
  pg::PropertyGraph g;
  for (int i = 0; i < 5; ++i) {
    pg::NodeId n = g.AddNode({"A"});
    g.SetNodeProperty(n, "x", pg::Value("1"));
  }
  for (int i = 0; i < 5; ++i) {
    pg::NodeId n = g.AddNode({"B"});
    g.SetNodeProperty(n, "totally_different", pg::Value("1"));
  }
  auto result = SchemI::Discover(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_node_clusters, 2u);
  EXPECT_EQ(result.value().node_assignment[0],
            result.value().node_assignment[4]);
  EXPECT_NE(result.value().node_assignment[0],
            result.value().node_assignment[5]);
}

TEST(SchemiTest, MultiLabelElementsUseLeastFrequentLabel) {
  pg::PropertyGraph g;
  // "Common" appears on everything; the rare label decides.
  for (int i = 0; i < 4; ++i) {
    pg::NodeId n = g.AddNode({"Common", "RareA"});
    g.SetNodeProperty(n, "a", pg::Value("1"));
  }
  for (int i = 0; i < 4; ++i) {
    pg::NodeId n = g.AddNode({"Common", "RareB"});
    g.SetNodeProperty(n, "b", pg::Value("1"));
  }
  auto result = SchemI::Discover(g);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result.value().node_assignment[0],
            result.value().node_assignment[4]);
}

TEST(SchemiTest, StructuralMergeJoinsSimilarTypes) {
  pg::PropertyGraph g;
  // Two label-distinct types with identical property sets merge under the
  // loose structural threshold (the baseline's documented inaccuracy).
  for (int i = 0; i < 5; ++i) {
    pg::NodeId n = g.AddNode({"Org"});
    g.SetNodeProperty(n, "name", pg::Value("x"));
    g.SetNodeProperty(n, "url", pg::Value("y"));
  }
  for (int i = 0; i < 5; ++i) {
    pg::NodeId n = g.AddNode({"Company"});
    g.SetNodeProperty(n, "name", pg::Value("x"));
    g.SetNodeProperty(n, "url", pg::Value("y"));
  }
  auto result = SchemI::Discover(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_node_clusters, 1u);
}

TEST(SchemiTest, PropertyLessTypesDoNotCollapse) {
  pg::PropertyGraph g;
  for (int i = 0; i < 3; ++i) g.AddNode({"A"});
  for (int i = 0; i < 3; ++i) g.AddNode({"B"});
  auto result = SchemI::Discover(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_node_clusters, 2u);
}

TEST(SchemiTest, EdgeTypesKeyedByLabel) {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode({"A"});
  pg::NodeId b = g.AddNode({"B"});
  pg::NodeId c = g.AddNode({"C"});
  g.AddEdge(a, b, {"R"});
  g.AddEdge(c, b, {"R"});  // Different endpoints, same label: merged.
  g.AddEdge(a, c, {"S"});
  auto result = SchemI::Discover(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_edge_clusters, 2u);
  EXPECT_EQ(result.value().edge_assignment[0],
            result.value().edge_assignment[1]);
}

TEST(SchemiTest, PerfectOnFlatSingleLabelDataset) {
  auto dataset = datasets::Generate(datasets::PoleSpec(), 0.2, 21);
  auto result = SchemI::Discover(dataset.graph);
  ASSERT_TRUE(result.ok());
  auto f1 = eval::MajorityF1(result.value().node_assignment,
                             dataset.truth.node_type);
  EXPECT_GT(f1.f1, 0.9);
}

TEST(SchemiTest, MixesTypesThatShareTheirOnlyLabel) {
  // SchemI treats each distinct label as a type, so two ground-truth types
  // carrying the same single label collapse into one mixed cluster.
  pg::PropertyGraph g;
  std::vector<uint32_t> truth;
  for (int i = 0; i < 6; ++i) {
    pg::NodeId n = g.AddNode({"Post"});
    g.SetNodeProperty(n, "imgFile", pg::Value("x.png"));
    truth.push_back(0);
  }
  for (int i = 0; i < 3; ++i) {
    pg::NodeId n = g.AddNode({"Post"});
    g.SetNodeProperty(n, "content", pg::Value("text"));
    truth.push_back(1);
  }
  auto result = SchemI::Discover(g);
  ASSERT_TRUE(result.ok());
  auto f1 = eval::MajorityF1(result.value().node_assignment, truth);
  EXPECT_DOUBLE_EQ(f1.f1, 6.0 / 9.0);  // The minority type is misplaced.
}

}  // namespace
}  // namespace pghive::baselines
