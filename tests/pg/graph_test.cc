#include "pg/graph.h"

#include <gtest/gtest.h>

namespace pghive::pg {
namespace {

TEST(GraphTest, AddNodeAssignsDenseIds) {
  PropertyGraph g;
  EXPECT_EQ(g.AddNode({"A"}), 0u);
  EXPECT_EQ(g.AddNode({"B"}), 1u);
  EXPECT_EQ(g.num_nodes(), 2u);
}

TEST(GraphTest, LabelsAreSortedAndDeduplicated) {
  PropertyGraph g;
  LabelId b = g.vocab().InternLabel("B");
  LabelId a = g.vocab().InternLabel("A");
  NodeId n = g.AddNodeWithLabelIds({b, a, b});
  EXPECT_EQ(g.node(n).labels, (std::vector<LabelId>{b, a}));  // Sorted by id.
  EXPECT_TRUE(g.node(n).HasLabel(a));
  EXPECT_FALSE(g.node(n).HasLabel(a + 100));
}

TEST(GraphTest, PropertiesInternKeys) {
  PropertyGraph g;
  NodeId n = g.AddNode({"Person"});
  g.SetNodeProperty(n, "name", Value("Bob"));
  g.SetNodeProperty(n, "age", Value(static_cast<int64_t>(44)));
  PropKeyId name_key = g.vocab().FindKey("name");
  ASSERT_NE(name_key, UINT32_MAX);
  EXPECT_EQ(g.node(n).properties.Get(name_key)->AsString(), "Bob");
}

TEST(GraphTest, EdgesConnectNodes) {
  PropertyGraph g;
  NodeId a = g.AddNode({"A"});
  NodeId b = g.AddNode({"B"});
  EdgeId e = g.AddEdge(a, b, {"REL"});
  EXPECT_EQ(g.edge(e).src, a);
  EXPECT_EQ(g.edge(e).dst, b);
  g.SetEdgeProperty(e, "weight", Value(static_cast<int64_t>(2)));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, SharedVocabularyAcrossGraphs) {
  PropertyGraph g1;
  PropertyGraph g2(g1.vocab_ptr());
  g1.AddNode({"Person"});
  g2.AddNode({"Person"});
  EXPECT_EQ(g1.vocab().num_labels(), 1u);
  EXPECT_EQ(&g1.vocab(), &g2.vocab());
}

TEST(GraphStatsTest, CountsLabelsKeysAndPatterns) {
  PropertyGraph g;
  NodeId a = g.AddNode({"Person"});
  g.SetNodeProperty(a, "name", Value("x"));
  NodeId b = g.AddNode({"Person"});
  g.SetNodeProperty(b, "name", Value("y"));
  NodeId c = g.AddNode({"Person"});  // Different pattern: no props.
  NodeId d = g.AddNode({"Post"});
  g.SetNodeProperty(d, "content", Value("z"));
  g.AddEdge(a, d, {"LIKES"});
  g.AddEdge(b, d, {"LIKES"});
  g.AddEdge(c, d, {"LIKES"});

  auto stats = g.ComputeStats();
  EXPECT_EQ(stats.num_nodes, 4u);
  EXPECT_EQ(stats.num_edges, 3u);
  EXPECT_EQ(stats.num_node_labels, 2u);
  EXPECT_EQ(stats.num_edge_labels, 1u);
  EXPECT_EQ(stats.num_node_keys, 2u);
  // Patterns: (Person,{name}), (Person,{}), (Post,{content}).
  EXPECT_EQ(stats.num_node_patterns, 3u);
  // Edge patterns: LIKES Person->Post with/without... all same: {} props,
  // same endpoints -> 1 pattern.
  EXPECT_EQ(stats.num_edge_patterns, 1u);
  EXPECT_DOUBLE_EQ(stats.avg_node_props, 0.75);
}

TEST(GraphStatsTest, EdgePatternsDistinguishEndpointLabels) {
  PropertyGraph g;
  NodeId p = g.AddNode({"Person"});
  NodeId o = g.AddNode({"Org"});
  NodeId pl = g.AddNode({"Place"});
  g.AddEdge(p, pl, {"LOCATED_IN"});
  g.AddEdge(o, pl, {"LOCATED_IN"});
  auto stats = g.ComputeStats();
  EXPECT_EQ(stats.num_edge_patterns, 2u);
  EXPECT_EQ(stats.num_edge_labels, 1u);
}

TEST(NormalizeLabelsTest, SortsAndDeduplicates) {
  std::vector<LabelId> labels = {3, 1, 3, 2, 1};
  NormalizeLabels(&labels);
  EXPECT_EQ(labels, (std::vector<LabelId>{1, 2, 3}));
}

}  // namespace
}  // namespace pghive::pg
