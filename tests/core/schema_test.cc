#include "core/schema.h"

#include <gtest/gtest.h>

namespace pghive::core {
namespace {

TEST(CardinalityTest, Classification) {
  EXPECT_EQ(ClassifyCardinality(0, 0), CardinalityKind::kUnknown);
  EXPECT_EQ(ClassifyCardinality(1, 1), CardinalityKind::kOneToOne);
  EXPECT_EQ(ClassifyCardinality(1, 5), CardinalityKind::kManyToOne);
  EXPECT_EQ(ClassifyCardinality(5, 1), CardinalityKind::kOneToMany);
  EXPECT_EQ(ClassifyCardinality(5, 5), CardinalityKind::kManyToMany);
}

TEST(CardinalityTest, Names) {
  EXPECT_STREQ(CardinalityKindName(CardinalityKind::kOneToOne), "1:1");
  EXPECT_STREQ(CardinalityKindName(CardinalityKind::kManyToMany), "M:N");
  EXPECT_STREQ(CardinalityKindName(CardinalityKind::kManyToOne), "N:1");
  EXPECT_STREQ(CardinalityKindName(CardinalityKind::kOneToMany), "1:N");
}

TEST(PatternTest, NodePatternEqualityAndHash) {
  NodePattern a{{1, 2}, {10}};
  NodePattern b{{1, 2}, {10}};
  NodePattern c{{1, 2}, {11}};
  NodePattern d{{1}, {10}};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());
  EXPECT_NE(a.Hash(), d.Hash());
}

TEST(PatternTest, EdgePatternDistinguishesEndpoints) {
  EdgePattern a{{1}, {}, {2}, {3}};
  EdgePattern b{{1}, {}, {3}, {2}};  // Swapped endpoints.
  EXPECT_NE(a.Hash(), b.Hash());
  EdgePattern c{{1}, {}, {2}, {3}};
  EXPECT_EQ(a.Hash(), c.Hash());
}

TEST(PatternTest, LabelKeyBoundaryDoesNotCollide) {
  // Labels {1,2} keys {} must differ from labels {1} keys {2}.
  NodePattern a{{1, 2}, {}};
  NodePattern b{{1}, {2}};
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(NodeTypeTest, KeysAndNames) {
  pg::Vocabulary vocab;
  pg::LabelId person = vocab.InternLabel("Person");
  NodeType type;
  type.labels = {person};
  type.properties[3].count = 2;
  type.properties[1].count = 1;
  EXPECT_EQ(type.Keys(), (std::vector<pg::PropKeyId>{1, 3}));
  EXPECT_EQ(type.Name(vocab, 0), "Person");
  EXPECT_FALSE(type.is_abstract());
}

TEST(NodeTypeTest, AbstractNaming) {
  pg::Vocabulary vocab;
  NodeType type;
  EXPECT_TRUE(type.is_abstract());
  EXPECT_EQ(type.Name(vocab, 3), "Abstract#3");
}

TEST(NodeTypeTest, MultiLabelNameIsSorted) {
  pg::Vocabulary vocab;
  pg::LabelId z = vocab.InternLabel("Zebra");
  pg::LabelId a = vocab.InternLabel("Apple");
  NodeType type;
  type.labels = {a, z};
  EXPECT_EQ(type.Name(vocab, 0), "Apple|Zebra");
}

TEST(SchemaGraphTest, AssignmentsFromInstances) {
  SchemaGraph schema;
  NodeType t0;
  t0.instances = {0, 2};
  NodeType t1;
  t1.instances = {1};
  schema.node_types().push_back(t0);
  schema.node_types().push_back(t1);
  auto assignment = schema.NodeAssignment(4);
  EXPECT_EQ(assignment[0], 0u);
  EXPECT_EQ(assignment[1], 1u);
  EXPECT_EQ(assignment[2], 0u);
  EXPECT_EQ(assignment[3], UINT32_MAX);  // Unassigned.
}

TEST(UnionSortedTest, MergesAndDeduplicates) {
  EXPECT_EQ(UnionSorted({1, 3}, {2, 3}), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(UnionSorted({}, {5}), (std::vector<uint32_t>{5}));
  EXPECT_TRUE(UnionSorted({}, {}).empty());
}

TEST(JaccardSortedTest, Basics) {
  EXPECT_DOUBLE_EQ(JaccardSorted({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSorted({1}, {}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSorted({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSorted({1, 2}, {1, 2}), 1.0);
}

}  // namespace
}  // namespace pghive::core
