#include "core/constraints.h"

#include <gtest/gtest.h>

namespace pghive::core {
namespace {

NodeType MakeType(size_t instances,
                  std::vector<std::pair<pg::PropKeyId, size_t>> counts) {
  NodeType t;
  t.instance_count = instances;
  for (auto [key, count] : counts) t.properties[key].count = count;
  return t;
}

TEST(ConstraintsTest, MandatoryWhenPresentEverywhere) {
  SchemaGraph schema;
  schema.node_types().push_back(MakeType(10, {{1, 10}, {2, 7}}));
  InferPropertyConstraints(&schema);
  const NodeType& t = schema.node_types()[0];
  EXPECT_EQ(t.properties.at(1).requiredness, Requiredness::kMandatory);
  EXPECT_EQ(t.properties.at(2).requiredness, Requiredness::kOptional);
}

TEST(ConstraintsTest, SingleInstanceTypesCanHaveMandatoryProps) {
  SchemaGraph schema;
  schema.node_types().push_back(MakeType(1, {{1, 1}}));
  InferPropertyConstraints(&schema);
  EXPECT_EQ(schema.node_types()[0].properties.at(1).requiredness,
            Requiredness::kMandatory);
}

TEST(ConstraintsTest, ZeroCountIsOptional) {
  SchemaGraph schema;
  schema.node_types().push_back(MakeType(5, {{1, 0}}));
  InferPropertyConstraints(&schema);
  EXPECT_EQ(schema.node_types()[0].properties.at(1).requiredness,
            Requiredness::kOptional);
}

TEST(ConstraintsTest, EdgeTypesAlsoClassified) {
  SchemaGraph schema;
  EdgeType e;
  e.instance_count = 4;
  e.properties[9].count = 4;
  e.properties[8].count = 1;
  schema.edge_types().push_back(e);
  InferPropertyConstraints(&schema);
  EXPECT_EQ(schema.edge_types()[0].properties.at(9).requiredness,
            Requiredness::kMandatory);
  EXPECT_EQ(schema.edge_types()[0].properties.at(8).requiredness,
            Requiredness::kOptional);
}

// Soundness (§4.7): after more evidence arrives, a mandatory property can
// become optional, but an optional one can never become mandatory when its
// count stops tracking the instance count.
TEST(ConstraintsTest, MandatoryDowngradesUnderNewEvidence) {
  SchemaGraph schema;
  schema.node_types().push_back(MakeType(5, {{1, 5}}));
  InferPropertyConstraints(&schema);
  EXPECT_EQ(schema.node_types()[0].properties.at(1).requiredness,
            Requiredness::kMandatory);
  // A new instance without the property arrives.
  schema.node_types()[0].instance_count = 6;
  InferPropertyConstraints(&schema);
  EXPECT_EQ(schema.node_types()[0].properties.at(1).requiredness,
            Requiredness::kOptional);
}

}  // namespace
}  // namespace pghive::core
