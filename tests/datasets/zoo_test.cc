#include "datasets/zoo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>

#include "datasets/generator.h"

namespace pghive::datasets {
namespace {

TEST(ZooTest, HasEightDatasetsInTableOrder) {
  auto zoo = Zoo();
  ASSERT_EQ(zoo.size(), 8u);
  const char* expected[] = {"POLE", "MB6",    "HET.IO", "FIB25",
                            "ICIJ", "CORD19", "LDBC",   "IYP"};
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(zoo[i].name, expected[i]);
}

TEST(ZooTest, LookupByName) {
  auto result = ZooDataset("LDBC");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().name, "LDBC");
  EXPECT_FALSE(ZooDataset("NOPE").ok());
}

// Table 2 schema-shape columns that the specs must reproduce exactly.
struct Shape {
  const char* name;
  size_t node_types, edge_types, node_labels;
  bool real;
};

// Names each case by its dataset, not by the struct's raw bytes (which hold
// a pointer and so change from build to build).
void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

class ZooShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(ZooShapeTest, MatchesTable2) {
  const Shape& shape = GetParam();
  auto result = ZooDataset(shape.name);
  ASSERT_TRUE(result.ok());
  const DatasetSpec& spec = result.value();
  EXPECT_EQ(spec.num_node_types(), shape.node_types);
  EXPECT_EQ(spec.num_edge_types(), shape.edge_types);
  EXPECT_EQ(spec.num_node_labels(), shape.node_labels);
  EXPECT_EQ(spec.real, shape.real);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, ZooShapeTest,
    ::testing::Values(Shape{"POLE", 11, 17, 11, false},
                      Shape{"MB6", 4, 5, 10, false},
                      Shape{"HET.IO", 11, 24, 12, true},
                      Shape{"FIB25", 4, 5, 10, false},
                      Shape{"ICIJ", 5, 14, 6, true},
                      Shape{"CORD19", 16, 16, 16, true},
                      Shape{"LDBC", 7, 17, 8, false},
                      Shape{"IYP", 86, 25, 33, true}));

class ZooValidityTest : public ::testing::TestWithParam<size_t> {};

// Every spec must be internally consistent and generate a sane graph.
TEST_P(ZooValidityTest, SpecIsValidAndGenerates) {
  DatasetSpec spec = Zoo()[GetParam()];
  // Endpoint indices in range.
  for (const auto& e : spec.edge_types) {
    EXPECT_LT(e.src_type, spec.node_types.size());
    EXPECT_LT(e.dst_type, spec.node_types.size());
    EXPECT_FALSE(e.labels.empty());
  }
  // Every node type has labels and positive weight.
  for (const auto& t : spec.node_types) {
    EXPECT_FALSE(t.labels.empty());
    EXPECT_GT(t.weight, 0.0);
  }
  // Paper sizes recorded.
  EXPECT_GT(spec.paper_nodes, 0u);
  EXPECT_GT(spec.paper_edges, 0u);

  Dataset d = Generate(spec, 0.05, 99);
  EXPECT_GT(d.graph.num_nodes(), 0u);
  EXPECT_GT(d.graph.num_edges(), 0u);
  // Ground truth types all in range.
  for (uint32_t t : d.truth.node_type) {
    EXPECT_LT(t, spec.node_types.size());
  }
  for (uint32_t t : d.truth.edge_type) {
    EXPECT_LT(t, spec.edge_types.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, ZooValidityTest,
                         ::testing::Range<size_t>(0, 8));

TEST(ZooTest, IypTypesAreDistinctLabelCombinations) {
  DatasetSpec iyp = IypSpec();
  std::set<std::vector<std::string>> label_sets;
  for (auto& t : iyp.node_types) {
    auto labels = t.labels;
    std::sort(labels.begin(), labels.end());
    EXPECT_TRUE(label_sets.insert(labels).second)
        << "duplicate label set in IYP";
  }
  EXPECT_EQ(label_sets.size(), 86u);
}

TEST(ZooTest, HetioCarriesIntegrationLabelEverywhere) {
  DatasetSpec hetio = HetioSpec();
  for (const auto& t : hetio.node_types) {
    bool has = false;
    for (const auto& l : t.labels) has |= l == "HetionetNode";
    EXPECT_TRUE(has) << t.name;
  }
}

TEST(ZooTest, ConnectomesShareLabelAcrossTypes) {
  DatasetSpec mb6 = Mb6Spec();
  // "Cell" appears in more than one type's label set.
  int cell_types = 0;
  for (const auto& t : mb6.node_types) {
    for (const auto& l : t.labels) cell_types += l == "Cell";
  }
  EXPECT_GE(cell_types, 2);
  // Edge labels: 3 distinct over 5 types.
  EXPECT_EQ(mb6.num_edge_labels(), 3u);
}

TEST(ZooTest, PoleEdgeLabelReuse) {
  DatasetSpec pole = PoleSpec();
  EXPECT_EQ(pole.num_edge_types(), 17u);
  // 16 labels: INVOLVED_IN reused.
  std::set<std::string> labels;
  for (const auto& e : pole.edge_types) {
    labels.insert(e.labels.begin(), e.labels.end());
  }
  EXPECT_EQ(labels.size(), 16u);
}

TEST(ZooTest, HeterogeneousDatasetsHaveMixedTypedProps) {
  for (const char* name : {"ICIJ", "CORD19", "IYP"}) {
    auto spec = ZooDataset(name).value();
    bool any_mixed = false;
    for (const auto& t : spec.node_types) {
      for (const auto& p : t.properties) any_mixed |= p.mixed_rate > 0;
    }
    EXPECT_TRUE(any_mixed) << name;
  }
}

}  // namespace
}  // namespace pghive::datasets
