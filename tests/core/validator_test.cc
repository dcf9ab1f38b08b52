#include "core/validator.h"

#include <gtest/gtest.h>

#include "core/pghive.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"

namespace pghive::core {
namespace {

struct Fixture {
  pg::PropertyGraph graph;
  SchemaGraph schema;

  Fixture() {
    pg::NodeId a = graph.AddNode({"Person"});
    graph.SetNodeProperty(a, "name", pg::Value("A"));
    graph.SetNodeProperty(a, "age", pg::Value(static_cast<int64_t>(30)));
    pg::NodeId b = graph.AddNode({"Person"});
    graph.SetNodeProperty(b, "name", pg::Value("B"));
    graph.SetNodeProperty(b, "age", pg::Value(static_cast<int64_t>(40)));
    pg::NodeId org = graph.AddNode({"Org"});
    graph.SetNodeProperty(org, "name", pg::Value("O"));
    graph.AddEdge(a, org, {"WORKS_AT"});
    graph.AddEdge(b, org, {"WORKS_AT"});

    PgHiveOptions options;
    PgHive pipeline(&graph, options);
    EXPECT_TRUE(pipeline.Run().ok());
    schema = pipeline.schema();
  }
};

TEST(ValidatorTest, DiscoveredSchemaValidatesItsOwnGraph) {
  Fixture f;
  for (SchemaMode mode : {SchemaMode::kLoose, SchemaMode::kStrict}) {
    ValidatorOptions options;
    options.mode = mode;
    SchemaValidator validator(&f.schema, options);
    ValidationReport report = validator.Validate(f.graph);
    EXPECT_TRUE(report.conforms()) << report.Summary();
    EXPECT_EQ(report.nodes_checked, f.graph.num_nodes());
    EXPECT_EQ(report.edges_checked, f.graph.num_edges());
  }
}

TEST(ValidatorTest, UnknownLabelSetReported) {
  Fixture f;
  f.graph.AddNode({"Alien"});
  SchemaValidator validator(&f.schema, {});
  ValidationReport report = validator.Validate(f.graph);
  EXPECT_FALSE(report.conforms());
  EXPECT_EQ(report.CountKind(ViolationKind::kUnknownNodeType), 1u);
}

TEST(ValidatorTest, MissingMandatoryReportedInBothModes) {
  Fixture f;
  f.graph.AddNode({"Person"});  // No name/age.
  for (SchemaMode mode : {SchemaMode::kLoose, SchemaMode::kStrict}) {
    ValidatorOptions options;
    options.mode = mode;
    SchemaValidator validator(&f.schema, options);
    ValidationReport report = validator.Validate(f.graph);
    EXPECT_EQ(report.CountKind(ViolationKind::kMissingMandatory), 2u)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(ValidatorTest, UndeclaredPropertyOnlyInStrict) {
  Fixture f;
  pg::NodeId n = f.graph.AddNode({"Person"});
  f.graph.SetNodeProperty(n, "name", pg::Value("X"));
  f.graph.SetNodeProperty(n, "age", pg::Value(static_cast<int64_t>(1)));
  f.graph.SetNodeProperty(n, "sneaky", pg::Value("extra"));

  SchemaValidator loose(&f.schema, {});
  EXPECT_EQ(loose.Validate(f.graph)
                .CountKind(ViolationKind::kUndeclaredProperty),
            0u);

  ValidatorOptions strict_options;
  strict_options.mode = SchemaMode::kStrict;
  SchemaValidator strict(&f.schema, strict_options);
  EXPECT_EQ(strict.Validate(f.graph)
                .CountKind(ViolationKind::kUndeclaredProperty),
            1u);
}

TEST(ValidatorTest, DataTypeMismatchInStrict) {
  Fixture f;
  pg::NodeId n = f.graph.AddNode({"Person"});
  f.graph.SetNodeProperty(n, "name", pg::Value("X"));
  f.graph.SetNodeProperty(n, "age", pg::Value("not a number"));
  ValidatorOptions options;
  options.mode = SchemaMode::kStrict;
  SchemaValidator validator(&f.schema, options);
  ValidationReport report = validator.Validate(f.graph);
  EXPECT_EQ(report.CountKind(ViolationKind::kDataTypeMismatch), 1u);
}

TEST(ValidatorTest, IntegerAcceptedWhereFloatDeclared) {
  SchemaGraph schema;
  pg::PropertyGraph graph;
  pg::NodeId n = graph.AddNode({"T"});
  graph.SetNodeProperty(n, "score", pg::Value(static_cast<int64_t>(3)));
  NodeType type;
  type.labels = {graph.vocab().FindLabel("T")};
  pg::PropKeyId key = graph.vocab().FindKey("score");
  type.properties[key].data_type = pg::DataType::kFloat;
  type.properties[key].requiredness = Requiredness::kOptional;
  type.instance_count = 1;
  schema.node_types().push_back(type);
  ValidatorOptions options;
  options.mode = SchemaMode::kStrict;
  SchemaValidator validator(&schema, options);
  EXPECT_TRUE(validator.Validate(graph).conforms());
}

TEST(ValidatorTest, EndpointMismatchInStrict) {
  Fixture f;
  // A WORKS_AT edge from Org to Org: endpoints not declared.
  f.graph.AddEdge(2, 2, {"WORKS_AT"});
  ValidatorOptions options;
  options.mode = SchemaMode::kStrict;
  SchemaValidator validator(&f.schema, options);
  ValidationReport report = validator.Validate(f.graph);
  EXPECT_GE(report.CountKind(ViolationKind::kEndpointMismatch), 1u);
}

TEST(ValidatorTest, CardinalityExceededInStrict) {
  Fixture f;
  // The discovered WORKS_AT bound is max_out 1 (one org per person). Give
  // person 0 a second org.
  pg::NodeId org2 = f.graph.AddNode({"Org"});
  f.graph.SetNodeProperty(org2, "name", pg::Value("O2"));
  f.graph.AddEdge(0, org2, {"WORKS_AT"});
  ValidatorOptions options;
  options.mode = SchemaMode::kStrict;
  SchemaValidator validator(&f.schema, options);
  ValidationReport report = validator.Validate(f.graph);
  // One violation, naming the node that exceeds the bound.
  ASSERT_EQ(report.violations.size(), 1u) << report.Summary();
  const Violation& v = report.violations[0];
  EXPECT_EQ(v.kind, ViolationKind::kCardinalityExceeded);
  EXPECT_FALSE(v.is_edge);
  EXPECT_EQ(v.element_id, 0u);
  EXPECT_NE(v.detail.find("max_out 1"), std::string::npos) << v.detail;
}

// Cardinality violations come out in ascending node id, whatever order the
// edges arrive in, so a max_violations cap keeps the lowest ids.
TEST(ValidatorTest, CardinalityViolationsInAscendingNodeOrder) {
  Fixture f;
  std::vector<pg::NodeId> people;
  for (int i = 0; i < 5; ++i) {
    pg::NodeId p = f.graph.AddNode({"Person"});
    f.graph.SetNodeProperty(p, "name", pg::Value("P"));
    f.graph.SetNodeProperty(p, "age", pg::Value(static_cast<int64_t>(20)));
    people.push_back(p);
  }
  // Highest id first, each new person works at two new orgs: max_out is 1,
  // and every org keeps one employee, within max_in.
  for (auto it = people.rbegin(); it != people.rend(); ++it) {
    for (int j = 0; j < 2; ++j) {
      pg::NodeId org = f.graph.AddNode({"Org"});
      f.graph.SetNodeProperty(org, "name", pg::Value("O"));
      f.graph.AddEdge(*it, org, {"WORKS_AT"});
    }
  }
  ValidatorOptions options;
  options.mode = SchemaMode::kStrict;
  for (size_t cap : {size_t{0}, size_t{3}}) {
    options.max_violations = cap;
    ValidationReport report =
        SchemaValidator(&f.schema, options).Validate(f.graph);
    std::vector<uint64_t> named;
    for (const Violation& v : report.violations) {
      EXPECT_EQ(v.kind, ViolationKind::kCardinalityExceeded) << v.detail;
      EXPECT_FALSE(v.is_edge);
      named.push_back(v.element_id);
    }
    std::vector<uint64_t> want(people.begin(), people.end());
    if (cap > 0) want.resize(cap);
    EXPECT_EQ(named, want) << "cap " << cap;
  }
}

TEST(ValidatorTest, MaxViolationsCapsOutput) {
  Fixture f;
  for (int i = 0; i < 10; ++i) f.graph.AddNode({"Alien"});
  ValidatorOptions options;
  options.max_violations = 3;
  SchemaValidator validator(&f.schema, options);
  ValidationReport report = validator.Validate(f.graph);
  EXPECT_EQ(report.violations.size(), 3u);
}

TEST(ValidatorTest, SummaryMentionsKinds) {
  Fixture f;
  f.graph.AddNode({"Alien"});
  SchemaValidator validator(&f.schema, {});
  std::string summary = validator.Validate(f.graph).Summary();
  EXPECT_NE(summary.find("UNKNOWN_NODE_TYPE"), std::string::npos);
}

// Property: for every zoo dataset, the schema discovered from a clean graph
// validates that graph in LOOSE mode.
class ValidatorSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ValidatorSweepTest, DiscoveredSchemaValidatesSourceGraph) {
  datasets::Dataset dataset = datasets::Generate(
      datasets::Zoo()[GetParam()], 0.05, 0x77 + GetParam());
  PgHiveOptions options;
  PgHive pipeline(&dataset.graph, options);
  ASSERT_TRUE(pipeline.Run().ok());
  SchemaValidator validator(&pipeline.schema(), {});
  ValidationReport report = validator.Validate(dataset.graph);
  EXPECT_TRUE(report.conforms()) << dataset.spec.name << ": "
                                 << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, ValidatorSweepTest,
                         ::testing::Range<size_t>(0, 8));

}  // namespace
}  // namespace pghive::core
