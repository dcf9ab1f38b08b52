#include "core/pgschema_parser.h"

#include <gtest/gtest.h>

#include "core/constraints.h"
#include "core/pghive.h"
#include "core/serialize.h"
#include "core/validator.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"

namespace pghive::core {
namespace {

TEST(PgSchemaParserTest, ParsesMinimalNodeType) {
  pg::Vocabulary vocab;
  auto result = ParsePgSchema(
      "CREATE GRAPH TYPE S STRICT {\n"
      "  (PersonType : Person {name STRING, OPTIONAL bday DATE})\n"
      "}\n",
      &vocab);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SchemaGraph& schema = result.value();
  ASSERT_EQ(schema.num_node_types(), 1u);
  const NodeType& t = schema.node_types()[0];
  ASSERT_EQ(t.labels.size(), 1u);
  EXPECT_EQ(vocab.LabelName(t.labels[0]), "Person");
  pg::PropKeyId name = vocab.FindKey("name");
  pg::PropKeyId bday = vocab.FindKey("bday");
  EXPECT_EQ(t.properties.at(name).requiredness, Requiredness::kMandatory);
  EXPECT_EQ(t.properties.at(name).data_type, pg::DataType::kString);
  EXPECT_EQ(t.properties.at(bday).requiredness, Requiredness::kOptional);
  EXPECT_EQ(t.properties.at(bday).data_type, pg::DataType::kDate);
}

TEST(PgSchemaParserTest, ParsesMultiLabelAndEdge) {
  pg::Vocabulary vocab;
  auto result = ParsePgSchema(
      "CREATE GRAPH TYPE S LOOSE {\n"
      "  (PostType : Post & Message {content, OPEN}),\n"
      "  (PersonType : Person),\n"
      "  (:PersonType)-[LikesType : LIKES]->(:PostType) /* M:N */\n"
      "}\n",
      &vocab);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SchemaGraph& schema = result.value();
  EXPECT_EQ(schema.num_node_types(), 2u);
  ASSERT_EQ(schema.num_edge_types(), 1u);
  EXPECT_EQ(schema.node_types()[0].labels.size(), 2u);
  const EdgeType& e = schema.edge_types()[0];
  ASSERT_EQ(e.labels.size(), 1u);
  EXPECT_EQ(vocab.LabelName(e.labels[0]), "LIKES");
  EXPECT_EQ(e.cardinality.kind, CardinalityKind::kManyToMany);
}

TEST(PgSchemaParserTest, ParsesAbstractTypes) {
  pg::Vocabulary vocab;
  auto result = ParsePgSchema(
      "CREATE GRAPH TYPE S STRICT {\n"
      "  (ABSTRACT Abstract_0Type {x STRING})\n"
      "}\n",
      &vocab);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().node_types()[0].is_abstract());
}

TEST(PgSchemaParserTest, RejectsGarbage) {
  pg::Vocabulary vocab;
  EXPECT_FALSE(ParsePgSchema("DROP TABLE everything;", &vocab).ok());
  EXPECT_FALSE(ParsePgSchema("CREATE GRAPH TYPE S STRICT { (", &vocab).ok());
  EXPECT_FALSE(ParsePgSchema("", &vocab).ok());
}

// Labels and keys the bare syntax cannot carry are backtick-quoted, so each
// reads back as the same name with the same requiredness and data type:
// punctuation, a space, a backtick, and the property block's keywords as
// keys. Names the bare syntax carries keep their spelling.
TEST(PgSchemaParserTest, QuotedNamesRoundTrip) {
  EXPECT_EQ(PgSchemaName("a_b", /*is_key=*/true), "a_b");
  EXPECT_EQ(PgSchemaName("A|B", /*is_key=*/false), "A|B");
  EXPECT_EQ(PgSchemaName("OPEN", /*is_key=*/false), "OPEN");
  EXPECT_EQ(PgSchemaName("OPTIONAL_x", /*is_key=*/true), "OPTIONAL_x");
  EXPECT_EQ(PgSchemaName("OPEN", /*is_key=*/true), "`OPEN`");
  EXPECT_EQ(PgSchemaName("a-b", /*is_key=*/true), "`a-b`");
  EXPECT_EQ(PgSchemaName("x`y", /*is_key=*/false), "`x``y`");
  EXPECT_EQ(PgSchemaName("", /*is_key=*/false), "``");

  pg::Vocabulary vocab;
  SchemaGraph schema;
  NodeType node;
  node.labels = {vocab.InternLabel("my label"), vocab.InternLabel("x`y")};
  const std::vector<std::string> keys = {"a-b",      "a b",  "x`y",
                                         "OPTIONAL", "OPEN", "OPTIONAL_x",
                                         "a_b"};
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool mandatory = i % 2 == 0;
    node.properties[vocab.InternKey(keys[i])] = {
        mandatory ? 1u : 0u, pg::DataType::kInteger,
        mandatory ? Requiredness::kMandatory : Requiredness::kOptional};
  }
  schema.node_types().push_back(node);
  EdgeType edge;
  edge.labels = {vocab.InternLabel("OPEN")};
  edge.properties[vocab.FindKey("OPTIONAL")] = {1, pg::DataType::kString,
                                                Requiredness::kMandatory};
  schema.edge_types().push_back(edge);

  for (SchemaMode mode : {SchemaMode::kStrict, SchemaMode::kLoose}) {
    const std::string text = SerializePgSchema(schema, vocab, mode);
    pg::Vocabulary fresh;
    auto parsed = ParsePgSchema(text, &fresh);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    ASSERT_EQ(parsed->num_node_types(), 1u) << text;
    ASSERT_EQ(parsed->num_edge_types(), 1u) << text;
    const NodeType& back = parsed->node_types()[0];
    ASSERT_EQ(back.labels.size(), 2u) << text;
    EXPECT_NE(fresh.FindLabel("my label"), util::StringInterner::kInvalidId) << text;
    EXPECT_NE(fresh.FindLabel("x`y"), util::StringInterner::kInvalidId) << text;
    ASSERT_EQ(back.properties.size(), keys.size()) << text;
    for (size_t i = 0; i < keys.size(); ++i) {
      const pg::PropKeyId key = fresh.FindKey(keys[i]);
      ASSERT_TRUE(back.properties.count(key)) << keys[i] << "\n" << text;
      if (mode == SchemaMode::kStrict) {
        const PropertyInfo& info = back.properties.at(key);
        EXPECT_EQ(info.requiredness, node.properties.at(vocab.FindKey(keys[i]))
                                         .requiredness)
            << keys[i];
        EXPECT_EQ(info.data_type, pg::DataType::kInteger) << keys[i];
      }
    }
    const EdgeType& back_edge = parsed->edge_types()[0];
    EXPECT_EQ(back_edge.labels,
              std::vector<pg::LabelId>{fresh.FindLabel("OPEN")});
    EXPECT_TRUE(back_edge.properties.count(fresh.FindKey("OPTIONAL")));
    // What was read writes the same text again.
    EXPECT_EQ(SerializePgSchema(*parsed, fresh, mode), text);
  }
}

TEST(PgSchemaParserTest, RejectsUnterminatedQuotedName) {
  pg::Vocabulary vocab;
  EXPECT_FALSE(ParsePgSchema("CREATE GRAPH TYPE S STRICT {\n"
                             "  (T : L {`a-b STRING})\n"
                             "}\n",
                             &vocab)
                   .ok());
}

// Round-trip property over every zoo dataset: serialize the discovered
// schema, parse it back, and check type counts, labels, requiredness and
// cardinalities survive.
class RoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RoundTripTest, SerializeParseRoundTrip) {
  datasets::Dataset dataset = datasets::Generate(
      datasets::Zoo()[GetParam()], 0.05, 0x31 + GetParam());
  PgHiveOptions options;
  PgHive pipeline(&dataset.graph, options);
  ASSERT_TRUE(pipeline.Run().ok());
  const SchemaGraph& original = pipeline.schema();

  std::string text = SerializePgSchema(original, dataset.graph.vocab(),
                                       SchemaMode::kStrict);
  pg::Vocabulary fresh_vocab;
  auto parsed = ParsePgSchema(text, &fresh_vocab);
  ASSERT_TRUE(parsed.ok()) << dataset.spec.name << ": "
                           << parsed.status().ToString();
  const SchemaGraph& round = parsed.value();
  EXPECT_EQ(round.num_node_types(), original.num_node_types());
  EXPECT_EQ(round.num_edge_types(), original.num_edge_types());
  // Label sets per node type survive (compare by name).
  for (size_t t = 0; t < original.num_node_types(); ++t) {
    EXPECT_EQ(round.node_types()[t].labels.size(),
              original.node_types()[t].labels.size());
    EXPECT_EQ(round.node_types()[t].properties.size(),
              original.node_types()[t].properties.size());
  }
  // Cardinality kinds survive for edge types.
  for (size_t t = 0; t < original.num_edge_types(); ++t) {
    if (original.edge_types()[t].cardinality.kind != CardinalityKind::kUnknown) {
      EXPECT_EQ(round.edge_types()[t].cardinality.kind,
                original.edge_types()[t].cardinality.kind)
          << dataset.spec.name << " edge " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, RoundTripTest,
                         ::testing::Range<size_t>(0, 8));

// A parsed schema can drive the validator: requiredness survives the text.
TEST(PgSchemaParserTest, ParsedSchemaValidates) {
  pg::Vocabulary vocab;
  auto parsed = ParsePgSchema(
      "CREATE GRAPH TYPE S STRICT {\n"
      "  (PersonType : Person {name STRING, OPTIONAL age INTEGER})\n"
      "}\n",
      &vocab);
  ASSERT_TRUE(parsed.ok());
  // Requiredness as parsed: name mandatory, age optional.
  InferPropertyConstraints(&parsed.value());
  pg::PropertyGraph good;
  pg::NodeId n = good.AddNode({"Person"});
  good.SetNodeProperty(n, "name", pg::Value("ok"));
  // Note: vocab differs; rebuild against the parse vocab via shared ids.
  pg::PropertyGraph graph(std::make_shared<pg::Vocabulary>(vocab));
  pg::NodeId m = graph.AddNode({"Person"});
  graph.SetNodeProperty(m, "name", pg::Value("ok"));
  SchemaValidator validator(&parsed.value(), {});
  EXPECT_TRUE(validator.Validate(graph).conforms());

  pg::PropertyGraph bad(std::make_shared<pg::Vocabulary>(vocab));
  bad.AddNode({"Person"});  // Missing mandatory name.
  ValidationReport report = validator.Validate(bad);
  EXPECT_EQ(report.CountKind(ViolationKind::kMissingMandatory), 1u);
}

}  // namespace
}  // namespace pghive::core
