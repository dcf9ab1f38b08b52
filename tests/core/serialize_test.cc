#include "core/serialize.h"

#include <gtest/gtest.h>

#include "core/constraints.h"
#include "core/datatype_inference.h"
#include "core/pghive.h"
#include "pg/graph.h"

namespace pghive::core {
namespace {

// A small discovered schema over the Fig. 1 running example.
struct Fixture {
  pg::PropertyGraph graph;
  SchemaGraph schema;

  Fixture() {
    pg::NodeId bob = graph.AddNode({"Person"});
    graph.SetNodeProperty(bob, "name", pg::Value("Bob"));
    graph.SetNodeProperty(bob, "bday", pg::Value("1980-05-02"));
    pg::NodeId john = graph.AddNode({"Person"});
    graph.SetNodeProperty(john, "name", pg::Value("John"));
    pg::NodeId org = graph.AddNode({"Org"});
    graph.SetNodeProperty(org, "url", pg::Value("example.com"));
    pg::EdgeId works = graph.AddEdge(bob, org, {"WORKS_AT"});
    graph.SetEdgeProperty(works, "from",
                          pg::Value(static_cast<int64_t>(2000)));
    graph.AddEdge(john, org, {"WORKS_AT"});

    PgHiveOptions options;
    PgHive pipeline(&graph, options);
    EXPECT_TRUE(pipeline.Run().ok());
    schema = pipeline.schema();
  }
};

TEST(SerializeTest, StrictPgSchemaContainsTypesAndConstraints) {
  Fixture f;
  std::string out =
      SerializePgSchema(f.schema, f.graph.vocab(), SchemaMode::kStrict);
  EXPECT_NE(out.find("CREATE GRAPH TYPE PgHiveSchema STRICT"),
            std::string::npos);
  EXPECT_NE(out.find("PersonType : Person"), std::string::npos);
  EXPECT_NE(out.find("name STRING"), std::string::npos);
  EXPECT_NE(out.find("OPTIONAL bday DATE"), std::string::npos);
  EXPECT_NE(out.find("WORKS_AT"), std::string::npos);
  EXPECT_NE(out.find("from INTEGER"), std::string::npos);
  // Endpoint types referenced.
  EXPECT_NE(out.find("(:PersonType)-["), std::string::npos);
  EXPECT_NE(out.find("]->(:OrgType)"), std::string::npos);
}

TEST(SerializeTest, LooseModeOmitsDatatypesAndAddsOpen) {
  Fixture f;
  std::string out =
      SerializePgSchema(f.schema, f.graph.vocab(), SchemaMode::kLoose);
  EXPECT_NE(out.find("LOOSE"), std::string::npos);
  EXPECT_EQ(out.find("STRING"), std::string::npos);
  EXPECT_EQ(out.find("OPTIONAL"), std::string::npos);
  EXPECT_NE(out.find("OPEN"), std::string::npos);
}

TEST(SerializeTest, AbstractTypesMarked) {
  pg::Vocabulary vocab;
  SchemaGraph schema;
  NodeType abstract;
  abstract.properties[vocab.InternKey("x")].count = 1;
  abstract.instance_count = 1;
  schema.node_types().push_back(abstract);
  std::string out = SerializePgSchema(schema, vocab, SchemaMode::kStrict);
  EXPECT_NE(out.find("ABSTRACT"), std::string::npos);
  EXPECT_NE(out.find("Abstract_0Type"), std::string::npos);
}

TEST(SerializeTest, XsdIsWellFormedish) {
  Fixture f;
  std::string out = SerializeXsd(f.schema, f.graph.vocab());
  EXPECT_EQ(out.find("<?xml"), 0u);
  EXPECT_NE(out.find("<xs:schema"), std::string::npos);
  EXPECT_NE(out.find("</xs:schema>"), std::string::npos);
  EXPECT_NE(out.find("<xs:element name=\"Person\">"), std::string::npos);
  EXPECT_NE(out.find("use=\"required\""), std::string::npos);
  EXPECT_NE(out.find("use=\"optional\""), std::string::npos);
  EXPECT_NE(out.find("xs:long"), std::string::npos);
  // Balanced element tags.
  size_t open = 0, pos = 0;
  while ((pos = out.find("<xs:element", pos)) != std::string::npos) {
    ++open;
    pos += 5;
  }
  size_t close = 0;
  pos = 0;
  while ((pos = out.find("</xs:element>", pos)) != std::string::npos) {
    ++close;
    pos += 5;
  }
  EXPECT_EQ(open, close);
}

TEST(SerializeTest, XsdTypeNames) {
  EXPECT_STREQ(XsdTypeName(pg::DataType::kInteger), "xs:long");
  EXPECT_STREQ(XsdTypeName(pg::DataType::kFloat), "xs:double");
  EXPECT_STREQ(XsdTypeName(pg::DataType::kBoolean), "xs:boolean");
  EXPECT_STREQ(XsdTypeName(pg::DataType::kDate), "xs:date");
  EXPECT_STREQ(XsdTypeName(pg::DataType::kDateTime), "xs:dateTime");
  EXPECT_STREQ(XsdTypeName(pg::DataType::kString), "xs:string");
  EXPECT_STREQ(XsdTypeName(pg::DataType::kNull), "xs:string");
}

TEST(SerializeTest, DescribeSchemaSummarizes) {
  Fixture f;
  std::string out = DescribeSchema(f.schema, f.graph.vocab());
  EXPECT_NE(out.find("node types"), std::string::npos);
  EXPECT_NE(out.find("Person"), std::string::npos);
  EXPECT_NE(out.find("WORKS_AT"), std::string::npos);
  EXPECT_NE(out.find("N:1"), std::string::npos);  // Both persons -> one org.
}

// Every field the text renderings read, on both kinds of type: a labeled and
// an ABSTRACT node type, a labeled edge type with endpoints and a
// cardinality, and an ABSTRACT edge type with neither.
SchemaGraph RenderingSchema(pg::Vocabulary* vocab) {
  const pg::LabelId person = vocab->InternLabel("Person");
  const pg::LabelId works_at = vocab->InternLabel("WORKS_AT");
  const pg::PropKeyId name = vocab->InternKey("name");
  const pg::PropKeyId bday = vocab->InternKey("bday");
  const pg::PropKeyId url = vocab->InternKey("url");
  const pg::PropKeyId from = vocab->InternKey("from");
  const uint32_t person_token = vocab->TokenForLabelSet({person});
  const uint32_t org_token =
      vocab->TokenForLabelSet({vocab->InternLabel("Org")});
  SchemaGraph schema;
  NodeType people;
  people.labels = {person};
  people.properties[name] = {2, pg::DataType::kString,
                             Requiredness::kMandatory};
  people.properties[bday] = {1, pg::DataType::kDate, Requiredness::kOptional};
  people.instance_count = 2;
  people.pattern_hashes = {11, 12};
  schema.node_types().push_back(people);
  NodeType sites;
  sites.properties[url] = {1, pg::DataType::kString,
                           Requiredness::kMandatory};
  sites.instance_count = 1;
  sites.pattern_hashes = {13};
  schema.node_types().push_back(sites);
  EdgeType works;
  works.labels = {works_at};
  works.properties[from] = {1, pg::DataType::kInteger,
                            Requiredness::kOptional};
  works.instance_count = 2;
  works.endpoints = {{person_token, org_token}};
  works.cardinality = {1, 2, CardinalityKind::kManyToOne};
  schema.edge_types().push_back(works);
  EdgeType links;
  links.instance_count = 1;
  links.endpoints = {{pg::kNoToken, pg::kNoToken}};
  schema.edge_types().push_back(links);
  return schema;
}

// Node and edge types share their rendering code, so every form is pinned
// whole here, on both kinds of type, labeled and ABSTRACT; the binary form
// round-trips them.
TEST(SerializeTest, EveryFormIsPinned) {
  pg::Vocabulary vocab;
  const SchemaGraph schema = RenderingSchema(&vocab);
  const std::string binary = SerializeSchemaBinary(schema);
  auto parsed = ParseSchemaBinary(binary);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeSchemaBinary(*parsed), binary);
  EXPECT_EQ(SerializePgSchema(schema, vocab, SchemaMode::kStrict),
            R"(CREATE GRAPH TYPE PgHiveSchema STRICT {
  (PersonType : Person {name STRING, OPTIONAL bday DATE}),
  (ABSTRACT Abstract_1Type {url STRING}),
  (:PersonType)-[WORKS_ATEdgeType : WORKS_AT {OPTIONAL from INTEGER}]->(:OrgType) /* N:1 */,
  (:ANY)-[ABSTRACT Abstract_1EdgeType]->(:ANY)
}
)");
  EXPECT_EQ(SerializePgSchema(schema, vocab, SchemaMode::kLoose),
            R"(CREATE GRAPH TYPE PgHiveSchema LOOSE {
  (PersonType : Person {name, bday, OPEN}),
  (ABSTRACT Abstract_1Type {url, OPEN}),
  (:PersonType)-[WORKS_ATEdgeType : WORKS_AT {from, OPEN}]->(:OrgType),
  (:ANY)-[ABSTRACT Abstract_1EdgeType]->(:ANY)
}
)");
  EXPECT_EQ(SerializeXsd(schema, vocab),
            R"(<?xml version="1.0" encoding="UTF-8"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Person">
    <xs:complexType>
      <xs:attribute name="name" type="xs:string" use="required"/>
      <xs:attribute name="bday" type="xs:date" use="optional"/>
    </xs:complexType>
  </xs:element>
  <xs:element name="Abstract_1">
    <xs:complexType>
      <xs:attribute name="url" type="xs:string" use="required"/>
    </xs:complexType>
  </xs:element>
  <xs:element name="WORKS_AT_edge">
    <xs:complexType>
      <xs:attribute name="from" type="xs:long" use="optional"/>
      <xs:attribute name="source" type="xs:IDREF" use="required"/>
      <xs:attribute name="target" type="xs:IDREF" use="required"/>
      <!-- cardinality: N:1 -->
    </xs:complexType>
  </xs:element>
  <xs:element name="Abstract_1_edge">
    <xs:complexType>
      <xs:attribute name="source" type="xs:IDREF" use="required"/>
      <xs:attribute name="target" type="xs:IDREF" use="required"/>
    </xs:complexType>
  </xs:element>
</xs:schema>
)");
  EXPECT_EQ(DescribeSchema(schema, vocab),
            R"(Schema: 2 node types, 2 edge types
  node Person [2 instances, 2 patterns] name:STRING! bday:DATE?
  node Abstract#1 [1 instances, 1 patterns] url:STRING!
  edge WORKS_AT [2 instances, N:1] from:INTEGER?
  edge Abstract#1 [1 instances, ?]
)");
}

TEST(SerializeTest, CardinalityCommentInStrictMode) {
  Fixture f;
  std::string out =
      SerializePgSchema(f.schema, f.graph.vocab(), SchemaMode::kStrict);
  EXPECT_NE(out.find("/* N:1 */"), std::string::npos);
}

TEST(SerializeBinaryTest, RoundTripIsLossless) {
  Fixture f;
  std::string bytes = SerializeSchemaBinary(f.schema);
  ASSERT_FALSE(bytes.empty());
  auto parsed = ParseSchemaBinary(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  ASSERT_EQ(parsed->num_node_types(), f.schema.num_node_types());
  ASSERT_EQ(parsed->num_edge_types(), f.schema.num_edge_types());
  for (size_t i = 0; i < f.schema.num_node_types(); ++i) {
    const NodeType& a = f.schema.node_types()[i];
    const NodeType& b = parsed->node_types()[i];
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.instances, b.instances);
    EXPECT_EQ(a.instance_count, b.instance_count);
    EXPECT_EQ(a.pattern_hashes, b.pattern_hashes);
    ASSERT_EQ(a.properties.size(), b.properties.size());
    for (const auto& [key, info] : a.properties) {
      auto it = b.properties.find(key);
      ASSERT_NE(it, b.properties.end());
      EXPECT_EQ(it->second.data_type, info.data_type);
      EXPECT_EQ(it->second.requiredness, info.requiredness);
    }
  }
  for (size_t i = 0; i < f.schema.num_edge_types(); ++i) {
    const EdgeType& a = f.schema.edge_types()[i];
    const EdgeType& b = parsed->edge_types()[i];
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.endpoints, b.endpoints);
    EXPECT_EQ(a.cardinality.max_out, b.cardinality.max_out);
    EXPECT_EQ(a.cardinality.max_in, b.cardinality.max_in);
    EXPECT_EQ(a.cardinality.kind, b.cardinality.kind);
  }

  // A re-serialization of the parsed schema is byte-identical: the format
  // has one canonical encoding per schema.
  EXPECT_EQ(SerializeSchemaBinary(*parsed), bytes);
}

TEST(SerializeBinaryTest, RejectsCorruptPayloads) {
  Fixture f;
  std::string bytes = SerializeSchemaBinary(f.schema);

  EXPECT_FALSE(ParseSchemaBinary("").ok());
  EXPECT_FALSE(ParseSchemaBinary("nope").ok());

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ParseSchemaBinary(bad_magic).ok());

  std::string bad_version = bytes;
  bad_version[4] = static_cast<char>(0x7f);
  EXPECT_FALSE(ParseSchemaBinary(bad_version).ok());

  std::string truncated = bytes.substr(0, bytes.size() - 3);
  EXPECT_FALSE(ParseSchemaBinary(truncated).ok());

  std::string trailing = bytes + "junk";
  EXPECT_FALSE(ParseSchemaBinary(trailing).ok());
}

}  // namespace
}  // namespace pghive::core
