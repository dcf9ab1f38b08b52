#include "pg/csv_import.h"

#include <gtest/gtest.h>

#include <string>

namespace pghive::pg {
namespace {

util::CsvTable NodeTable() {
  util::CsvTable table;
  table.header = {"id:ID", "name", "age:int", "born:date", ":LABEL"};
  table.rows = {
      {"p1", "Alice", "34", "1990-01-02", "Person"},
      {"p2", "Bob", "", "1985-03-04", "Person;Student"},
      {"o1", "Acme", "", "", "Org"},
      {"x1", "ghost", "", "", ""},  // Unlabeled.
  };
  return table;
}

util::CsvTable EdgeTable() {
  util::CsvTable table;
  table.header = {":START_ID", ":END_ID", ":TYPE", "since:date"};
  table.rows = {
      {"p1", "o1", "WORKS_AT", "2020-01-01"},
      {"p2", "o1", "WORKS_AT", ""},
      {"p1", "p2", "KNOWS", ""},
  };
  return table;
}

TEST(CsvImportTest, ImportsNodesWithTypesAndLabels) {
  CsvGraphImporter importer;
  ASSERT_TRUE(importer.AddNodeTable(NodeTable()).ok());
  PropertyGraph g = importer.TakeGraph();
  ASSERT_EQ(g.num_nodes(), 4u);
  // Alice: typed age, date string, single label.
  PropKeyId age = g.vocab().FindKey("age");
  ASSERT_NE(age, UINT32_MAX);
  EXPECT_TRUE(g.node(0).properties.Get(age)->is_int());
  EXPECT_EQ(g.node(0).properties.Get(age)->AsInt(), 34);
  PropKeyId born = g.vocab().FindKey("born");
  EXPECT_EQ(g.node(0).properties.Get(born)->InferType(), DataType::kDate);
  // Bob: empty age cell means absent; two labels.
  EXPECT_FALSE(g.node(1).properties.Has(age));
  EXPECT_EQ(g.node(1).labels.size(), 2u);
  // Ghost: unlabeled.
  EXPECT_TRUE(g.node(3).labels.empty());
}

TEST(CsvImportTest, ImportsEdgesWithEndpointResolution) {
  CsvGraphImporter importer;
  ASSERT_TRUE(importer.AddNodeTable(NodeTable()).ok());
  ASSERT_TRUE(importer.AddEdgeTable(EdgeTable()).ok());
  PropertyGraph g = importer.TakeGraph();
  ASSERT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.edge(0).src, 0u);  // p1.
  EXPECT_EQ(g.edge(0).dst, 2u);  // o1.
  PropKeyId since = g.vocab().FindKey("since");
  EXPECT_TRUE(g.edge(0).properties.Has(since));
  EXPECT_FALSE(g.edge(1).properties.Has(since));
  EXPECT_EQ(g.vocab().LabelName(g.edge(2).labels[0]), "KNOWS");
}

TEST(CsvImportTest, RejectsDuplicateIds) {
  util::CsvTable table;
  table.header = {"id:ID", ":LABEL"};
  table.rows = {{"a", "X"}, {"a", "Y"}};
  CsvGraphImporter importer;
  EXPECT_FALSE(importer.AddNodeTable(table).ok());
}

TEST(CsvImportTest, RejectsMissingIdColumn) {
  util::CsvTable table;
  table.header = {"name", ":LABEL"};
  table.rows = {{"a", "X"}};
  CsvGraphImporter importer;
  EXPECT_FALSE(importer.AddNodeTable(table).ok());
}

TEST(CsvImportTest, RejectsUnknownEndpoints) {
  CsvGraphImporter importer;
  ASSERT_TRUE(importer.AddNodeTable(NodeTable()).ok());
  util::CsvTable edges;
  edges.header = {":START_ID", ":END_ID", ":TYPE"};
  edges.rows = {{"p1", "nope", "R"}};
  auto status = importer.AddEdgeTable(edges);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

TEST(CsvImportTest, MultipleNodeTablesAccumulate) {
  CsvGraphImporter importer;
  util::CsvTable t1;
  t1.header = {"id:ID", ":LABEL"};
  t1.rows = {{"a", "X"}};
  util::CsvTable t2;
  t2.header = {"id:ID", ":LABEL"};
  t2.rows = {{"b", "Y"}};
  ASSERT_TRUE(importer.AddNodeTable(t1).ok());
  ASSERT_TRUE(importer.AddNodeTable(t2).ok());
  EXPECT_EQ(importer.num_nodes(), 2u);
}

TEST(ParseCsvValueTest, TypedParsing) {
  EXPECT_TRUE(ParseCsvValue("42", "int").is_int());
  EXPECT_TRUE(ParseCsvValue("42", "long").is_int());
  EXPECT_TRUE(ParseCsvValue("4.5", "float").is_float());
  EXPECT_TRUE(ParseCsvValue("42", "double").is_float());  // Widened.
  EXPECT_TRUE(ParseCsvValue("true", "boolean").is_bool());
  EXPECT_TRUE(ParseCsvValue("true", "boolean").AsBool());
  EXPECT_FALSE(ParseCsvValue("false", "bool").AsBool());
  EXPECT_TRUE(ParseCsvValue("2020-01-01", "date").is_string());
  EXPECT_TRUE(ParseCsvValue("anything", "").is_string());
}

TEST(ParseCsvValueTest, OutOfRangeNumbersStayText) {
  const std::string huge = "99999999999999999999";
  EXPECT_EQ(ParseCsvValue(huge, "int"), Value(huge));
  EXPECT_EQ(ParseCsvValue("-" + huge, "long"), Value("-" + huge));
  const std::string too_big = "1" + std::string(400, '0');
  EXPECT_EQ(ParseCsvValue(too_big, "double"), Value(too_big));
  EXPECT_EQ(ParseCsvValue("1e999", "float"), Value("1e999"));
  // In range, an integer literal widens to float, sign included.
  EXPECT_EQ(ParseCsvValue(huge, "double"), Value(1e20));
  EXPECT_EQ(ParseCsvValue("+42", "float"), Value(42.0));
  EXPECT_EQ(ParseCsvValue("+42", "int"), Value(int64_t{42}));
  EXPECT_EQ(ParseCsvValue("inf", "double"), Value("inf"));
}

TEST(ParseCsvValueTest, MalformedTypedCellsFallBackToString) {
  EXPECT_TRUE(ParseCsvValue("not-a-number", "int").is_string());
  EXPECT_TRUE(ParseCsvValue("maybe", "boolean").is_string());
  EXPECT_TRUE(ParseCsvValue("x", "float").is_string());
}

}  // namespace
}  // namespace pghive::pg
