#include "pg/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace pghive::pg {
namespace {

PropertyGraph SampleGraph() {
  PropertyGraph g;
  NodeId bob = g.AddNode({"Person"});
  g.SetNodeProperty(bob, "name", Value("Bob"));
  g.SetNodeProperty(bob, "age", Value(static_cast<int64_t>(44)));
  g.SetNodeProperty(bob, "score", Value(2.5));
  g.SetNodeProperty(bob, "active", Value(true));
  NodeId alice = g.AddNode({});  // Unlabeled.
  g.SetNodeProperty(alice, "name", Value("Alice"));
  NodeId org = g.AddNode({"Org", "Company"});
  EdgeId e = g.AddEdge(bob, org, {"WORKS_AT"});
  g.SetEdgeProperty(e, "from", Value(static_cast<int64_t>(2000)));
  g.AddEdge(alice, bob, {"KNOWS"});
  return g;
}

TEST(GraphIoTest, RoundTripPreservesStructure) {
  PropertyGraph g = SampleGraph();
  auto loaded = LoadGraphText(SaveGraphText(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PropertyGraph& g2 = loaded.value();
  ASSERT_EQ(g2.num_nodes(), g.num_nodes());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  // Labels survive.
  EXPECT_EQ(g2.node(0).labels.size(), 1u);
  EXPECT_TRUE(g2.node(1).labels.empty());
  EXPECT_EQ(g2.node(2).labels.size(), 2u);
  // Properties survive with types re-probed.
  PropKeyId name = g2.vocab().FindKey("name");
  ASSERT_NE(name, UINT32_MAX);
  EXPECT_EQ(g2.node(0).properties.Get(name)->AsString(), "Bob");
  PropKeyId age = g2.vocab().FindKey("age");
  EXPECT_TRUE(g2.node(0).properties.Get(age)->is_int());
  PropKeyId active = g2.vocab().FindKey("active");
  EXPECT_TRUE(g2.node(0).properties.Get(active)->is_bool());
  // Edge endpoints survive.
  EXPECT_EQ(g2.edge(0).src, 0u);
  EXPECT_EQ(g2.edge(0).dst, 2u);
}

TEST(GraphIoTest, EscapesSpecialCharacters) {
  PropertyGraph g;
  NodeId n = g.AddNode({"La|bel"});
  g.SetNodeProperty(n, "k=ey", Value("va;lue=with\nnewline"));
  auto loaded = LoadGraphText(SaveGraphText(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PropertyGraph& g2 = loaded.value();
  PropKeyId key = g2.vocab().FindKey("k=ey");
  ASSERT_NE(key, UINT32_MAX);
  EXPECT_EQ(g2.node(0).properties.Get(key)->AsString(),
            "va;lue=with\nnewline");
  ASSERT_EQ(g2.node(0).labels.size(), 1u);
  EXPECT_EQ(g2.vocab().LabelName(g2.node(0).labels[0]), "La|bel");
}

TEST(GraphIoTest, BlanksInsideFieldsSurvive) {
  PropertyGraph g;
  NodeId n = g.AddNode({"Known For", "tab\there", "cr\rhere"});
  g.SetNodeProperty(n, "full name", Value("Ada Lovelace"));
  g.SetNodeProperty(n, "a\tb", Value("x\ty | z"));
  g.SetNodeProperty(n, "city", Value("London"));
  NodeId m = g.AddNode({"Known For"});
  EdgeId e = g.AddEdge(n, m, {"WORKED WITH"});
  g.SetEdgeProperty(e, "since when", Value("18 33"));
  const std::string text = SaveGraphText(g);
  // Blanks in labels are escaped, so the label field stays one field.
  EXPECT_NE(text.find("Known\\ For"), std::string::npos) << text;
  EXPECT_NE(text.find("tab\\\there"), std::string::npos) << text;

  auto loaded = LoadGraphText(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PropertyGraph& g2 = *loaded;
  EXPECT_EQ(SaveGraphText(g2), text);
  ASSERT_EQ(g2.node(0).labels.size(), 3u);
  const Vocabulary& vocab = g2.vocab();
  EXPECT_NE(vocab.FindLabel("Known For"), UINT32_MAX);
  EXPECT_NE(vocab.FindLabel("tab\there"), UINT32_MAX);
  EXPECT_NE(vocab.FindLabel("cr\rhere"), UINT32_MAX);
  EXPECT_EQ(g2.node(0).properties.Get(vocab.FindKey("full name"))->AsString(),
            "Ada Lovelace");
  EXPECT_EQ(g2.node(0).properties.Get(vocab.FindKey("a\tb"))->AsString(),
            "x\ty | z");
  EXPECT_EQ(g2.node(0).properties.Get(vocab.FindKey("city"))->AsString(),
            "London");
  EXPECT_EQ(g2.edge(0).properties.Get(vocab.FindKey("since when"))->AsString(),
            "18 33");
  EXPECT_EQ(vocab.LabelName(g2.edge(0).labels[0]), "WORKED WITH");
}

TEST(GraphIoTest, CrlfAndTrailingBlanksReadAsBefore) {
  auto loaded = LoadGraphText("N 0 A k=v \t \r\nN 1 B\r\nN 2 - \r\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Vocabulary& vocab = loaded->vocab();
  ASSERT_EQ(loaded->num_nodes(), 3u);
  EXPECT_EQ(loaded->node(0).properties.Get(vocab.FindKey("k"))->AsString(),
            "v");
  ASSERT_EQ(loaded->node(1).labels.size(), 1u);
  EXPECT_EQ(vocab.LabelName(loaded->node(1).labels[0]), "B");
  EXPECT_TRUE(loaded->node(2).labels.empty());
  EXPECT_TRUE(loaded->node(2).properties.empty());
}

TEST(GraphIoTest, InternsLabelsThenKeysLeftToRightSkippingBadPairs) {
  auto loaded =
      LoadGraphText("N 0 B|A||A c=1;;bad;x=1=2;b=2\nN 1 C|B b=3;d=4\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Vocabulary& vocab = loaded->vocab();
  ASSERT_EQ(vocab.num_labels(), 3u);
  EXPECT_EQ(vocab.LabelName(0), "B");
  EXPECT_EQ(vocab.LabelName(1), "A");
  EXPECT_EQ(vocab.LabelName(2), "C");
  ASSERT_EQ(vocab.num_keys(), 3u);
  EXPECT_EQ(vocab.KeyName(0), "c");
  EXPECT_EQ(vocab.KeyName(1), "b");
  EXPECT_EQ(vocab.KeyName(2), "d");
  EXPECT_EQ(loaded->node(0).labels.size(), 2u);
  EXPECT_EQ(loaded->node(0).properties.size(), 2u);
}

TEST(GraphIoTest, ValuesAreProbedInPriorityOrder) {
  auto loaded = LoadGraphText(
      "N 0 A i=-42;p=+7;f=2.5;e=1e3;n=null;t=true;s=abc;d=2020-01-02;"
      "inf=inf;w=+1.5\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PropertyGraph& g = *loaded;
  auto get = [&](const char* key) {
    return *g.node(0).properties.Get(g.vocab().FindKey(key));
  };
  EXPECT_EQ(get("i"), Value(int64_t{-42}));
  EXPECT_EQ(get("p"), Value(int64_t{7}));
  EXPECT_EQ(get("f"), Value(2.5));
  EXPECT_EQ(get("e"), Value(1000.0));
  EXPECT_TRUE(get("n").is_null());
  EXPECT_EQ(get("t"), Value(true));
  EXPECT_EQ(get("s"), Value("abc"));
  EXPECT_EQ(get("d"), Value("2020-01-02"));
  EXPECT_EQ(get("inf"), Value("inf"));
  EXPECT_EQ(get("w"), Value("+1.5"));
}

TEST(GraphIoTest, OutOfRangeIntegersStayText) {
  auto loaded = LoadGraphText(
      "N 0 A big=99999999999999999999;neg=-99999999999999999999;"
      "max=9223372036854775807\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PropertyGraph& g = *loaded;
  auto get = [&](const char* key) {
    return *g.node(0).properties.Get(g.vocab().FindKey(key));
  };
  EXPECT_EQ(get("big"), Value("99999999999999999999"));
  EXPECT_EQ(get("neg"), Value("-99999999999999999999"));
  EXPECT_EQ(get("max"), Value(int64_t{9223372036854775807}));
  EXPECT_EQ(SaveGraphText(g),
            "N 0 A big=99999999999999999999;neg=-99999999999999999999;"
            "max=9223372036854775807\n");
}

// Every rejection is a ParseError that names the offending line.
void ExpectRejectedAtLine(const std::string& text, size_t line) {
  auto result = LoadGraphText(text);
  ASSERT_FALSE(result.ok()) << text;
  EXPECT_EQ(result.status().code(), util::StatusCode::kParseError) << text;
  const std::string suffix = ", line " + std::to_string(line);
  const std::string& message = result.status().message();
  ASSERT_GE(message.size(), suffix.size()) << message;
  EXPECT_EQ(message.substr(message.size() - suffix.size()), suffix)
      << message;
}

TEST(GraphIoTest, RejectsUnknownRecordKind) {
  ExpectRejectedAtLine("N 0 A\nX what\n", 2);
  ExpectRejectedAtLine("N 0 A\nNN 1 A\n", 2);
}

TEST(GraphIoTest, RejectsMissingId) {
  ExpectRejectedAtLine("N\n", 1);
  ExpectRejectedAtLine("N 0 A\nE\n", 2);
}

TEST(GraphIoTest, RejectsNonNumericId) {
  ExpectRejectedAtLine("N zero A\n", 1);
  ExpectRejectedAtLine("N -1 A\n", 1);
  ExpectRejectedAtLine("N 0 A\nE x 0 0 R\n", 2);
}

TEST(GraphIoTest, RejectsNumericFieldWithTrailingJunk) {
  ExpectRejectedAtLine("N 0abc k=v\n", 1);
  ExpectRejectedAtLine("N 0 A\nE 0 0x 0 R\n", 2);
}

TEST(GraphIoTest, RejectsEdgeWithoutSrc) {
  ExpectRejectedAtLine("N 0 A\nE 0\n", 2);
}

TEST(GraphIoTest, RejectsEdgeWithoutDst) {
  ExpectRejectedAtLine("N 0 A\nE 0 0\n", 2);
}

TEST(GraphIoTest, RejectsMissingLabelField) {
  ExpectRejectedAtLine("N 0\n", 1);
  ExpectRejectedAtLine("N 0 A\nE 0 0 0 \n", 2);
}

TEST(GraphIoTest, RejectsNonDenseIds) {
  ExpectRejectedAtLine("N 1 A\n", 1);
  ExpectRejectedAtLine("N 0 A\nN 0 A\n", 2);
  ExpectRejectedAtLine("N 0 A\nE 1 0 0 R\n", 2);
}

TEST(GraphIoTest, RejectsEndpointOutOfRange) {
  ExpectRejectedAtLine("N 0 A\nE 0 0 1 R\n", 2);
  ExpectRejectedAtLine("N 0 A\n\nE 0 1 0 R\n", 3);
}

// Every prefix and every single-byte substitution of valid lines must load
// or fail with ParseError: never throw, never read out of bounds (the
// sanitizer builds run this too).
TEST(GraphIoTest, MalformedLineSweepNeverCrashes) {
  const std::string context = "N 0 A\nN 1 B\n";
  const std::vector<std::string> lines = {
      "N 2 La\\|bel|Known\\ For k\\ey=va\\slue;n=12;f=2.5;b=true",
      "N 2 - x=1e5;y=-3;z=null;w=a\\\\b\\n",
      "E 0 0 1 REL|X\\\tY since=2020;w=0.5;t=a b",
      "E 0 1 0 - k=99999999999999999999;e\\e=v\\e",
  };
  const std::string bytes = " \t\\|;=-9\r";
  size_t loaded = 0;
  size_t rejected = 0;
  auto check = [&](const std::string& line) {
    try {
      auto result = LoadGraphText(context + line + "\n");
      if (result.ok()) {
        ++loaded;
      } else {
        ++rejected;
        EXPECT_EQ(result.status().code(), util::StatusCode::kParseError)
            << line;
      }
    } catch (...) {
      ADD_FAILURE() << "threw on: " << line;
    }
  };
  for (const std::string& line : lines) {
    ASSERT_TRUE(LoadGraphText(context + line + "\n").ok()) << line;
    for (size_t len = 0; len <= line.size(); ++len) check(line.substr(0, len));
    for (size_t i = 0; i < line.size(); ++i) {
      for (char b : bytes) {
        std::string mutated = line;
        mutated[i] = b;
        check(mutated);
      }
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(GraphIoTest, RejectsBadEdgeEndpoints) {
  auto result = LoadGraphText("E 0 5 6 REL\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kParseError);
}

TEST(GraphIoTest, RejectsUnknownRecord) {
  auto result = LoadGraphText("X what\n");
  ASSERT_FALSE(result.ok());
}

TEST(GraphIoTest, SkipsCommentsAndBlankLines) {
  auto result = LoadGraphText("# comment\n\nN 0 A \n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_nodes(), 1u);
}

TEST(GraphIoTest, FileRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "pghive_graph_test.pg")
          .string();
  PropertyGraph g = SampleGraph();
  ASSERT_TRUE(SaveGraphFile(g, path).ok());
  auto loaded = LoadGraphFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.value().num_edges(), g.num_edges());
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileIsIoError) {
  auto result = LoadGraphFile("/nonexistent/graph.pg");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
}

TEST(GraphIoTest, DirectoryIsIoErrorNotAnEmptyGraph) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pghive_graph_dir_test")
          .string();
  std::filesystem::create_directories(dir);
  auto result = LoadGraphFile(dir);
  ASSERT_FALSE(result.ok()) << "loaded " << result.value().num_nodes()
                            << " nodes from a directory";
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("cannot read " + dir),
            std::string::npos)
      << result.status().message();
}

}  // namespace
}  // namespace pghive::pg
