// The graph-text parser keeps a parse cache (the previous line's raw label
// field and raw keys with their ids) in the caller's pg::ElementRecord.
// These tests pin what that cache may not change: every id, label, property
// and intern order equals a cache-free reference parser's on random text
// built to hit and miss the cache; a cache never outlives its load, even
// when the next load's names first occur in another order; two assemblers
// fed interleaved payloads keep apart; and two threads loading at once each
// get their serial result (the `threaded` label puts this file under TSan).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "pg/batch.h"
#include "pg/column_store.h"
#include "pg/graph.h"
#include "pg/graph_io.h"
#include "pg/value.h"
#include "service/assembler.h"
#include "service/client.h"
#include "util/rng.h"

namespace pghive {
namespace {

// --- A cache-free reference parser ------------------------------------------

bool Blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

std::string Unescape(std::string_view s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '\\' && i + 1 < s.size()) {
      c = s[++i];
      if (c == 's') c = ';';
      if (c == 'e') c = '=';
      if (c == 'n') c = '\n';
    }
    out.push_back(c);
  }
  return out;
}

/// Splits `s` at every `sep` that no backslash escapes.
std::vector<std::string_view> SplitUnescaped(std::string_view s, char sep) {
  std::vector<std::string_view> pieces;
  size_t begin = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      pieces.push_back(s.substr(begin, i - begin));
      begin = i + 1;
    } else if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
    }
  }
  return pieces;
}

pg::Value ReferenceValue(std::string_view raw) {
  const std::string s = Unescape(raw);
  int64_t i = 0;
  double d = 0.0;
  if (pg::ParseIntegerLiteral(s, &i)) return pg::Value(i);
  if (s.find_first_of(".eE") != std::string::npos &&
      pg::ParseFloatLiteral(s, &d)) {
    return pg::Value(d);
  }
  if (s == "null") return pg::Value();
  if (s == "true") return pg::Value(true);
  if (s == "false") return pg::Value(false);
  return pg::Value(s);
}

/// Parses well-formed graph text line by line, interning each line's labels
/// and then its keys left to right, with no state carried between lines.
pg::PropertyGraph ReferenceLoad(const std::string& text) {
  pg::PropertyGraph graph;
  pg::Vocabulary& vocab = graph.vocab();
  std::string_view rest = text;
  while (!rest.empty()) {
    const size_t newline = rest.find('\n');
    const std::string_view line = rest.substr(0, newline);
    rest.remove_prefix(newline == std::string_view::npos ? rest.size()
                                                         : newline + 1);
    if (line.empty() || line[0] == '#') continue;
    // Blank-separated head fields; the label field honours escapes.
    size_t pos = 0;
    auto next_field = [&](bool escapes) {
      while (pos < line.size() && Blank(line[pos])) ++pos;
      const size_t begin = pos;
      while (pos < line.size() && !Blank(line[pos])) {
        pos += (escapes && line[pos] == '\\' && pos + 1 < line.size()) ? 2 : 1;
      }
      return line.substr(begin, pos - begin);
    };
    const bool is_edge = next_field(false) == "E";
    next_field(false);  // The id: dense, in file order.
    uint64_t src = 0, dst = 0;
    if (is_edge) {
      src = std::stoull(std::string(next_field(false)));
      dst = std::stoull(std::string(next_field(false)));
    }
    const std::string_view label_field = next_field(true);
    std::vector<pg::LabelId> labels;
    if (label_field != "-") {
      for (std::string_view piece : SplitUnescaped(label_field, '|')) {
        if (piece.empty()) continue;
        labels.push_back(vocab.InternLabel(Unescape(piece)));
      }
    }
    std::string_view props = line.substr(pos);
    while (!props.empty() && Blank(props.front())) props.remove_prefix(1);
    while (!props.empty() && Blank(props.back())) props.remove_suffix(1);
    std::map<pg::PropKeyId, pg::Value> values;  // The last value wins.
    if (!props.empty()) {
      for (std::string_view pair : SplitUnescaped(props, ';')) {
        const std::vector<std::string_view> parts = SplitUnescaped(pair, '=');
        if (parts.size() != 2) continue;  // Skipped: not exactly one '='.
        values[vocab.InternKey(Unescape(parts[0]))] = ReferenceValue(parts[1]);
      }
    }
    pg::PropertyMap map;
    for (auto& [key, value] : values) map.Set(key, std::move(value));
    if (is_edge) {
      const pg::EdgeId id = graph.AddEdgeWithLabelIds(src, dst, labels);
      graph.edge(id).properties = std::move(map);
    } else {
      const pg::NodeId id = graph.AddNodeWithLabelIds(labels);
      graph.node(id).properties = std::move(map);
    }
  }
  return graph;
}

// --- Random graph text ------------------------------------------------------

/// Label names, keys and values with every character the text escapes.
const std::vector<std::string> kLabels = {
    "Person", "Org", "A|B", "semi;colon", "eq=ual", "two words",
    "tab\there", "back\\slash", "Tag"};
const std::vector<std::string> kKeys = {
    "name", "age", "k|pipe", "semi;key", "eq=key", "sp ace", "back\\key",
    "id"};

std::string EscapeLabel(const std::string& label) {
  std::string out;
  for (const char c : label) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case ';': out += "\\s"; break;
      case '=': out += "\\e"; break;
      case '|': case ' ': case '\t': out += '\\'; out += c; break;
      default: out += c;
    }
  }
  return out;
}

std::string RandomValue(util::Rng& rng) {
  switch (rng.NextBounded(6)) {
    case 0: return "null";
    case 1: return std::to_string(rng.NextBounded(1000));
    case 2: return "2." + std::to_string(rng.NextBounded(100));
    case 3: return rng.NextBounded(2) == 0 ? "true" : "false";
    case 4:
      return pg::EscapeField("v;=\\" + std::to_string(rng.NextBounded(9)));
    default: return "text " + std::to_string(rng.NextBounded(50));
  }
}

/// Random graph text that both hits and misses the parse cache: label
/// fields and key orders often repeat the previous line's exactly, and
/// otherwise differ, including by a permutation of the same set. Lines mix
/// duplicate labels, empty label pieces, `-` fields, keys repeated within a
/// line, pairs the parser skips, explicit nulls, comments and blank lines.
std::string RandomGraphText(uint64_t seed) {
  util::Rng rng(seed);
  // Names first occur in a seed-dependent order.
  std::vector<std::string> labels = kLabels;
  std::vector<std::string> keys = kKeys;
  for (size_t i = labels.size(); i > 1; --i) {
    std::swap(labels[i - 1], labels[rng.NextBounded(i)]);
  }
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
  }
  std::string label_field = "-";
  std::vector<std::string> line_keys;
  auto fresh_label_field = [&] {
    if (rng.NextBounded(6) == 0) return std::string("-");
    std::string field;
    const size_t n = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) field += rng.NextBounded(8) == 0 ? "||" : "|";
      field += EscapeLabel(labels[rng.NextBounded(labels.size())]);
    }
    return field;
  };
  auto fresh_keys = [&] {
    std::vector<std::string> out;
    const size_t n = rng.NextBounded(5);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(pg::EscapeField(keys[rng.NextBounded(keys.size())]));
    }
    return out;
  };
  auto props_field = [&] {
    std::string field;
    for (const std::string& key : line_keys) {
      if (!field.empty()) field += ';';
      field += key + '=' + RandomValue(rng);
      // A pair the parser skips: no '=', or two.
      if (rng.NextBounded(10) == 0) {
        field += rng.NextBounded(2) ? ";junk" : ";a=b=c";
      }
    }
    return field;
  };
  auto next_line_shape = [&] {
    switch (rng.NextBounded(4)) {
      case 0:  // A new label field and new keys.
        label_field = fresh_label_field();
        line_keys = fresh_keys();
        break;
      case 1: {  // The same labels in another order: other raw text.
        std::vector<std::string_view> pieces =
            SplitUnescaped(label_field, '|');
        std::reverse(pieces.begin(), pieces.end());
        std::string reversed;
        for (size_t i = 0; i < pieces.size(); ++i) {
          if (i > 0) reversed += '|';
          reversed += pieces[i];
        }
        label_field = reversed;
        std::reverse(line_keys.begin(), line_keys.end());
        break;
      }
      default:  // The previous line's fields again (keys maybe extended).
        if (rng.NextBounded(3) == 0) {
          line_keys.push_back(
              pg::EscapeField(keys[rng.NextBounded(keys.size())]));
        }
        break;
    }
  };
  std::string text;
  const size_t num_nodes = 5 + rng.NextBounded(60);
  for (size_t i = 0; i < num_nodes; ++i) {
    if (rng.NextBounded(15) == 0) {
      text += rng.NextBounded(2) ? "# note\n" : "\n";
    }
    next_line_shape();
    text += "N " + std::to_string(i) + ' ' + label_field + ' ' +
            props_field() + '\n';
  }
  const size_t num_edges = rng.NextBounded(80);
  for (size_t i = 0; i < num_edges; ++i) {
    next_line_shape();
    text += "E " + std::to_string(i) + ' ' +
            std::to_string(rng.NextBounded(num_nodes)) + ' ' +
            std::to_string(rng.NextBounded(num_nodes)) + ' ' + label_field +
            ' ' + props_field() + '\n';
  }
  return text;
}

// --- Comparisons ------------------------------------------------------------

/// Every label, key and label-set token, in id order. Tokens are interned
/// by a full-batch column build (edges first, as PgHive builds them), so
/// their order follows the graph's label ids.
std::vector<std::string> Universes(pg::PropertyGraph& graph) {
  const pg::GraphBatch batch = pg::FullBatch(graph);
  pg::ColumnStore::ForEdges(graph, batch.edge_ids);
  pg::ColumnStore::ForNodes(graph, batch.node_ids);
  const pg::Vocabulary& vocab = graph.vocab();
  std::vector<std::string> out;
  for (pg::LabelId l = 0; l < vocab.num_labels(); ++l) {
    out.push_back("L " + vocab.LabelName(l));
  }
  for (pg::PropKeyId k = 0; k < vocab.num_keys(); ++k) {
    out.push_back("K " + vocab.KeyName(k));
  }
  for (pg::LabelSetToken t = 0; t < vocab.num_tokens(); ++t) {
    out.push_back("T " + vocab.TokenName(t));
  }
  return out;
}

/// Same elements with the same label ids, key ids and values, and the same
/// label, key and token intern order.
void ExpectSameGraph(pg::PropertyGraph& got, pg::PropertyGraph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (pg::NodeId n = 0; n < want.num_nodes(); ++n) {
    EXPECT_EQ(got.node(n).labels, want.node(n).labels) << "node " << n;
    EXPECT_EQ(got.node(n).properties.entries(),
              want.node(n).properties.entries())
        << "node " << n;
  }
  for (pg::EdgeId e = 0; e < want.num_edges(); ++e) {
    EXPECT_EQ(got.edge(e).src, want.edge(e).src) << "edge " << e;
    EXPECT_EQ(got.edge(e).dst, want.edge(e).dst) << "edge " << e;
    EXPECT_EQ(got.edge(e).labels, want.edge(e).labels) << "edge " << e;
    EXPECT_EQ(got.edge(e).properties.entries(),
              want.edge(e).properties.entries())
        << "edge " << e;
  }
  EXPECT_EQ(Universes(got), Universes(want));
}

pg::PropertyGraph MustLoad(const std::string& text) {
  auto loaded = pg::LoadGraphText(text);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return loaded.ok() ? std::move(loaded).value() : pg::PropertyGraph();
}

TEST(ParseCacheTest, RandomTextMatchesTheCacheFreeReference) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string text = RandomGraphText(seed);
    pg::PropertyGraph got = MustLoad(text);
    pg::PropertyGraph want = ReferenceLoad(text);
    ExpectSameGraph(got, want);
  }
}

TEST(ParseCacheTest, RepeatedKeysAndSkippedPairsKeepTheirMeaning) {
  // Line 1 repeats a key (the last value wins). Line 2 repeats line 1's
  // label field; its skipped pair takes no slot, so its y meets line 1's y
  // in slot 1. Line 3 names the same labels and keys in another order, and
  // line 4's escaped '|' makes one label "A|B", not the set {A, B}.
  const std::string text =
      "N 0 A|B x=1;y=2;x=3\n"
      "N 1 A|B x=4;junk;y=null\n"
      "N 2 B|A y=5;x=6\n"
      "N 3 A\\|B y=7\n";
  pg::PropertyGraph got = MustLoad(text);
  pg::PropertyGraph want = ReferenceLoad(text);
  ExpectSameGraph(got, want);
  const pg::PropKeyId x = got.vocab().FindKey("x");
  const pg::PropKeyId y = got.vocab().FindKey("y");
  EXPECT_EQ(got.node(0).properties.Get(x)->AsInt(), 3);
  EXPECT_TRUE(got.node(1).properties.Get(y)->is_null());
  EXPECT_EQ(got.node(2).labels, got.node(0).labels);
  EXPECT_EQ(got.node(3).labels,
            std::vector<pg::LabelId>{got.vocab().FindLabel("A|B")});
}

TEST(ParseCacheTest, ACacheDoesNotOutliveItsLoad) {
  // B's names first occur in the opposite order to A's, and B's first line
  // is A's last line verbatim: a cache that survived A would hand B A's ids.
  const std::string a =
      "N 0 Person name=a;age=1\n"
      "N 1 City zip=1\n"
      "N 2 Person|City name=b;age=2\n";
  const std::string b =
      "N 0 Person|City name=b;age=2\n"
      "N 1 City zip=2\n"
      "N 2 Person age=3;name=c\n";
  for (uint64_t seed = 0; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string first = seed == 0 ? a : RandomGraphText(seed);
    const std::string second = seed == 0 ? b : RandomGraphText(seed + 1000);
    { pg::PropertyGraph graph = MustLoad(first); }  // Destroyed here.
    pg::PropertyGraph got = MustLoad(second);
    pg::PropertyGraph fresh = ReferenceLoad(second);
    ExpectSameGraph(got, fresh);
  }
}

/// Rebuilds a graph from its ingest payloads with one assembler of its own.
pg::PropertyGraph Assemble(const std::vector<std::string>& payloads) {
  pg::PropertyGraph graph;
  service::GraphAssembler assembler(&graph);
  for (const std::string& payload : payloads) {
    pg::GraphBatch batch;
    EXPECT_TRUE(assembler.ApplyPayload(payload, &batch).ok());
  }
  EXPECT_TRUE(assembler.CheckComplete().ok());
  return graph;
}

TEST(ParseCacheTest, InterleavedAssemblersKeepTheirStreamsApart) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    pg::PropertyGraph a = MustLoad(RandomGraphText(seed));
    pg::PropertyGraph b = MustLoad(RandomGraphText(seed + 500));
    const auto a_payloads = service::BuildIngestPayloads(a, 4, seed);
    const auto b_payloads = service::BuildIngestPayloads(b, 3, seed);
    pg::PropertyGraph a_rebuilt, b_rebuilt;
    service::GraphAssembler a_assembler(&a_rebuilt);
    service::GraphAssembler b_assembler(&b_rebuilt);
    for (size_t i = 0; i < std::max(a_payloads.size(), b_payloads.size());
         ++i) {
      pg::GraphBatch batch;
      if (i < a_payloads.size()) {
        ASSERT_TRUE(a_assembler.ApplyPayload(a_payloads[i], &batch).ok());
      }
      if (i < b_payloads.size()) {
        ASSERT_TRUE(b_assembler.ApplyPayload(b_payloads[i], &batch).ok());
      }
    }
    ASSERT_TRUE(a_assembler.CheckComplete().ok());
    ASSERT_TRUE(b_assembler.CheckComplete().ok());
    EXPECT_EQ(pg::SaveGraphText(a_rebuilt), pg::SaveGraphText(a));
    EXPECT_EQ(pg::SaveGraphText(b_rebuilt), pg::SaveGraphText(b));
    // Values travel as text ("2.0" arrives as the integer 2), so the typed
    // comparison is against each stream assembled on its own.
    pg::PropertyGraph a_alone = Assemble(a_payloads);
    pg::PropertyGraph b_alone = Assemble(b_payloads);
    ExpectSameGraph(a_rebuilt, a_alone);
    ExpectSameGraph(b_rebuilt, b_alone);
  }
}

TEST(ParseCacheTest, ConcurrentLoadsEqualTheirSerialLoads) {
  // Pairs of texts whose names first occur in different orders; the zoo
  // pair is large enough that the two loads overlap.
  const std::vector<datasets::DatasetSpec> zoo = datasets::Zoo();
  std::vector<std::pair<std::string, std::string>> pairs = {
      {pg::SaveGraphText(datasets::Generate(zoo.front(), 0.5, 1).graph),
       pg::SaveGraphText(datasets::Generate(zoo.back(), 0.5, 2).graph)}};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    pairs.emplace_back(RandomGraphText(seed), RandomGraphText(seed + 700));
  }
  for (const auto& [left, right] : pairs) {
    pg::PropertyGraph concurrent[2];
    std::thread other([&, &right = right] { concurrent[1] = MustLoad(right); });
    concurrent[0] = MustLoad(left);
    other.join();
    pg::PropertyGraph serial[2] = {MustLoad(left), MustLoad(right)};
    ExpectSameGraph(concurrent[0], serial[0]);
    ExpectSameGraph(concurrent[1], serial[1]);
  }
}

}  // namespace
}  // namespace pghive
