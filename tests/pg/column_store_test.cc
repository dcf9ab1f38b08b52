// ColumnStore is a derived, struct-of-arrays view of the row representation,
// so every test here is an equivalence pin: whatever random rows say, the
// columns must say too — CSR key order vs entries() order, endpoint ids and
// tokens, null/overwrite/erase semantics, the FillBinaryBlock sweep against
// the naive per-row loop, and the pattern index against a naive
// first-occurrence numbering of (token, src token, dst token, key set).

#include "pg/column_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "pg/graph.h"
#include "pg/property_map.h"
#include "pg/value.h"
#include "util/rng.h"

namespace pghive::pg {
namespace {

Value RandomValue(util::Rng& rng) {
  switch (rng.NextBounded(6)) {
    case 0:
      return Value();  // null
    case 1:
      return Value(rng.NextBounded(2) == 0);
    case 2:
      return Value(static_cast<int64_t>(rng.NextBounded(1000)) - 500);
    case 3:
      return Value(rng.NextDouble() * 10.0 - 5.0);
    case 4:
      return Value("s" + std::to_string(rng.NextBounded(50)));
    default:
      return Value(std::to_string(rng.NextBounded(9000)));  // numeric string
  }
}

/// A random graph with overlapping label sets, a shared small key universe,
/// overwritten and erased properties, and some unlabeled/empty elements —
/// the shapes the column builder has to reproduce exactly.
PropertyGraph RandomGraph(uint64_t seed, size_t num_nodes, size_t num_edges) {
  util::Rng rng(seed);
  const std::vector<std::vector<std::string>> label_pool = {
      {}, {"Person"}, {"Person", "Officer"}, {"Account"}, {"Entity", "Org"}};
  PropertyGraph graph;
  for (size_t i = 0; i < num_nodes; ++i) {
    NodeId id = graph.AddNode(label_pool[rng.NextBounded(label_pool.size())]);
    const size_t props = rng.NextBounded(6);
    for (size_t p = 0; p < props; ++p) {
      // Duplicate keys on purpose: later Set calls overwrite earlier ones.
      graph.SetNodeProperty(id, "k" + std::to_string(rng.NextBounded(8)),
                            RandomValue(rng));
    }
    if (props > 0 && rng.NextBounded(4) == 0) {
      // Erase a (possibly absent) key so holes appear mid-universe.
      graph.node(id).properties.Erase(
          static_cast<KeyId>(rng.NextBounded(8)));
    }
  }
  for (size_t i = 0; i < num_edges; ++i) {
    NodeId src = static_cast<NodeId>(rng.NextBounded(num_nodes));
    NodeId dst = static_cast<NodeId>(rng.NextBounded(num_nodes));
    EdgeId id = rng.NextBounded(5) == 0
                    ? graph.AddEdge(src, dst, {})
                    : graph.AddEdge(src, dst,
                                    {"rel" + std::to_string(rng.NextBounded(3))});
    const size_t props = rng.NextBounded(4);
    for (size_t p = 0; p < props; ++p) {
      graph.SetEdgeProperty(id, "k" + std::to_string(rng.NextBounded(8)),
                            RandomValue(rng));
    }
  }
  return graph;
}

std::vector<NodeId> AllNodes(const PropertyGraph& graph) {
  std::vector<NodeId> ids(graph.num_nodes());
  for (NodeId i = 0; i < ids.size(); ++i) ids[i] = i;
  return ids;
}

std::vector<EdgeId> AllEdges(const PropertyGraph& graph) {
  std::vector<EdgeId> ids(graph.num_edges());
  for (EdgeId i = 0; i < ids.size(); ++i) ids[i] = i;
  return ids;
}

/// Row `row`'s key set as the store's CSR holds it.
std::vector<KeyId> CsrKeys(const ColumnStore& cols, size_t row) {
  return std::vector<KeyId>(
      cols.key_ids().begin() + cols.key_offsets()[row],
      cols.key_ids().begin() + cols.key_offsets()[row + 1]);
}

TEST(ColumnStoreTest, EdgeRowsRoundTripThroughColumns) {
  PropertyGraph graph = RandomGraph(6, 40, 150);
  ColumnStore cols = ColumnStore::ForEdges(graph, AllEdges(graph));
  ASSERT_EQ(cols.num_rows(), graph.num_edges());
  EXPECT_EQ(cols.ids(), AllEdges(graph));
  for (size_t row = 0; row < cols.num_rows(); ++row) {
    const Edge& e = graph.edge(row);
    EXPECT_EQ(CsrKeys(cols, row), e.properties.Keys()) << "row " << row;
    EXPECT_EQ(cols.src_ids()[row], e.src);
    EXPECT_EQ(cols.dst_ids()[row], e.dst);
    EXPECT_EQ(cols.src_tokens()[row],
              graph.vocab().TokenForLabelSet(graph.node(e.src).labels));
    EXPECT_EQ(cols.dst_tokens()[row],
              graph.vocab().TokenForLabelSet(graph.node(e.dst).labels));
  }
}

TEST(ColumnStoreTest, KeyCsrMatchesRowKeyOrder) {
  PropertyGraph graph = RandomGraph(8, 100, 0);
  ColumnStore cols = ColumnStore::ForNodes(graph, AllNodes(graph));
  ASSERT_EQ(cols.key_offsets().size(), cols.num_rows() + 1);
  for (size_t row = 0; row < cols.num_rows(); ++row) {
    // Keys() is sorted by key id, so this also pins ascending rows.
    EXPECT_EQ(CsrKeys(cols, row), graph.node(row).properties.Keys())
        << "row " << row;
  }
}

TEST(ColumnStoreTest, OverwriteEraseAndNullSemantics) {
  PropertyGraph graph;
  NodeId a = graph.AddNode({"A"});
  NodeId b = graph.AddNode({"B"});
  NodeId c = graph.AddNode({});
  graph.SetNodeProperty(a, "age", Value(static_cast<int64_t>(30)));
  graph.SetNodeProperty(a, "age", Value("thirty"));  // overwrite, new type
  graph.SetNodeProperty(a, "gone", Value(true));
  graph.SetNodeProperty(b, "age", Value(static_cast<int64_t>(40)));
  graph.SetNodeProperty(b, "hole", Value());  // explicit null
  const KeyId age = graph.vocab().FindKey("age");
  const KeyId gone = graph.vocab().FindKey("gone");
  const KeyId hole = graph.vocab().FindKey("hole");
  ASSERT_TRUE(graph.node(a).properties.Erase(gone));

  ColumnStore cols = ColumnStore::ForNodes(graph, {a, b, c});
  // The overwrite keeps one entry; the erased key is absent.
  EXPECT_EQ(CsrKeys(cols, 0), std::vector<KeyId>{age});
  // The explicit null is a present key.
  EXPECT_EQ(CsrKeys(cols, 1), (std::vector<KeyId>{age, hole}));
  EXPECT_TRUE(CsrKeys(cols, 2).empty());

  const size_t stride = graph.vocab().num_keys();
  std::vector<float> block(3 * stride, 0.0f);
  cols.FillBinaryBlock(PatternIndex::Identity(3).pattern_rows, 0, 3, stride,
                       block.data(), stride, 0);
  EXPECT_EQ(block[0 * stride + age], 1.0f);
  EXPECT_EQ(block[0 * stride + gone], 0.0f);
  EXPECT_EQ(block[1 * stride + hole], 1.0f);
  EXPECT_EQ(block[1 * stride + gone], 0.0f);
  for (size_t key = 0; key < stride; ++key) {
    EXPECT_EQ(block[2 * stride + key], 0.0f) << key;
  }
}

TEST(ColumnStoreTest, FillBinaryBlockMatchesNaiveRowSweep) {
  PropertyGraph graph = RandomGraph(13, 230, 0);
  ColumnStore cols = ColumnStore::ForNodes(graph, AllNodes(graph));
  const size_t num = cols.num_rows();
  const size_t max_key = 5;  // Smaller than the key universe on purpose.
  const size_t offset = 3, stride = offset + max_key + 2;
  // Entry i fills row rows[i]; a reversed list pins the indirection.
  std::vector<uint32_t> rows = PatternIndex::Identity(num).pattern_rows;
  std::reverse(rows.begin(), rows.end());
  // Chunked exactly like the vectorizer's ParallelFor consumption.
  for (size_t lo = 0; lo < num; lo += 64) {
    const size_t hi = std::min(num, lo + 64);
    std::vector<float> got((hi - lo) * stride, 0.0f);
    cols.FillBinaryBlock(rows, lo, hi, max_key, got.data(), stride, offset);
    std::vector<float> want((hi - lo) * stride, 0.0f);
    for (size_t i = lo; i < hi; ++i) {
      for (const auto& [key, value] :
           graph.node(rows[i]).properties.entries()) {
        if (key < max_key) want[(i - lo) * stride + offset + key] = 1.0f;
      }
    }
    EXPECT_EQ(got, want) << "chunk [" << lo << ", " << hi << ")";
  }
}

TEST(ColumnStoreTest, EmptyAndValuelessStores) {
  PropertyGraph graph = RandomGraph(17, 20, 10);
  ColumnStore empty = ColumnStore::ForNodes(graph, {});
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_EQ(empty.key_offsets(), std::vector<uint32_t>{0});
  EXPECT_TRUE(empty.key_ids().empty());
  std::vector<float> untouched(8, -1.0f);
  empty.FillBinaryBlock({}, 0, 0, 4, untouched.data(), 8, 0);
  EXPECT_EQ(untouched, std::vector<float>(8, -1.0f));

  // Rows without properties: every CSR run is empty and the binary block
  // stays zero.
  PropertyGraph bare;
  const NodeId x = bare.AddNode({"X"});
  const NodeId y = bare.AddNode({});
  ColumnStore valueless = ColumnStore::ForNodes(bare, {x, y});
  EXPECT_EQ(valueless.key_offsets(), (std::vector<uint32_t>{0, 0, 0}));
  EXPECT_TRUE(valueless.key_ids().empty());
  std::vector<float> zeros(2 * 4, 0.0f);
  valueless.FillBinaryBlock(PatternIndex::Identity(2).pattern_rows, 0, 2, 4,
                            zeros.data(), 4, 0);
  EXPECT_EQ(zeros, std::vector<float>(2 * 4, 0.0f));
}

/// A random graph for the endpoint-token checks: unlabeled and multi-label
/// nodes (sets given in any order, with duplicates), self-loops, and a tail
/// of nodes that only ever appear as an edge's target.
PropertyGraph RandomEndpointGraph(uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<std::vector<std::string>> label_pool = {
      {},         {"Person"},           {"Student", "Person"},
      {"Org"},    {"Person", "Student"}, {"Org", "Org", "Place"},
      {"Place"},  {"Tag", "Person", "Org"}};
  PropertyGraph graph;
  const size_t num_nodes = 20 + rng.NextBounded(40);
  for (size_t i = 0; i < num_nodes; ++i) {
    graph.AddNode(label_pool[rng.NextBounded(label_pool.size())]);
  }
  // Nodes from `sources` on are never a source: targets only, if at all.
  const size_t sources = num_nodes - num_nodes / 4;
  const size_t num_edges = 30 + rng.NextBounded(120);
  for (size_t i = 0; i < num_edges; ++i) {
    const NodeId src = rng.NextBounded(sources);
    const NodeId dst =
        rng.NextBounded(5) == 0 ? src : rng.NextBounded(num_nodes);
    std::vector<std::string> labels;
    if (rng.NextBounded(4) != 0) {
      labels.push_back("R" + std::to_string(rng.NextBounded(3)));
    }
    // A label nodes carry too, so edge and node sets share tokens.
    if (rng.NextBounded(6) == 0) labels.push_back("Person");
    graph.AddEdge(src, dst, labels);
  }
  return graph;
}

TEST(ColumnStoreTest, EndpointTokensMatchThreeLookupsPerEdge) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    PropertyGraph graph = RandomEndpointGraph(seed);
    // The reference: the same rows over a copy of the vocabulary, every
    // label set looked up where it occurs (src, edge, dst per edge, then
    // every node of the batch).
    PropertyGraph reference(std::make_shared<Vocabulary>(graph.vocab()));
    reference.mutable_nodes() = graph.nodes();
    reference.mutable_edges() = graph.edges();
    Vocabulary& ref_vocab = reference.vocab();

    util::Rng rng(seed * 977);
    const size_t num_batches = 1 + rng.NextBounded(3);
    for (size_t b = 0; b < num_batches; ++b) {
      // Batch b: every num_batches-th edge and node from offset b.
      std::vector<EdgeId> edge_ids;
      std::vector<NodeId> node_ids;
      for (EdgeId e = b; e < graph.num_edges(); e += num_batches) {
        edge_ids.push_back(e);
      }
      for (NodeId n = b; n < graph.num_nodes(); n += num_batches) {
        node_ids.push_back(n);
      }
      const ColumnStore edges = ColumnStore::ForEdges(graph, edge_ids);
      const ColumnStore nodes = ColumnStore::ForNodes(graph, node_ids);
      ASSERT_EQ(edges.num_rows(), edge_ids.size());
      for (size_t row = 0; row < edge_ids.size(); ++row) {
        const Edge& e = reference.edge(edge_ids[row]);
        const LabelSetToken src =
            ref_vocab.TokenForLabelSet(reference.node(e.src).labels);
        const LabelSetToken own = ref_vocab.TokenForLabelSet(e.labels);
        const LabelSetToken dst =
            ref_vocab.TokenForLabelSet(reference.node(e.dst).labels);
        EXPECT_EQ(edges.src_tokens()[row], src) << "seed " << seed;
        EXPECT_EQ(edges.tokens()[row], own) << "seed " << seed;
        EXPECT_EQ(edges.dst_tokens()[row], dst) << "seed " << seed;
      }
      for (size_t row = 0; row < node_ids.size(); ++row) {
        EXPECT_EQ(nodes.tokens()[row],
                  ref_vocab.TokenForLabelSet(
                      reference.node(node_ids[row]).labels))
            << "seed " << seed;
      }
      // Same ids in the same first-occurrence order: every token name agrees.
      ASSERT_EQ(graph.vocab().num_tokens(), ref_vocab.num_tokens());
      for (LabelSetToken t = 0; t < ref_vocab.num_tokens(); ++t) {
        EXPECT_EQ(graph.vocab().TokenName(t), ref_vocab.TokenName(t))
            << "seed " << seed << " token " << t;
      }
    }
  }
}

TEST(ColumnStoreTest, TokensMatchRowOrderInterning) {
  PropertyGraph graph = RandomGraph(19, 60, 80);
  ColumnStore node_cols = ColumnStore::ForNodes(graph, AllNodes(graph));
  for (size_t row = 0; row < node_cols.num_rows(); ++row) {
    EXPECT_EQ(node_cols.tokens()[row],
              graph.vocab().TokenForLabelSet(graph.node(row).labels));
  }
  ColumnStore edge_cols = ColumnStore::ForEdges(graph, AllEdges(graph));
  for (size_t row = 0; row < edge_cols.num_rows(); ++row) {
    EXPECT_EQ(edge_cols.tokens()[row],
              graph.vocab().TokenForLabelSet(graph.edge(row).labels));
  }
}

// --- Pattern index --------------------------------------------------------

/// Checks the index against its definition: rows share a pattern iff their
/// (token, src token, dst token, key set) are equal, patterns are numbered
/// by first occurrence, pattern_rows holds each pattern's first row and
/// pattern_sizes its row count.
void ExpectPatternIndexMatchesNaive(const ColumnStore& cols) {
  const PatternIndex& index = cols.patterns();
  ASSERT_EQ(index.num_rows(), cols.num_rows());
  ASSERT_EQ(index.pattern_sizes.size(), index.num_patterns());
  const bool edges = !cols.src_tokens().empty();
  using Key = std::tuple<LabelSetToken, LabelSetToken, LabelSetToken,
                         std::vector<KeyId>>;
  std::map<Key, uint32_t> first;
  std::vector<uint32_t> want_rows, want_sizes;
  for (size_t row = 0; row < cols.num_rows(); ++row) {
    Key key{cols.tokens()[row], edges ? cols.src_tokens()[row] : kNoToken,
            edges ? cols.dst_tokens()[row] : kNoToken, CsrKeys(cols, row)};
    auto [it, fresh] =
        first.try_emplace(key, static_cast<uint32_t>(want_rows.size()));
    if (fresh) {
      want_rows.push_back(static_cast<uint32_t>(row));
      want_sizes.push_back(0);
    }
    ++want_sizes[it->second];
    EXPECT_EQ(index.row_patterns[row], it->second) << "row " << row;
  }
  EXPECT_EQ(index.pattern_rows, want_rows);
  EXPECT_EQ(index.pattern_sizes, want_sizes);
}

TEST(PatternIndexTest, NonAdjacentDuplicatesTakeTheFirstOccurrence) {
  PropertyGraph graph;
  const std::vector<std::vector<std::string>> labels = {
      {"A"}, {"B"}, {"A"}, {"C"}, {"B"}, {"A"}};
  for (const auto& l : labels) {
    const NodeId id = graph.AddNode(l);
    graph.SetNodeProperty(id, l[0] == "C" ? "y" : "x", Value(true));
  }
  ColumnStore cols = ColumnStore::ForNodes(graph, AllNodes(graph));
  const PatternIndex& index = cols.patterns();
  EXPECT_EQ(index.row_patterns, (std::vector<uint32_t>{0, 1, 0, 2, 1, 0}));
  EXPECT_EQ(index.pattern_rows, (std::vector<uint32_t>{0, 1, 3}));
  EXPECT_EQ(index.pattern_sizes, (std::vector<uint32_t>{3, 2, 1}));
  ExpectPatternIndexMatchesNaive(cols);

  // The batch order, not the id order, numbers the patterns.
  ColumnStore reversed = ColumnStore::ForNodes(graph, {5, 4, 3, 2, 1, 0});
  EXPECT_EQ(reversed.patterns().row_patterns,
            (std::vector<uint32_t>{0, 1, 2, 0, 1, 0}));
  EXPECT_EQ(reversed.patterns().pattern_rows,
            (std::vector<uint32_t>{0, 1, 2}));
}

TEST(PatternIndexTest, UnlabeledRowsAndUnlabeledEndpoints) {
  PropertyGraph graph;
  const NodeId bare = graph.AddNode({});
  const NodeId bare_x = graph.AddNode({});
  const NodeId a_x = graph.AddNode({"A"});
  const NodeId bare_again = graph.AddNode({});
  graph.SetNodeProperty(bare_x, "x", Value(true));
  graph.SetNodeProperty(a_x, "x", Value(true));
  ColumnStore nodes = ColumnStore::ForNodes(graph, AllNodes(graph));
  EXPECT_EQ(nodes.tokens()[bare], kNoToken);
  // kNoToken is a token like any other; the key set still splits.
  EXPECT_EQ(nodes.patterns().row_patterns,
            (std::vector<uint32_t>{0, 1, 2, 0}));
  EXPECT_EQ(nodes.patterns().pattern_rows, (std::vector<uint32_t>{0, 1, 2}));
  ExpectPatternIndexMatchesNaive(nodes);

  graph.AddEdge(bare, a_x, {"R"});
  graph.AddEdge(a_x, bare, {"R"});
  graph.AddEdge(bare_again, a_x, {"R"});  // Same tokens as edge 0.
  graph.AddEdge(bare, bare, {});
  graph.AddEdge(bare_again, bare_x, {});  // Unlabeled all round.
  ColumnStore edges = ColumnStore::ForEdges(graph, AllEdges(graph));
  EXPECT_EQ(edges.patterns().row_patterns,
            (std::vector<uint32_t>{0, 1, 0, 2, 2}));
  EXPECT_EQ(edges.patterns().pattern_rows, (std::vector<uint32_t>{0, 1, 3}));
  EXPECT_EQ(edges.patterns().pattern_sizes, (std::vector<uint32_t>{2, 1, 2}));
  ExpectPatternIndexMatchesNaive(edges);
}

TEST(PatternIndexTest, PropertyLessRowsShareAPatternPerToken) {
  PropertyGraph graph;
  graph.AddNode({"A"});
  graph.AddNode({"B"});
  const NodeId keyed = graph.AddNode({"A"});
  graph.AddNode({"A"});
  graph.SetNodeProperty(keyed, "k", Value(static_cast<int64_t>(1)));
  ColumnStore cols = ColumnStore::ForNodes(graph, AllNodes(graph));
  EXPECT_EQ(cols.patterns().row_patterns,
            (std::vector<uint32_t>{0, 1, 2, 0}));
  EXPECT_EQ(cols.patterns().pattern_sizes, (std::vector<uint32_t>{2, 1, 1}));
}

TEST(PatternIndexTest, ExplicitNullIsPresentErasedKeyIsAbsent) {
  PropertyGraph graph;
  const NodeId null_key = graph.AddNode({"A"});
  const NodeId erased = graph.AddNode({"A"});
  const NodeId plain = graph.AddNode({"A"});
  graph.SetNodeProperty(null_key, "k", Value());
  graph.SetNodeProperty(erased, "k", Value(true));
  ASSERT_TRUE(graph.node(erased).properties.Erase(graph.vocab().FindKey("k")));
  ColumnStore cols = ColumnStore::ForNodes(graph, {null_key, erased, plain});
  EXPECT_EQ(cols.patterns().row_patterns, (std::vector<uint32_t>{0, 1, 1}));
  EXPECT_EQ(cols.patterns().pattern_rows, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(cols.patterns().pattern_sizes, (std::vector<uint32_t>{1, 2}));
}

TEST(PatternIndexTest, EdgesThatDifferOnlyInOneEndpointToken) {
  PropertyGraph graph;
  const NodeId p = graph.AddNode({"P"});
  const NodeId q = graph.AddNode({"Q"});
  const NodeId p2 = graph.AddNode({"P"});
  graph.AddEdge(p, q, {"R"});
  graph.AddEdge(q, q, {"R"});   // Differs in src only.
  graph.AddEdge(p, p, {"R"});   // Differs in dst only.
  graph.AddEdge(p2, q, {"R"});  // Other nodes, same tokens as edge 0.
  graph.AddEdge(q, p, {"R"});   // Both swapped.
  ColumnStore cols = ColumnStore::ForEdges(graph, AllEdges(graph));
  EXPECT_EQ(cols.patterns().row_patterns,
            (std::vector<uint32_t>{0, 1, 2, 0, 3}));
  EXPECT_EQ(cols.patterns().pattern_rows,
            (std::vector<uint32_t>{0, 1, 2, 4}));
  ExpectPatternIndexMatchesNaive(cols);
}

TEST(PatternIndexTest, OneRowAndEmptyStores) {
  PropertyGraph graph;
  graph.AddNode({"A"});
  ColumnStore one = ColumnStore::ForNodes(graph, {0});
  EXPECT_EQ(one.patterns().row_patterns, std::vector<uint32_t>{0});
  EXPECT_EQ(one.patterns().pattern_rows, std::vector<uint32_t>{0});
  EXPECT_EQ(one.patterns().pattern_sizes, std::vector<uint32_t>{1});
  for (const ColumnStore& empty :
       {ColumnStore::ForNodes(graph, {}), ColumnStore::ForEdges(graph, {})}) {
    EXPECT_EQ(empty.patterns().num_rows(), 0u);
    EXPECT_EQ(empty.patterns().num_patterns(), 0u);
    EXPECT_TRUE(empty.patterns().pattern_sizes.empty());
  }
}

TEST(PatternIndexTest, RandomStoresMatchTheNaiveNumbering) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    PropertyGraph graph = RandomGraph(seed, 120, 300);
    ExpectPatternIndexMatchesNaive(
        ColumnStore::ForNodes(graph, AllNodes(graph)));
    ExpectPatternIndexMatchesNaive(
        ColumnStore::ForEdges(graph, AllEdges(graph)));
  }
}

TEST(PatternIndexTest, IdentityMakesEveryRowItsOwnPattern) {
  const PatternIndex index = PatternIndex::Identity(3);
  EXPECT_EQ(index.row_patterns, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(index.pattern_rows, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(index.pattern_sizes, (std::vector<uint32_t>{1, 1, 1}));
  EXPECT_EQ(PatternIndex::Identity(0).num_patterns(), 0u);
}

}  // namespace
}  // namespace pghive::pg
