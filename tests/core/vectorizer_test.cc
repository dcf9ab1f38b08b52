#include "core/vectorizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "embed/corpus.h"
#include "embed/hash_embedder.h"
#include "embed/word2vec.h"
#include "util/thread_pool.h"

namespace pghive::core {
namespace {

struct Fixture {
  pg::PropertyGraph graph;
  std::unique_ptr<embed::HashEmbedder> embedder;

  Fixture() {
    pg::NodeId bob = graph.AddNode({"Person"});
    graph.SetNodeProperty(bob, "name", pg::Value("Bob"));
    graph.SetNodeProperty(bob, "age", pg::Value(static_cast<int64_t>(44)));
    pg::NodeId alice = graph.AddNode({});
    graph.SetNodeProperty(alice, "name", pg::Value("Alice"));
    pg::NodeId org = graph.AddNode({"Org"});
    pg::EdgeId e = graph.AddEdge(bob, org, {"WORKS_AT"});
    graph.SetEdgeProperty(e, "from", pg::Value(static_cast<int64_t>(2000)));
    embedder = std::make_unique<embed::HashEmbedder>(&graph.vocab(), 4, 1);
  }
};

TEST(VectorizerTest, NodeFeatureDimensions) {
  Fixture f;
  Vectorizer vectorizer(&f.graph, f.embedder.get());
  auto m = vectorizer.NodeFeatures(pg::FullBatch(f.graph));
  EXPECT_EQ(m.num, 3u);
  // d + K: 4 + 3 distinct keys (name, age, from).
  EXPECT_EQ(m.dim, 4u + f.graph.vocab().num_keys());
}

TEST(VectorizerTest, BinaryBlockMarksPresentKeys) {
  Fixture f;
  Vectorizer vectorizer(&f.graph, f.embedder.get());
  auto m = vectorizer.NodeFeatures(pg::FullBatch(f.graph));
  const size_t d = 4;
  pg::PropKeyId name = f.graph.vocab().FindKey("name");
  pg::PropKeyId age = f.graph.vocab().FindKey("age");
  // Bob has name + age.
  EXPECT_EQ(m.row(0)[d + name], 1.0f);
  EXPECT_EQ(m.row(0)[d + age], 1.0f);
  // Alice has name only.
  EXPECT_EQ(m.row(1)[d + name], 1.0f);
  EXPECT_EQ(m.row(1)[d + age], 0.0f);
  // Org has nothing.
  EXPECT_EQ(m.row(2)[d + name], 0.0f);
}

TEST(VectorizerTest, UnlabeledNodeHasZeroEmbeddingBlock) {
  Fixture f;
  Vectorizer vectorizer(&f.graph, f.embedder.get());
  auto m = vectorizer.NodeFeatures(pg::FullBatch(f.graph));
  for (size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(m.row(1)[d], 0.0f);  // Alice is unlabeled.
  }
  // Bob's embedding block is non-zero.
  float norm = 0;
  for (size_t d = 0; d < 4; ++d) norm += m.row(0)[d] * m.row(0)[d];
  EXPECT_GT(norm, 0.5f);
}

TEST(VectorizerTest, EdgeFeatureLayout) {
  Fixture f;
  Vectorizer vectorizer(&f.graph, f.embedder.get());
  auto m = vectorizer.EdgeFeatures(pg::FullBatch(f.graph));
  EXPECT_EQ(m.num, 1u);
  EXPECT_EQ(m.dim, 3 * 4 + f.graph.vocab().num_keys());
  // Edge, src and dst blocks are all non-zero (all labeled).
  for (int block = 0; block < 3; ++block) {
    float norm = 0;
    for (size_t d = 0; d < 4; ++d) {
      float x = m.row(0)[block * 4 + d];
      norm += x * x;
    }
    EXPECT_GT(norm, 0.5f) << "block " << block;
  }
  pg::PropKeyId from = f.graph.vocab().FindKey("from");
  EXPECT_EQ(m.row(0)[12 + from], 1.0f);
}

TEST(VectorizerTest, IdenticalPatternsProduceIdenticalVectors) {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode({"T"});
  g.SetNodeProperty(a, "x", pg::Value("1"));
  pg::NodeId b = g.AddNode({"T"});
  g.SetNodeProperty(b, "x", pg::Value("different value"));
  embed::HashEmbedder embedder(&g.vocab(), 4, 2);
  Vectorizer vectorizer(&g, &embedder);
  auto m = vectorizer.NodeFeatures(pg::FullBatch(g));
  for (size_t d = 0; d < m.dim; ++d) {
    EXPECT_EQ(m.row(0)[d], m.row(1)[d]);
  }
}

/// Row i of a set CSR as a vector.
std::vector<uint64_t> Span(const ElementSetCsr& csr, size_t i) {
  return std::vector<uint64_t>(csr.elements.begin() + csr.offsets[i],
                               csr.elements.begin() + csr.offsets[i + 1]);
}

TEST(VectorizerTest, NodeSetsContainLabelAndKeys) {
  Fixture f;
  Vectorizer vectorizer(&f.graph, f.embedder.get());
  ElementSetCsr sets = vectorizer.NodeSetSpans(pg::FullBatch(f.graph));
  ASSERT_EQ(sets.num(), 3u);
  // Bob: label token + 2 keys.
  EXPECT_EQ(Span(sets, 0).size(), 3u);
  // Alice: no label token, 1 key.
  EXPECT_EQ(Span(sets, 1).size(), 1u);
  // Org: label only.
  EXPECT_EQ(Span(sets, 2).size(), 1u);
}

TEST(VectorizerTest, EdgeSetsDistinguishEndpointRoles) {
  // Same label set as source vs as target must produce different elements.
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode({"A"});
  pg::NodeId b = g.AddNode({"B"});
  g.AddEdge(a, b, {"R"});
  g.AddEdge(b, a, {"R"});
  embed::HashEmbedder embedder(&g.vocab(), 4, 3);
  Vectorizer vectorizer(&g, &embedder);
  ElementSetCsr sets = vectorizer.EdgeSetSpans(pg::FullBatch(g));
  ASSERT_EQ(sets.num(), 2u);
  EXPECT_NE(Span(sets, 0), Span(sets, 1));
}

// ---- Equivalence with the §4.1 definitions ------------------------------
//
// The column sweeps must equal the vectors and sets written down one row at
// a time from each element's labels and PropertyMap: identical feature
// bytes, identical sorted MinHash sets, identical endpoint tokens. Pinned on
// generated zoo graphs so label overlap, unlabeled elements and property
// holes all occur. The references run after the vectorizer, so every token
// they look up is already interned.

FeatureMatrix NaiveNodeFeatures(pg::PropertyGraph& graph,
                                const embed::LabelEmbedder& embedder,
                                const pg::GraphBatch& batch) {
  const size_t d = embedder.dim();
  FeatureMatrix m;
  m.num = batch.node_ids.size();
  m.dim = d + graph.vocab().num_keys();
  m.data.assign(m.num * m.dim, 0.0f);
  for (size_t i = 0; i < m.num; ++i) {
    const pg::Node& n = graph.node(batch.node_ids[i]);
    float* row = &m.data[i * m.dim];
    embedder.Embed(graph.vocab().TokenForLabelSet(n.labels), row);
    for (const auto& [key, value] : n.properties.entries()) {
      row[d + key] = 1.0f;
    }
  }
  return m;
}

FeatureMatrix NaiveEdgeFeatures(pg::PropertyGraph& graph,
                                const embed::LabelEmbedder& embedder,
                                const pg::GraphBatch& batch) {
  const size_t d = embedder.dim();
  pg::Vocabulary& vocab = graph.vocab();
  FeatureMatrix m;
  m.num = batch.edge_ids.size();
  m.dim = 3 * d + vocab.num_keys();
  m.data.assign(m.num * m.dim, 0.0f);
  for (size_t i = 0; i < m.num; ++i) {
    const pg::Edge& e = graph.edge(batch.edge_ids[i]);
    float* row = &m.data[i * m.dim];
    embedder.Embed(vocab.TokenForLabelSet(e.labels), row);
    embedder.Embed(vocab.TokenForLabelSet(graph.node(e.src).labels), row + d);
    embedder.Embed(vocab.TokenForLabelSet(graph.node(e.dst).labels),
                   row + 2 * d);
    for (const auto& [key, value] : e.properties.entries()) {
      row[3 * d + key] = 1.0f;
    }
  }
  return m;
}

std::vector<uint64_t> NaiveNodeSet(pg::PropertyGraph& graph, pg::NodeId id) {
  const pg::Node& n = graph.node(id);
  std::vector<uint64_t> set;
  const pg::LabelSetToken token = graph.vocab().TokenForLabelSet(n.labels);
  if (token != pg::kNoToken) set.push_back(MinHashLabelElement(token));
  for (const auto& [key, value] : n.properties.entries()) {
    set.push_back(MinHashKeyElement(key));
  }
  std::sort(set.begin(), set.end());
  return set;
}

std::vector<uint64_t> NaiveEdgeSet(pg::PropertyGraph& graph, pg::EdgeId id) {
  const pg::Edge& e = graph.edge(id);
  pg::Vocabulary& vocab = graph.vocab();
  std::vector<uint64_t> set;
  const pg::LabelSetToken own = vocab.TokenForLabelSet(e.labels);
  const pg::LabelSetToken src =
      vocab.TokenForLabelSet(graph.node(e.src).labels);
  const pg::LabelSetToken dst =
      vocab.TokenForLabelSet(graph.node(e.dst).labels);
  if (own != pg::kNoToken) set.push_back(MinHashLabelElement(own));
  if (src != pg::kNoToken) set.push_back(MinHashSrcElement(src));
  if (dst != pg::kNoToken) set.push_back(MinHashDstElement(dst));
  for (const auto& [key, value] : e.properties.entries()) {
    set.push_back(MinHashKeyElement(key));
  }
  std::sort(set.begin(), set.end());
  return set;
}

TEST(VectorizerEquivalenceTest, ColumnarFeaturesMatchRowFeaturesExactly) {
  for (const datasets::DatasetSpec& spec :
       {datasets::PoleSpec(), datasets::IcijSpec()}) {
    datasets::Dataset dataset = datasets::Generate(spec, 0.05, 23);
    pg::PropertyGraph& graph = dataset.graph;
    embed::HashEmbedder embedder(&graph.vocab(), 8, 5);
    pg::GraphBatch batch = pg::FullBatch(graph);
    Vectorizer vectorizer(&graph, &embedder);
    FeatureMatrix nodes = vectorizer.NodeFeatures(batch);
    FeatureMatrix edges = vectorizer.EdgeFeatures(batch);
    FeatureMatrix want_nodes = NaiveNodeFeatures(graph, embedder, batch);
    EXPECT_EQ(nodes.num, want_nodes.num);
    EXPECT_EQ(nodes.dim, want_nodes.dim);
    EXPECT_EQ(nodes.data, want_nodes.data);
    FeatureMatrix want_edges = NaiveEdgeFeatures(graph, embedder, batch);
    EXPECT_EQ(edges.dim, want_edges.dim);
    EXPECT_EQ(edges.data, want_edges.data);
    auto endpoints = vectorizer.EdgeEndpointTokens(batch);
    ASSERT_EQ(endpoints.size(), batch.edge_ids.size());
    for (size_t i = 0; i < endpoints.size(); ++i) {
      const pg::Edge& e = graph.edge(batch.edge_ids[i]);
      EXPECT_EQ(endpoints[i].first,
                graph.vocab().TokenForLabelSet(graph.node(e.src).labels));
      EXPECT_EQ(endpoints[i].second,
                graph.vocab().TokenForLabelSet(graph.node(e.dst).labels));
    }
  }
  // A trained Word2Vec over an incremental split, in PgHive's preprocess
  // order (edge store, node store, train, vectorize): every batch's
  // features equal the per-row Embed reference at both pool sizes, and the
  // two pool sizes agree byte for byte.
  std::vector<std::vector<float>> first_pool;
  for (const size_t threads : {1, 4}) {
    datasets::Dataset dataset =
        datasets::Generate(datasets::LdbcSpec(), 0.05, 31);
    pg::PropertyGraph& graph = dataset.graph;
    embed::Word2Vec model(&graph.vocab(), embed::Word2VecOptions{});
    util::ThreadPool pool(threads);
    std::vector<std::vector<float>> features;
    for (const pg::GraphBatch& batch : pg::SplitIntoBatches(graph, 4, 7)) {
      Vectorizer vectorizer(&graph, &model, &pool);
      const pg::ColumnStore& edge_cols = vectorizer.EdgeColumns(batch);
      const pg::ColumnStore& node_cols = vectorizer.NodeColumns(batch);
      model.Train(embed::BuildLabelCorpus(graph, edge_cols, node_cols), &pool);
      FeatureMatrix nodes = vectorizer.NodeFeatures(batch);
      FeatureMatrix edges = vectorizer.EdgeFeatures(batch);
      EXPECT_EQ(nodes.data, NaiveNodeFeatures(graph, model, batch).data)
          << "threads=" << threads;
      EXPECT_EQ(edges.data, NaiveEdgeFeatures(graph, model, batch).data)
          << "threads=" << threads;
      features.push_back(std::move(nodes.data));
      features.push_back(std::move(edges.data));
    }
    ASSERT_EQ(features.size(), 8u);
    if (first_pool.empty()) {
      first_pool = std::move(features);
    } else {
      EXPECT_EQ(features, first_pool);
    }
  }
}

/// Counts Embed calls per token; embeds like the HashEmbedder it wraps.
/// Embed runs on pool workers, so the counts sit behind a mutex.
class CountingEmbedder : public embed::LabelEmbedder {
 public:
  explicit CountingEmbedder(const pg::Vocabulary* vocab)
      : inner_(vocab, 8, 5) {}

  size_t dim() const override { return inner_.dim(); }
  void Embed(pg::LabelSetToken token, float* out) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++calls_[token];
    }
    inner_.Embed(token, out);
  }

  std::map<pg::LabelSetToken, size_t> calls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }

 private:
  embed::HashEmbedder inner_;
  mutable std::mutex mutex_;
  mutable std::map<pg::LabelSetToken, size_t> calls_;
};

TEST(VectorizerTokenTableTest, EmbedsEachDistinctTokenOfTheBatchOnce) {
  datasets::Dataset dataset =
      datasets::Generate(datasets::LdbcSpec(), 0.05, 37);
  pg::PropertyGraph& graph = dataset.graph;
  for (const size_t threads : {1, 4}) {
    util::ThreadPool pool(threads);
    for (const pg::GraphBatch& batch : pg::SplitIntoBatches(graph, 3, 5)) {
      CountingEmbedder embedder(&graph.vocab());
      Vectorizer vectorizer(&graph, &embedder, &pool);
      // PgHive's order: both stores, then the feature calls.
      const pg::ColumnStore& edge_cols = vectorizer.EdgeColumns(batch);
      const pg::ColumnStore& node_cols = vectorizer.NodeColumns(batch);
      FeatureMatrix nodes = vectorizer.NodeFeatures(batch);
      FeatureMatrix edges = vectorizer.EdgeFeatures(batch);
      std::set<pg::LabelSetToken> distinct;
      for (const auto* column : {&node_cols.tokens(), &edge_cols.tokens(),
                                 &edge_cols.src_tokens(),
                                 &edge_cols.dst_tokens()}) {
        distinct.insert(column->begin(), column->end());
      }
      distinct.erase(pg::kNoToken);
      const std::map<pg::LabelSetToken, size_t> calls = embedder.calls();
      EXPECT_LE(calls.size(), distinct.size()) << "threads=" << threads;
      for (const auto& [token, count] : calls) {
        EXPECT_EQ(count, 1u) << "token " << token << " threads=" << threads;
        EXPECT_TRUE(distinct.count(token)) << "token " << token;
      }
      EXPECT_EQ(nodes.data, NaiveNodeFeatures(graph, embedder, batch).data);
      EXPECT_EQ(edges.data, NaiveEdgeFeatures(graph, embedder, batch).data);
    }
  }
}

TEST(VectorizerTokenTableTest, OneNodeBatchEmbedsOneTokenOfALargeVocabulary) {
  pg::PropertyGraph graph;
  for (int i = 0; i < 2000; ++i) {
    pg::NodeId n = graph.AddNode({"L" + std::to_string(i)});
    graph.SetNodeProperty(n, "k", pg::Value(static_cast<int64_t>(i)));
  }
  // Intern every token, so the vocabulary is far larger than the batch.
  for (const pg::Node& n : graph.nodes()) {
    graph.vocab().TokenForLabelSet(n.labels);
  }
  ASSERT_EQ(graph.vocab().num_tokens(), 2000u);
  CountingEmbedder embedder(&graph.vocab());
  Vectorizer vectorizer(&graph, &embedder);
  pg::GraphBatch batch;
  batch.node_ids = {1234};
  FeatureMatrix m = vectorizer.NodeFeatures(batch);
  const pg::LabelSetToken token =
      graph.vocab().TokenForLabelSet(graph.node(1234).labels);
  EXPECT_EQ(embedder.calls(), (std::map<pg::LabelSetToken, size_t>{{token, 1}}));
  EXPECT_EQ(m.data, NaiveNodeFeatures(graph, embedder, batch).data);
}

TEST(VectorizerTokenTableTest, NewBatchTakesFreshEmbeddings) {
  // The table belongs to the batch: after a store is rebuilt for another
  // batch, a retrained embedder's vectors show up in the features.
  datasets::Dataset dataset =
      datasets::Generate(datasets::PoleSpec(), 0.05, 41);
  pg::PropertyGraph& graph = dataset.graph;
  embed::Word2Vec model(&graph.vocab(), embed::Word2VecOptions{});
  Vectorizer vectorizer(&graph, &model);
  for (const pg::GraphBatch& batch : pg::SplitIntoBatches(graph, 3, 9)) {
    const pg::ColumnStore& edge_cols = vectorizer.EdgeColumns(batch);
    const pg::ColumnStore& node_cols = vectorizer.NodeColumns(batch);
    model.Train(embed::BuildLabelCorpus(graph, edge_cols, node_cols));
    EXPECT_EQ(vectorizer.NodeFeatures(batch).data,
              NaiveNodeFeatures(graph, model, batch).data);
    EXPECT_EQ(vectorizer.EdgeFeatures(batch).data,
              NaiveEdgeFeatures(graph, model, batch).data);
  }
}

TEST(VectorizerEquivalenceTest, SetSpansMatchNestedSetsRowForRow) {
  datasets::Dataset dataset = datasets::Generate(datasets::LdbcSpec(), 0.05, 29);
  pg::PropertyGraph& graph = dataset.graph;
  embed::HashEmbedder embedder(&graph.vocab(), 8, 5);
  pg::GraphBatch batch = pg::FullBatch(graph);
  Vectorizer vectorizer(&graph, &embedder);
  ElementSetCsr nodes = vectorizer.NodeSetSpans(batch);
  ElementSetCsr edges = vectorizer.EdgeSetSpans(batch);
  // The spans must come out sorted, so they match element for element, not
  // just as multisets.
  ASSERT_EQ(nodes.num(), batch.node_ids.size());
  for (size_t i = 0; i < nodes.num(); ++i) {
    ASSERT_EQ(Span(nodes, i), NaiveNodeSet(graph, batch.node_ids[i]))
        << "node row " << i;
  }
  ASSERT_EQ(edges.num(), batch.edge_ids.size());
  for (size_t i = 0; i < edges.num(); ++i) {
    ASSERT_EQ(Span(edges, i), NaiveEdgeSet(graph, batch.edge_ids[i]))
        << "edge row " << i;
  }
}

TEST(VectorizerEquivalenceTest, ColumnCachesRebuildWhenBatchChanges) {
  Fixture f;
  Vectorizer vectorizer(&f.graph, f.embedder.get());
  pg::GraphBatch full = pg::FullBatch(f.graph);
  EXPECT_EQ(vectorizer.NodeColumns(full).num_rows(), f.graph.num_nodes());
  pg::GraphBatch partial;
  partial.node_ids = {0};
  EXPECT_EQ(vectorizer.NodeColumns(partial).num_rows(), 1u);
  EXPECT_EQ(vectorizer.NodeColumns(full).num_rows(), f.graph.num_nodes());
}

TEST(MinHashElementTest, UniversesAreDisjoint) {
  EXPECT_NE(MinHashLabelElement(1), MinHashSrcElement(1));
  EXPECT_NE(MinHashSrcElement(1), MinHashDstElement(1));
  EXPECT_NE(MinHashDstElement(1), MinHashKeyElement(1));
  EXPECT_NE(MinHashLabelElement(1), MinHashKeyElement(1));
}

}  // namespace
}  // namespace pghive::core
