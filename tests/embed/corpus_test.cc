#include "embed/corpus.h"

#include <gtest/gtest.h>

namespace pghive::embed {
namespace {

TEST(CorpusTest, EdgeSentencesContainTriples) {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode({"A"});
  pg::NodeId b = g.AddNode({"B"});
  g.AddEdge(a, b, {"R"});
  LabelCorpus corpus = BuildLabelCorpus(g);
  ASSERT_EQ(corpus.num_sentences(), 1u);
  EXPECT_EQ(corpus.sentence(0).size(), 3u);  // src, edge, dst tokens.
  EXPECT_EQ(corpus.vocab_size, g.vocab().num_tokens());
}

TEST(CorpusTest, UnlabeledElementsAreSkipped) {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode({});
  pg::NodeId b = g.AddNode({"B"});
  g.AddEdge(a, b, {"R"});
  LabelCorpus corpus = BuildLabelCorpus(g);
  ASSERT_EQ(corpus.num_sentences(), 1u);
  EXPECT_EQ(corpus.sentence(0).size(), 2u);  // Edge + dst only.
}

TEST(CorpusTest, IsolatedLabeledNodesFormSingletonSentences) {
  pg::PropertyGraph g;
  g.AddNode({"Solo"});
  g.AddNode({});  // Unlabeled isolated node: dropped.
  LabelCorpus corpus = BuildLabelCorpus(g);
  ASSERT_EQ(corpus.num_sentences(), 1u);
  EXPECT_EQ(corpus.sentence(0).size(), 1u);
}

TEST(CorpusTest, FullyUnlabeledEdgeYieldsNoSentence) {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode({});
  pg::NodeId b = g.AddNode({});
  g.AddEdge(a, b, {});
  LabelCorpus corpus = BuildLabelCorpus(g);
  EXPECT_EQ(corpus.num_sentences(), 0u);
}

TEST(CorpusTest, BatchRestrictsScope) {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode({"A"});
  pg::NodeId b = g.AddNode({"B"});
  g.AddNode({"C"});  // Not in batch.
  g.AddEdge(a, b, {"R"});
  const pg::ColumnStore edges = pg::ColumnStore::ForEdges(g, {0});
  const pg::ColumnStore nodes = pg::ColumnStore::ForNodes(g, {a, b});
  LabelCorpus corpus = BuildLabelCorpus(g, edges, nodes);
  EXPECT_EQ(corpus.num_sentences(), 1u);
}

TEST(CorpusTest, MultiLabelNodesUseSetToken) {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode({"Person", "Student"});
  pg::NodeId b = g.AddNode({"School"});
  g.AddEdge(a, b, {"ATTENDS"});
  LabelCorpus corpus = BuildLabelCorpus(g);
  ASSERT_EQ(corpus.num_sentences(), 1u);
  // The first token is the combined set token.
  EXPECT_EQ(g.vocab().TokenName(corpus.sentence(0)[0]), "Person|Student");
}

}  // namespace
}  // namespace pghive::embed
