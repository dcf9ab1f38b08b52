#include "embed/word2vec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pg/graph.h"
#include "util/binio.h"
#include "util/status.h"

namespace pghive::embed {
namespace {

// Builds a graph with two "communities": A-labeled nodes connect to
// B-labeled nodes via R edges, and C-labeled nodes connect to D-labeled
// nodes via S edges. A/B tokens co-occur; A/C never do.
pg::PropertyGraph CommunityGraph() {
  pg::PropertyGraph g;
  std::vector<pg::NodeId> as, bs, cs, ds;
  for (int i = 0; i < 30; ++i) {
    as.push_back(g.AddNode({"A"}));
    bs.push_back(g.AddNode({"B"}));
    cs.push_back(g.AddNode({"C"}));
    ds.push_back(g.AddNode({"D"}));
  }
  for (int i = 0; i < 30; ++i) {
    g.AddEdge(as[i], bs[i], {"R"});
    g.AddEdge(cs[i], ds[i], {"S"});
  }
  return g;
}

TEST(Word2VecTest, ZeroForMissingToken) {
  pg::Vocabulary vocab;
  Word2Vec model(&vocab, {});
  auto v = model.EmbedVec(pg::kNoToken);
  for (float x : v) EXPECT_EQ(x, 0.0f);
}

TEST(Word2VecTest, UntrainedTokenOutOfRangeIsZero) {
  pg::Vocabulary vocab;
  Word2Vec model(&vocab, {});
  auto v = model.EmbedVec(5);  // Never trained.
  for (float x : v) EXPECT_EQ(x, 0.0f);
}

TEST(Word2VecTest, IdenticalLabelSetsShareVector) {
  pg::PropertyGraph g = CommunityGraph();
  LabelCorpus corpus = BuildLabelCorpus(g);
  Word2Vec model(&g.vocab(), {});
  model.Train(corpus);
  pg::LabelId a = g.vocab().FindLabel("A");
  auto t1 = g.vocab().TokenForLabelSet({a});
  auto t2 = g.vocab().TokenForLabelSet({a});
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(model.EmbedVec(t1), model.EmbedVec(t2));
}

TEST(Word2VecTest, TrainingIsDeterministic) {
  pg::PropertyGraph g1 = CommunityGraph();
  pg::PropertyGraph g2 = CommunityGraph();
  LabelCorpus c1 = BuildLabelCorpus(g1);
  LabelCorpus c2 = BuildLabelCorpus(g2);
  Word2Vec m1(&g1.vocab(), {});
  Word2Vec m2(&g2.vocab(), {});
  m1.Train(c1);
  m2.Train(c2);
  auto t = g1.vocab().TokenForLabelSet({g1.vocab().FindLabel("A")});
  EXPECT_EQ(m1.EmbedVec(t), m2.EmbedVec(t));
}

TEST(Word2VecTest, CoOccurringTokensMoreSimilarThanUnrelated) {
  pg::PropertyGraph g = CommunityGraph();
  LabelCorpus corpus = BuildLabelCorpus(g);
  Word2Vec model(&g.vocab(), {});
  // Three continued passes: 3 * kEpochs epochs over the corpus.
  for (int pass = 0; pass < 3; ++pass) model.Train(corpus);
  auto token = [&](const char* name) {
    return g.vocab().TokenForLabelSet({g.vocab().FindLabel(name)});
  };
  float ab = model.Similarity(token("A"), token("B"));
  float ac = model.Similarity(token("A"), token("C"));
  EXPECT_GT(ab, ac);
}

TEST(Word2VecTest, EmbeddingsAreUnitNorm) {
  pg::PropertyGraph g = CommunityGraph();
  LabelCorpus corpus = BuildLabelCorpus(g);
  Word2Vec model(&g.vocab(), {});
  model.Train(corpus);
  auto t = g.vocab().TokenForLabelSet({g.vocab().FindLabel("A")});
  auto v = model.EmbedVec(t);
  double norm2 = 0;
  for (float x : v) norm2 += static_cast<double>(x) * x;
  EXPECT_NEAR(norm2, 1.0, 1e-4);
}

TEST(Word2VecTest, EmptyCorpusIsANoOp) {
  pg::Vocabulary vocab;
  Word2Vec model(&vocab, {});
  model.Train(LabelCorpus{});
  EXPECT_EQ(model.num_rows(), 0u);
}

TEST(Word2VecTest, CorpusWithoutPairsLeavesInitializationUntouched) {
  // Single-token sentences allocate rows but produce no training pairs, so
  // training must be idempotent from the deterministic initialization.
  pg::PropertyGraph g;
  g.AddNode({"A"});
  g.AddNode({"B"});
  LabelCorpus corpus = BuildLabelCorpus(g);
  Word2Vec model(&g.vocab(), {});
  model.Train(corpus);
  EXPECT_GT(model.num_rows(), 0u);
  auto t = g.vocab().TokenForLabelSet({g.vocab().FindLabel("A")});
  auto before = model.EmbedVec(t);
  model.Train(corpus);
  EXPECT_EQ(model.EmbedVec(t), before);
}

TEST(Word2VecTest, MaxPairsPerEpochTruncatesExactly) {
  pg::PropertyGraph g = CommunityGraph();
  auto token = [&](const char* name) {
    return g.vocab().TokenForLabelSet({g.vocab().FindLabel(name)});
  };
  // A 2-token sentence yields 2 pairs (each token is the other's context),
  // so `at_cap` such sentences fill the cap exactly.
  const size_t at_cap = Word2Vec::kMaxPairsPerEpoch / 2;
  const std::vector<pg::LabelSetToken> ab = {token("A"), token("B")};
  const std::vector<pg::LabelSetToken> cd = {token("C"), token("D")};
  // `sentences - 1` copies of {A, B}, then `last`.
  auto trained = [&](size_t sentences,
                     const std::vector<pg::LabelSetToken>& last) {
    LabelCorpus corpus;
    corpus.vocab_size = g.vocab().num_tokens();
    for (size_t s = 1; s < sentences; ++s) corpus.AddSentence(ab);
    corpus.AddSentence(last);
    Word2Vec model(&g.vocab(), {});
    model.Train(corpus);
    return model;
  };
  const Word2Vec full = trained(at_cap, ab);

  // One sentence past the cap must not influence training at all.
  const Word2Vec capped = trained(at_cap + 1, cd);
  EXPECT_EQ(capped.EmbedVec(token("A")), full.EmbedVec(token("A")));
  EXPECT_EQ(capped.EmbedVec(token("C")), full.EmbedVec(token("C")));

  // A different last sentence under the cap does.
  const Word2Vec changed = trained(at_cap, cd);
  EXPECT_NE(changed.EmbedVec(token("C")), full.EmbedVec(token("C")));
}

TEST(Word2VecTest, IncrementalTrainingGrowsVocabulary) {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode({"A"});
  pg::NodeId b = g.AddNode({"B"});
  g.AddEdge(a, b, {"R"});
  Word2Vec model(&g.vocab(), {});
  model.Train(BuildLabelCorpus(g));
  size_t rows_before = model.num_rows();
  // New batch introduces a new label.
  pg::NodeId c = g.AddNode({"C"});
  g.AddEdge(a, c, {"R2"});
  model.Train(BuildLabelCorpus(g));
  EXPECT_GT(model.num_rows(), rows_before);
  // The token added by the second call trains from a fresh row and comes
  // out as a usable (unit-norm) embedding, not zeros.
  auto tc = g.vocab().TokenForLabelSet({g.vocab().FindLabel("C")});
  auto v = model.EmbedVec(tc);
  double norm2 = 0;
  for (float x : v) norm2 += static_cast<double>(x) * x;
  EXPECT_NEAR(norm2, 1.0, 1e-4);
}

TEST(Word2VecTest, DistinctTokensStayDistinguishable) {
  // Even tokens with identical contexts must not collapse (the identity
  // component guarantees this; §4.1 relies on distinct label sets being
  // separable).
  pg::PropertyGraph g;
  for (int i = 0; i < 20; ++i) {
    pg::NodeId hub = g.AddNode({"Hub"});
    pg::NodeId x = g.AddNode({"X"});
    pg::NodeId y = g.AddNode({"Y"});
    g.AddEdge(hub, x, {"R"});
    g.AddEdge(hub, y, {"R"});
  }
  Word2Vec model(&g.vocab(), {});
  model.Train(BuildLabelCorpus(g));
  auto tx = g.vocab().TokenForLabelSet({g.vocab().FindLabel("X")});
  auto ty = g.vocab().TokenForLabelSet({g.vocab().FindLabel("Y")});
  EXPECT_LT(model.Similarity(tx, ty), 0.995f);
}

TEST(Word2VecTest, StateRoundTripContinuesTrainingIdentically) {
  // Snapshot after the first corpus, restore into a fresh model, train both
  // on a second corpus: embeddings must stay bit-identical — the weight
  // matrices are the model's only cross-call state.
  pg::PropertyGraph g1 = CommunityGraph();
  pg::PropertyGraph g2 = CommunityGraph();
  LabelCorpus c1 = BuildLabelCorpus(g1);
  Word2Vec original(&g1.vocab(), {});
  original.Train(c1);
  std::string state;
  original.AppendStateTo(&state);

  Word2Vec restored(&g2.vocab(), {});
  ASSERT_TRUE(restored.RestoreState(state).ok());
  EXPECT_EQ(restored.num_rows(), original.num_rows());
  original.Train(BuildLabelCorpus(g1));
  restored.Train(BuildLabelCorpus(g2));
  auto token = g1.vocab().TokenForLabelSet({g1.vocab().FindLabel("A")});
  EXPECT_EQ(original.EmbedVec(token), restored.EmbedVec(token));
}

TEST(Word2VecTest, RestoreStateRejectsDimMismatchAndCorruption) {
  pg::PropertyGraph g = CommunityGraph();
  Word2Vec model(&g.vocab(), {});
  model.Train(BuildLabelCorpus(g));
  std::string state;
  model.AppendStateTo(&state);

  // A differently-configured embedder refuses the snapshot outright.
  Word2VecOptions narrow;
  narrow.dim = 4;
  pg::Vocabulary vocab;
  Word2Vec other(&vocab, narrow);
  auto mismatch = other.RestoreState(state);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), util::StatusCode::kFailedPrecondition);

  // Every truncation is a ParseError, and none of them disturb the model.
  pg::Vocabulary fresh_vocab;
  Word2Vec fresh(&fresh_vocab, {});
  for (size_t len = 0; len < state.size(); len += 7) {
    auto truncated = fresh.RestoreState(state.substr(0, len));
    ASSERT_FALSE(truncated.ok()) << "len " << len;
    EXPECT_EQ(truncated.code(), util::StatusCode::kParseError) << len;
  }
  EXPECT_EQ(fresh.num_rows(), 0u);

  // Hand-built payloads with inconsistent matrices: unequal input/output
  // sizes, and a row count that is not a whole number of dim-sized rows.
  const Word2VecOptions defaults;
  std::string unequal;
  util::PutU64(&unequal, defaults.dim);
  util::PutF32Vector(&unequal, std::vector<float>(defaults.dim, 0.5f));
  util::PutF32Vector(&unequal, std::vector<float>(2 * defaults.dim, 0.5f));
  auto status = fresh.RestoreState(unequal);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kParseError);

  std::string ragged;
  util::PutU64(&ragged, defaults.dim);
  util::PutF32Vector(&ragged, std::vector<float>(defaults.dim + 1, 0.5f));
  util::PutF32Vector(&ragged, std::vector<float>(defaults.dim + 1, 0.5f));
  status = fresh.RestoreState(ragged);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kParseError);
  EXPECT_EQ(fresh.num_rows(), 0u);
}

}  // namespace
}  // namespace pghive::embed
