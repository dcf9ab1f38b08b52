// The embed stage's determinism guarantee: Word2Vec::Train is minibatch SGD
// whose batch contents, negative-sample RNG streams, and gradient staleness
// are derived only from (epoch, batch index) — never from thread identity —
// so the trained embeddings are byte-identical for every pool size. This is
// what keeps `pghive discover` output stable across --threads now that the
// pipeline trains the label model on the pool.

#include <gtest/gtest.h>

#include <vector>

#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "embed/corpus.h"
#include "embed/word2vec.h"
#include "pg/batch.h"
#include "pg/column_store.h"
#include "util/thread_pool.h"

namespace pghive {
namespace {

std::vector<std::vector<float>> AllEmbeddings(const embed::Word2Vec& model,
                                              size_t vocab_size) {
  std::vector<std::vector<float>> out;
  out.reserve(vocab_size);
  for (size_t t = 0; t < vocab_size; ++t) {
    out.push_back(model.EmbedVec(static_cast<pg::LabelSetToken>(t)));
  }
  return out;
}

std::vector<std::vector<float>> TrainWithThreads(
    const pg::PropertyGraph& graph, const embed::LabelCorpus& corpus,
    const embed::Word2VecOptions& options, size_t num_threads) {
  embed::Word2Vec model(&graph.vocab(), options);
  if (num_threads == 0) {
    model.Train(corpus);  // The no-pool serial path.
  } else {
    util::ThreadPool pool(num_threads);
    model.Train(corpus, &pool);
  }
  return AllEmbeddings(model, corpus.vocab_size);
}

TEST(EmbedDeterminismTest, TrainIdenticalAcrossThreadCountsOnAllZooDatasets) {
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    datasets::Dataset dataset = datasets::Generate(spec, /*scale=*/0.05,
                                                   /*seed=*/99);
    embed::LabelCorpus corpus = embed::BuildLabelCorpus(dataset.graph);
    embed::Word2VecOptions options;
    auto serial = TrainWithThreads(dataset.graph, corpus, options, 0);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      EXPECT_EQ(TrainWithThreads(dataset.graph, corpus, options, threads),
                serial)
          << spec.name << " threads=" << threads;
    }
  }
}

TEST(EmbedDeterminismTest, TinyBatchesExerciseWaveBoundaries) {
  // batch_size = 3 forces many partial batches and multiple waves even on a
  // small corpus, so wave-boundary bookkeeping (partial last batch, scratch
  // reuse across waves) is what this pins down.
  datasets::Dataset dataset =
      datasets::Generate(datasets::PoleSpec(), /*scale=*/0.05, /*seed=*/7);
  embed::LabelCorpus corpus = embed::BuildLabelCorpus(dataset.graph);
  embed::Word2VecOptions options;
  options.batch_size = 3;
  options.epochs = 2;
  auto serial = TrainWithThreads(dataset.graph, corpus, options, 0);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    EXPECT_EQ(TrainWithThreads(dataset.graph, corpus, options, threads),
              serial)
        << "threads=" << threads;
  }
}

TEST(EmbedDeterminismTest, IncrementalTrainIdenticalAcrossThreadCounts) {
  // Incremental mode trains the same model repeatedly on per-batch corpora,
  // growing the vocabulary as new tokens appear; the parallel schedule must
  // keep every intermediate state identical too.
  auto train_incremental = [](size_t num_threads) {
    datasets::Dataset dataset =
        datasets::Generate(datasets::LdbcSpec(), /*scale=*/0.1, /*seed=*/99);
    embed::Word2Vec model(&dataset.graph.vocab(), embed::Word2VecOptions{});
    util::ThreadPool pool(num_threads == 0 ? 1 : num_threads);
    for (const auto& batch :
         pg::SplitIntoBatches(dataset.graph, /*num_batches=*/4, /*seed=*/5)) {
      const pg::ColumnStore edges =
          pg::ColumnStore::ForEdges(dataset.graph, batch.edge_ids);
      const pg::ColumnStore nodes =
          pg::ColumnStore::ForNodes(dataset.graph, batch.node_ids);
      model.Train(embed::BuildLabelCorpus(dataset.graph, edges, nodes),
                  num_threads == 0 ? nullptr : &pool);
    }
    return AllEmbeddings(model, dataset.graph.vocab().num_tokens());
  };
  auto serial = train_incremental(0);
  EXPECT_FALSE(serial.empty());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    EXPECT_EQ(train_incremental(threads), serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace pghive
