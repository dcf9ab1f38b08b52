#ifndef PGHIVE_EMBED_WORD2VEC_H_
#define PGHIVE_EMBED_WORD2VEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "embed/corpus.h"
#include "embed/embedder.h"
#include "util/status.h"

namespace pghive::util {
class ThreadPool;
}  // namespace pghive::util

namespace pghive::embed {

/// Training options for the skip-gram negative-sampling model.
struct Word2VecOptions {
  size_t dim = 8;           ///< Embedding dimension d (paper uses small d).
  size_t window = 2;        ///< Context window in tokens.
  size_t negatives = 4;     ///< Negative samples per positive pair.
  size_t epochs = 3;        ///< Passes over the corpus.
  float learning_rate = 0.05f;
  /// Weight of a deterministic per-token component blended into the trained
  /// vector. High-dimensional Word2Vec keeps distinct words distinguishable
  /// even when their contexts coincide; at our small `dim`, SGNS would
  /// collapse same-context tokens onto one point, so a token-identity
  /// component restores that property (0 disables).
  float identity_weight = 0.5f;
  uint64_t seed = 0x9e3779b9ULL;
  /// Caps training pairs per epoch to bound cost on large graphs; the label
  /// corpus is highly redundant so subsampling loses nothing. The cap is
  /// exact: pair enumeration stops at this many (center, context) pairs.
  size_t max_pairs_per_epoch = 200000;
  /// Pairs per minibatch. The minibatch is the unit of deterministic
  /// parallelism: every pair in a batch reads the weights as of the start of
  /// the batch's wave, and the per-batch negative-sample RNG stream is
  /// seeded only by (epoch, batch index), so batch contents never depend on
  /// the thread count. 0 is treated as 1.
  size_t batch_size = 256;
};

/// A miniature Word2Vec (skip-gram with negative sampling) over label-set
/// tokens. Reproduces the embedding substrate of §4.1: identical label sets
/// share a vector; co-occurring labels (connected by edges) get similar
/// vectors; unrelated labels diverge. Embeddings are L2-normalized on read
/// so the embedding block of the feature vector has unit scale.
class Word2Vec : public LabelEmbedder {
 public:
  Word2Vec(const pg::Vocabulary* vocab, Word2VecOptions options);

  /// Trains (or continues training) on the corpus. Tokens added to the
  /// vocabulary since the last call get freshly initialized rows, which is
  /// what incremental batch processing relies on.
  ///
  /// Minibatch SGD over waves of fixed-size batches: each batch's gradient
  /// is computed against the weights as of the start of its wave and the
  /// accumulated updates are applied in batch order, so the trained
  /// embeddings are byte-identical for every pool size. A null (or
  /// 1-thread) pool runs the same schedule inline — the serial path.
  ///
  /// Sequencing contract (pipelined ingest): Train mutates the weights that
  /// Embed reads, and successive calls chain incrementally, so callers must
  /// serialize Train calls in batch order and must not call Embed for an
  /// earlier batch once the next batch's Train has started.
  /// core::BatchPipeline honors this by keeping the whole preprocess stage
  /// (Train + vectorization) a serial chain in batch order, each batch's
  /// starting after the previous one's returned; only the later
  /// cluster/extract stages — which read prebuilt feature matrices, never
  /// the model — overlap the next batch's training.
  void Train(const LabelCorpus& corpus, util::ThreadPool* pool = nullptr);

  size_t dim() const override { return options_.dim; }
  void Embed(pg::LabelSetToken token, float* out) const override;

  /// Cosine similarity between the embeddings of two tokens.
  float Similarity(pg::LabelSetToken a, pg::LabelSetToken b) const;

  /// Number of token rows currently allocated.
  size_t num_rows() const { return input_.size() / options_.dim; }

  /// Appends the trained model state — dim plus the input and output weight
  /// matrices as bit-exact float payloads — to `out` (util/binio framing).
  /// The embedder section of a PgHive state snapshot: restoring these rows
  /// and continuing training reproduces an uninterrupted run exactly,
  /// because Train has no other cross-call state.
  void AppendStateTo(std::string* out) const;

  /// Restores weights written by AppendStateTo. Rejects a dim mismatch with
  /// FailedPrecondition (the snapshot belongs to a differently-configured
  /// embedder) and corrupt payloads — truncation, matrix size mismatch, a
  /// row count that is not a whole number of dim-sized rows — with
  /// ParseError, leaving the model untouched either way.
  util::Status RestoreState(std::string_view bytes);

 private:
  void EnsureCapacity(size_t vocab_size);

  const pg::Vocabulary* vocab_;
  Word2VecOptions options_;
  std::vector<float> input_;   // num_tokens x dim (the embeddings).
  std::vector<float> output_;  // num_tokens x dim (context weights).
};

}  // namespace pghive::embed

#endif  // PGHIVE_EMBED_WORD2VEC_H_
