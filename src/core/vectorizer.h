#ifndef PGHIVE_CORE_VECTORIZER_H_
#define PGHIVE_CORE_VECTORIZER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "embed/embedder.h"
#include "pg/batch.h"
#include "pg/column_store.h"
#include "pg/graph.h"
#include "util/thread_pool.h"

namespace pghive::core {

/// A dense row-major feature matrix: `num` rows of `dim` floats.
struct FeatureMatrix {
  std::vector<float> data;
  size_t num = 0;
  size_t dim = 0;

  const float* row(size_t i) const { return &data[i * dim]; }
};

/// An owning CSR of MinHash element sets: set i's elements are
/// elements[offsets[i] .. offsets[i+1]); lsh::SetSpans views it.
struct ElementSetCsr {
  std::vector<uint64_t> elements;
  std::vector<uint32_t> offsets;  // num() + 1 entries; empty when num() == 0.

  size_t num() const { return offsets.empty() ? 0 : offsets.size() - 1; }
};

/// Builds the hybrid representation vectors of §4.1.
///
/// Nodes:  f_v in R^{d+K}   = [ Word2Vec(labels) | binary property vector ]
/// Edges:  f_e in R^{3d+Q}  = [ W2V(edge) | W2V(src) | W2V(dst) | binary ]
///
/// where K / Q are the numbers of distinct node / edge property keys in the
/// vocabulary at vectorization time, and an absent label contributes a zero
/// block. The binary block uses a global key-id -> column map shared by all
/// rows of one call so identical patterns produce identical vectors.
///
/// Per pattern, not per row: a vector (and a MinHash set) reads only a row's
/// pattern — its label-set token, endpoint tokens and key set — so the
/// pattern calls (NodePatternFeatures, NodePatternSets, ...) fill one entry
/// per pattern of the batch side's pg::PatternIndex, from the pattern's
/// representative row. PgHive runs on those. The per-row calls (NodeFeatures,
/// NodeSetSpans, EdgeEndpointTokens, ...) run the same code with every row
/// as its own pattern, so a row's entry equals its pattern's bit for bit.
///
/// The sweep runs over per-batch pg::ColumnStore tables: the embed blocks
/// come from a per-batch token table and the binary block is filled from
/// the key CSR, with no per-row PropertyMap access in the hot loops. With a
/// thread pool, feature entries are sharded across workers; the token table
/// and the MinHash sets are filled on the calling thread. The column build
/// is the sequential intern pre-pass (in row order, so token ids never
/// depend on the thread count); the parallel fill then only reads the
/// columns and the token table, and each entry writes its own slice of the
/// output — bit-identical at every pool size. As a side effect, every token
/// of the batch (including edge endpoint tokens) is interned once both
/// column stores are built, which is what lets PgHive::ProcessPrepared run
/// without the vocabulary while the next batch preprocesses.
///
/// The token table holds one embedding per distinct label-set token of the
/// batch: a feature call embeds the tokens its entries bring that the table
/// lacks, then each entry copies its d floats per block. A batch has far
/// fewer tokens than rows, so Embed runs once per token instead of once
/// per row slot; the table's size follows the batch's tokens, never the
/// vocabulary's. Building either column store drops the table, so its
/// embeddings are always taken after the batch's stores were built
/// (PgHive builds both, then trains, then vectorizes);
/// the embedder must not change between the feature calls of one batch,
/// which Word2Vec's sequencing contract already requires. The feature
/// calls fill the table, so two of them on one Vectorizer must not
/// overlap.
class Vectorizer {
 public:
  Vectorizer(pg::PropertyGraph* graph, const embed::LabelEmbedder* embedder,
             util::ThreadPool* pool = nullptr);

  /// Feature vectors for the batch's nodes (row i corresponds to
  /// batch.node_ids[i]).
  FeatureMatrix NodeFeatures(const pg::GraphBatch& batch);

  /// Feature vectors for the batch's edges.
  FeatureMatrix EdgeFeatures(const pg::GraphBatch& batch);

  /// One feature row per pattern of the batch's nodes (edges): row p is the
  /// vector of every row of pattern p of NodeColumns(batch).patterns().
  FeatureMatrix NodePatternFeatures(const pg::GraphBatch& batch);
  FeatureMatrix EdgePatternFeatures(const pg::GraphBatch& batch);

  /// MinHash element sets, one flat CSR per batch. Nodes: the label-set
  /// token plus property keys; edges: edge token, source token, target
  /// token, plus edge property keys — disambiguated into one uint64
  /// universe. Rows come out sorted: the tag constants ascend in push order
  /// (label < src < dst < key) and key ids ascend within a row.
  ElementSetCsr NodeSetSpans(const pg::GraphBatch& batch);
  ElementSetCsr EdgeSetSpans(const pg::GraphBatch& batch);

  /// The same sets, one per pattern (set p is pattern p's).
  ElementSetCsr NodePatternSets(const pg::GraphBatch& batch);
  ElementSetCsr EdgePatternSets(const pg::GraphBatch& batch);

  /// The batch's column stores, built on first use and cached until a call
  /// names a different id list.
  const pg::ColumnStore& NodeColumns(const pg::GraphBatch& batch);
  const pg::ColumnStore& EdgeColumns(const pg::GraphBatch& batch);

  /// Per-edge (src, dst) label-set token pairs from the cached edge store
  /// (row i corresponds to batch.edge_ids[i]). After EdgeFeatures or
  /// EdgeSetSpans ran on the same batch this is a pure read, which is how
  /// the pipelined executor hands the extract stage everything it needs
  /// without touching the vocabulary again.
  std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>
  EdgeEndpointTokens(const pg::GraphBatch& batch);

  /// The same pairs, one per edge pattern.
  std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>
  EdgePatternEndpoints(const pg::GraphBatch& batch);

 private:
  /// Embeddings of distinct label-set tokens, in first-seen order.
  class TokenTable {
   public:
    /// Embeds each token of tokens[rows[i]] the table lacks; kNoToken is
    /// skipped.
    void Add(const std::vector<pg::LabelSetToken>& tokens,
             const std::vector<uint32_t>& rows,
             const embed::LabelEmbedder& embedder);

    /// Copies the embedding of tokens[rows[i]] into
    /// data[(i - lo) * stride + offset ..] for every i in [lo, hi) — the
    /// ColumnStore::FillBinaryBlock layout. A kNoToken row is left
    /// untouched: the feature matrix starts zeroed, which is its embedding.
    void FillBlock(const std::vector<pg::LabelSetToken>& tokens,
                   const std::vector<uint32_t>& rows, size_t lo, size_t hi,
                   float* data, size_t stride, size_t offset) const;

    void Clear();

   private:
    /// The embedding of `token`, or nullptr when the table lacks it.
    const float* Find(pg::LabelSetToken token) const;

    std::unordered_map<pg::LabelSetToken, uint32_t> index_;  // Token -> entry.
    std::vector<pg::LabelSetToken> tokens_;  // Entry -> token.
    std::vector<float> vectors_;             // Entry -> dim floats.
    size_t dim_ = 0;
  };

  // The shared bodies: one entry per listed row of the store, in list order.
  FeatureMatrix NodeFeaturesOf(const pg::ColumnStore& cols,
                               const std::vector<uint32_t>& rows);
  FeatureMatrix EdgeFeaturesOf(const pg::ColumnStore& cols,
                               const std::vector<uint32_t>& rows);
  ElementSetCsr SetsOf(const pg::ColumnStore& cols,
                       const std::vector<uint32_t>& rows, bool edges) const;

  pg::PropertyGraph* graph_;
  const embed::LabelEmbedder* embedder_;
  util::ThreadPool* pool_;
  // Keyed by their own ids(): the graph is unchanged for the vectorizer's
  // lifetime (vocabulary dimensions must stay fixed anyway), so the same
  // ids yield the same store.
  pg::ColumnStore node_cols_;
  pg::ColumnStore edge_cols_;
  TokenTable table_;
};

/// Element-universe tags for MinHash sets (exposed for tests).
uint64_t MinHashLabelElement(uint32_t token);
uint64_t MinHashSrcElement(uint32_t token);
uint64_t MinHashDstElement(uint32_t token);
uint64_t MinHashKeyElement(uint32_t key);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_VECTORIZER_H_
