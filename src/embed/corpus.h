#ifndef PGHIVE_EMBED_CORPUS_H_
#define PGHIVE_EMBED_CORPUS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "pg/column_store.h"
#include "pg/graph.h"

namespace pghive::embed {

/// A training corpus for the label Word2Vec model: each "sentence" is a
/// short sequence of label-set tokens. The paper trains Word2Vec "on the set
/// of node and edge labels observed in the dataset" (§4.1); we realize this
/// as co-occurrence sentences extracted from the graph structure:
///
///   for every edge e = (s -> t):  [token(s), token(e), token(t)]
///   for every isolated labeled node: [token(n)]
///
/// so that labels that participate in the same relationships end up close
/// in embedding space, while unrelated labels stay apart.
///
/// The sentences are one flat CSR: sentence i is
/// tokens[offsets[i] .. offsets[i+1]), so a corpus is two arrays however
/// many sentences it holds.
struct LabelCorpus {
  /// Every sentence's label-set tokens, back to back (kNoToken entries are
  /// skipped).
  std::vector<pg::LabelSetToken> tokens;
  /// num_sentences() + 1 entries; empty when the corpus has no sentence.
  std::vector<uint32_t> offsets;
  /// Number of distinct tokens referenced (== vocab.num_tokens()).
  size_t vocab_size = 0;

  size_t num_sentences() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  std::span<const pg::LabelSetToken> sentence(size_t i) const {
    return {tokens.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }

  /// Appends `sentence` as the next sentence.
  void AddSentence(std::span<const pg::LabelSetToken> sentence);
};

/// Builds the corpus of a batch from its column stores
/// (pg::ColumnStore::ForEdges / ForNodes). Reads the already-interned token
/// and endpoint-id columns, so no vocabulary mutation happens here.
/// Build the edge store before the node store: it interns per edge in the
/// (src, edge, dst) order this builder emits, and the node store then adds
/// only the isolated nodes' tokens, so token ids follow the sentence order.
LabelCorpus BuildLabelCorpus(const pg::PropertyGraph& graph,
                             const pg::ColumnStore& edge_cols,
                             const pg::ColumnStore& node_cols);

/// Whole-graph form: builds both stores in that order and calls the one
/// above.
LabelCorpus BuildLabelCorpus(pg::PropertyGraph& graph);

}  // namespace pghive::embed

#endif  // PGHIVE_EMBED_CORPUS_H_
