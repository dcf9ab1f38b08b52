#include "embed/corpus.h"

#include "pg/batch.h"

namespace pghive::embed {

void LabelCorpus::AddSentence(std::span<const pg::LabelSetToken> sentence) {
  if (offsets.empty()) offsets.push_back(0);
  for (const pg::LabelSetToken t : sentence) tokens.push_back(t);
  offsets.push_back(static_cast<uint32_t>(tokens.size()));
}

LabelCorpus BuildLabelCorpus(const pg::PropertyGraph& graph,
                             const pg::ColumnStore& edge_cols,
                             const pg::ColumnStore& node_cols) {
  LabelCorpus corpus;
  std::vector<bool> node_in_edge(graph.num_nodes(), false);
  const size_t num_edges = edge_cols.num_rows();
  const size_t num_nodes = node_cols.num_rows();
  corpus.tokens.reserve(3 * num_edges + num_nodes);
  corpus.offsets.reserve(num_edges + num_nodes + 1);

  for (size_t i = 0; i < num_edges; ++i) {
    pg::LabelSetToken sentence[3];
    size_t length = 0;
    for (const pg::LabelSetToken t :
         {edge_cols.src_tokens()[i], edge_cols.tokens()[i],
          edge_cols.dst_tokens()[i]}) {
      if (t != pg::kNoToken) sentence[length++] = t;
    }
    if (length >= 2) corpus.AddSentence({sentence, length});
    node_in_edge[edge_cols.src_ids()[i]] = true;
    node_in_edge[edge_cols.dst_ids()[i]] = true;
  }

  for (size_t i = 0; i < num_nodes; ++i) {
    if (node_in_edge[node_cols.ids()[i]]) continue;
    const pg::LabelSetToken t = node_cols.tokens()[i];
    if (t != pg::kNoToken) corpus.AddSentence({&t, 1});
  }

  corpus.vocab_size = graph.vocab().num_tokens();
  return corpus;
}

LabelCorpus BuildLabelCorpus(pg::PropertyGraph& graph) {
  const pg::GraphBatch batch = pg::FullBatch(graph);
  const pg::ColumnStore edge_cols =
      pg::ColumnStore::ForEdges(graph, batch.edge_ids);
  const pg::ColumnStore node_cols =
      pg::ColumnStore::ForNodes(graph, batch.node_ids);
  return BuildLabelCorpus(graph, edge_cols, node_cols);
}

}  // namespace pghive::embed
